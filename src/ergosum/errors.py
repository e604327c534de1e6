"""One exception class per exit code, and the precision warning.

A refusal raises the class of the exit code it earns, and the message says
which check failed:

- ``ConfigError`` (exit 2): a bad value, spec or file from the user, or a
  library argument out of range;
- ``ResourceLimitError`` (exit 3): a budget, horizon, domain end or
  coverage bound was hit;
- ``InvariantViolationError`` (exit 4): an internal identity failed, so
  the results are not trustworthy.

``cli.main`` maps exactly these three (and ``MemoryError``, exit 3); any
other exception, a ``ValueError`` from NumPy or Python among them, is a
defect and surfaces as a traceback.  None derives from ``ValueError``,
which the CLI's spec parsers catch from ``int`` and ``float`` and wrap.
"""


class ConfigError(Exception):
    """Invalid configuration, malformed input data, or bad parameters."""


class ResourceLimitError(Exception):
    """A configured budget, horizon, or coverage requirement was hit."""


class InvariantViolationError(Exception):
    """An internal structural identity failed; results are not trustworthy."""


class PrecisionWarning(UserWarning):
    """Floating-point resolution is marginal for the requested computation."""


def check_keys(doc, allowed: tuple[str, ...], what: str) -> None:
    """Raise ConfigError unless doc is a JSON object whose keys are all allowed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{what} has unknown key {key!r}; "
                              f"allowed: {', '.join(allowed)}")
