"""Exception taxonomy shared by all modules.

The CLI maps these onto exit codes: configuration problems exit 2,
resource/horizon limits exit 3, internal invariant breaches exit 4.
"""


class ErgosumError(Exception):
    """Base class for all package errors."""


class ConfigError(ErgosumError):
    """Invalid configuration, malformed input data, or bad parameters."""


def check_keys(doc, allowed: tuple[str, ...], what: str) -> None:
    """Raise ConfigError unless doc is a JSON object whose keys are all allowed."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{what} must be a JSON object, got {doc!r}")
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"{what} has unknown key {key!r}; "
                              f"allowed: {', '.join(allowed)}")


class StageDataExhaustedError(ConfigError):
    """A finitely listed construction without a repeating suffix ran out of stages."""


class ResourceLimitError(ErgosumError):
    """A configured budget, horizon, or coverage requirement was hit."""


class ExpansionBudgetError(ResourceLimitError):
    """Materializing a level word would exceed the symbol budget."""

    def __init__(self, level, height, budget):
        super().__init__(
            f"level {level} word has q_{level} = {height} symbols, "
            f"exceeding the expansion budget {budget}"
        )
        self.level = level
        self.height = height
        self.budget = budget


class DepthCapError(ResourceLimitError):
    """A window failed to embed within the configured number of tower levels.

    Embedding fails at a level only when the sampled point sits within the
    window radius of that level's word boundary; each further level escapes
    with probability at least 1/2, so the chance of hitting a cap of d extra
    levels is at most 2**(1-d).
    """

    def __init__(self, radius, cap):
        super().__init__(
            f"window of radius {radius} did not embed within {cap} levels "
            f"(residual probability <= 2**(1-{cap}))"
        )
        self.radius = radius
        self.cap = cap


class CoverageError(ResourceLimitError):
    """A walk sample does not cover the requested horizon, or its kept partial
    sums would overflow int64."""


class ScalingHorizonError(ResourceLimitError):
    """Generalized inverse query exceeded the scaling's search horizon or domain."""


class SamplingHorizonError(ResourceLimitError):
    """Sampling would truncate or overflow beyond the configured tolerance."""


class InvariantViolationError(ErgosumError):
    """An internal structural identity failed; results are not trustworthy."""


class PrecisionWarning(UserWarning):
    """Floating-point resolution is marginal for the requested computation."""
