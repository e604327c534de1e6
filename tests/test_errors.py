"""The exception taxonomy: one class per exit code, raised everywhere."""

import ast
from pathlib import Path

import ergosum
from ergosum import errors

PACKAGE = Path(ergosum.__file__).parent

# the classes of cli.main's exit codes 2, 3 and 4, and the two a caller's
# misuse or an unbuilt stub raises
RAISABLE = {"ConfigError", "ResourceLimitError", "InvariantViolationError",
            "TypeError", "NotImplementedError"}


def _raised_name(node: ast.Raise):
    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
    return exc.id if isinstance(exc, ast.Name) else ast.unparse(exc)


def test_every_raise_names_an_exit_code_class():
    stray = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            # a bare raise re-raises what it caught
            if isinstance(node, ast.Raise) and node.exc is not None:
                name = _raised_name(node)
                if name not in RAISABLE:
                    stray.append(f"{path.name}:{node.lineno} raises {name}")
    assert not stray, stray


def test_errors_defines_the_four_classes():
    tree = ast.parse(Path(errors.__file__).read_text())
    classes = {node.name for node in tree.body if isinstance(node, ast.ClassDef)}
    assert classes == {"ConfigError", "ResourceLimitError", "InvariantViolationError",
                       "PrecisionWarning"}
    # none is a ValueError, which cli's parsers catch and wrap
    for name in classes - {"PrecisionWarning"}:
        assert not issubclass(getattr(errors, name), ValueError), name
