"""Exception types shared across the package, and RANGES, the one range table.

Each type carries the CLI exit code it maps to as ``exit_code``:
configuration problems exit 2, data problems (the default) exit 3, and
numerical divergence exits 4.
"""

import numbers


class OrthoRegError(Exception):
    """Base class for all package errors."""

    exit_code = 3


class ConfigError(OrthoRegError, ValueError):
    """Invalid configuration key, value, or combination."""

    exit_code = 2


class ParseError(OrthoRegError):
    """Malformed input file; message carries the offending line number."""


class EmptyGraph(OrthoRegError):
    """Graph has no edges where at least one is required."""


class MissingFile(OrthoRegError):
    """A required dataset file is absent."""


class ShapeMismatch(OrthoRegError):
    """Inconsistent array shapes or index sets."""


class EmptyMask(OrthoRegError):
    """An index set that must be non-empty is empty."""


class NotSymmetric(OrthoRegError):
    """Matrix fails the symmetry precondition."""

    exit_code = 4


class UnstableStepSize(OrthoRegError):
    """Explicit iteration step size violates its stability bound."""

    exit_code = 4


class InputNotWhitened(OrthoRegError):
    """Input covariance is not the identity within tolerance."""


class Divergence(OrthoRegError):
    """Loss or iterate became non-finite."""

    exit_code = 4


# Each number's interval, "int " first for integers, by field or flag dest; inf ends are open.
RANGES = {
    "lr": "(0, inf)", "dropout_p": "[0, 1)", "weight_decay": "[0, inf)", "epochs": "int [1, inf)",
    "hidden": "int [1, inf)", "embedding": "int [1, inf)", "seed": "int [0, inf)",
    "trials": "int [1, inf)", "eigens_every": "int [0, inf)", "early_stop_patience": "int [0, inf)",
    "lam": "[0, inf)", "alpha": "[0, inf)", "beta": "[0, inf)", "hops": "int [1, inf)",
    "n": "int [2, inf)", "tau": "[0, 1]", "dim": "int [1, inf)", "steps": "int [1, inf)",
    "mask ratio": "[0, 1]", "depth": "int [1, inf)", "ORTHOREG_THREADS": "int [1, inf)",
    "percentile": "(0, 100)", "k": "int [0, inf)", "snapshot_every": "int [1, inf)",
    "history_every": "int [1, inf)", "reps": "int [1, inf)",
}
_BOUNDS = {name: (rule != iv, iv, iv[0] == "(", *map(float, iv[1:-1].split(", ")), iv[-1] == ")")
           for name, rule in RANGES.items() for iv in [rule.removeprefix("int ")]}


def check_range(name: str, value, label=None):
    """``value``, or a ConfigError if it breaks RANGES[name] (numpy integers count as integers)."""
    integer, interval, lo_open, lo, hi, hi_open = _BOUNDS[name]
    if (integer and not isinstance(value, numbers.Integral)) or not (
            (lo < value if lo_open else lo <= value) and (value < hi if hi_open else value <= hi)):
        kind = "an integer in" if integer else "in"
        raise ConfigError(f"{label or name} must be {kind} {interval}, got {value}")
    return value


def check_ranges(values: dict, label: str = "{}") -> None:
    """check_range on each entry of ``values`` that RANGES names, as label.format(name)."""
    for name, value in values.items():
        if name in RANGES:
            check_range(name, value, label.format(name))
