"""Exception types shared across the package.

Each type carries the CLI exit code it maps to as ``exit_code``:
configuration problems exit 2, data problems (the default) exit 3, and
numerical divergence exits 4.
"""


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
