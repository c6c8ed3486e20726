"""Exception types shared across the package.

The CLI maps each class to an exit code through cli._EXIT_BY_ERROR:
SchemaError 2, PrecisionError 3, NonContractionError 4, and
SingularMatrixError, GammaShapeError and NeighborhoodError share 5.
Every other package error exits 1.
"""


class TMotiveError(Exception):
    """Base class for all package errors."""


class FieldError(TMotiveError):
    """Ambient finite field cannot satisfy a request (missing root, no irreducible modulus)."""


class FieldMismatchError(TMotiveError):
    """Operands belong to different ambient fields."""


class PrecisionError(TMotiveError):
    """Tracked precision was exhausted before the requested computation finished."""


class NonContractionError(TMotiveError):
    """A fixed-point iteration failed to strictly increase its residual valuation."""


class SingularMatrixError(TMotiveError):
    """No usable pivot: matrix is singular to working precision."""


class NeighborhoodError(TMotiveError):
    """Input lies outside the configured neighborhood of the base point."""


class GammaShapeError(TMotiveError):
    """Matrix does not have the stabilizer block shape (G, w^2 H; H, G) over F_q[theta]."""


class RecoveryError(TMotiveError):
    """Polynomial change-of-basis recovery between lattice bases failed."""


class SchemaError(TMotiveError):
    """JSON input does not conform to the documented schema."""
