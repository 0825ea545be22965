"""Exception types shared across the package.

Every error raised on purpose for bad input derives from IwarankError,
so callers (and the CLI) can separate "the input violates a precondition"
from genuine bugs.  PostconditionFailed is the one error raised on
purpose that is not about the input: a computation's check of its own
result failed.
"""


class IwarankError(Exception):
    """Base class for all library-raised errors."""


class PostconditionFailed(RuntimeError):
    """A computation's check of its own result failed: a bug or a case
    its construction does not cover, never bad input.  The CLI exits 1."""


class InvalidContext(IwarankError):
    """p is not an odd prime below MAX_PRIME, precision/margin or sweep
    scale out of range, or a level request is outside what exact
    construction supports."""


class ZeroElement(IwarankError):
    """An operation needed a nonzero ring element (e.g. mu/lambda of 0)."""


class PrecisionUnstable(IwarankError):
    """A length read off at working precision N is not certified: its
    count of finite elementary divisors falls short of the exact rank (a
    divisor reached p^N).  The finite-ring proxy cannot be trusted.  The
    failing reading's ``precision``, ``finite_count``, ``expected_rank``
    and tower ``level`` are attributes, None when not given."""

    def __init__(self, message: str, *, precision=None, finite_count=None, expected_rank=None,
                 level=None):
        super().__init__(message)
        self.precision, self.finite_count, self.expected_rank = precision, finite_count, expected_rank
        self.level = level


class PhiDivides(IwarankError):
    """The level-n cyclotomic factor divides the data, so the requested
    quantity is infinite/undefined at that level."""


class NotTorsion(IwarankError):
    """The relation matrix does not have full rank over Frac(Lambda)."""


class SingularMatrix(IwarankError):
    """A 2x2 matrix with zero determinant where a nonzero one is needed."""


class NotSpecial(IwarankError):
    """Matrix fails the column-divisibility condition at some level."""


class DegenerateColeman(IwarankError):
    """Coleman data violates one of its structural invariants."""


class NotCoprime(IwarankError):
    """det B shares a cyclotomic factor with omega_n."""
