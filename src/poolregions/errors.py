"""Exception types shared across the package."""


class PoolRegionsError(Exception):
    """Base class for all package errors."""


class InvalidParamsError(PoolRegionsError, ValueError):
    """Parameters violate a precondition (bad dims, k <= s where forbidden, ...)."""


class InvalidSelectionError(PoolRegionsError, ValueError):
    """A face selection references coordinates outside its window, or is empty."""


class NotAFaceError(PoolRegionsError):
    """The selection's class graph has a directed cycle, so it is not a face."""


class BudgetExceededError(PoolRegionsError):
    """A count would exceed its work budget.

    The oracle walks budget the product of the per-window candidate counts
    and take at most `oracle.MAX_WINDOWS` (500) windows; the frontier DP
    budgets the (state, chosen set) pairs it examines; the paper-literal
    walk gets budget // (rows x K), what its row scan charges per vertex.
    `oracle.check_budget` rejects a budget below 1 (InvalidParamsError).
    """


class RegimeNotCoveredError(PoolRegionsError):
    """No closed form is available for this (k, s) parameter regime."""


class TieDetectedError(PoolRegionsError):
    """Some pooling window attains its maximum at more than one coordinate."""


class OutOfWindowError(PoolRegionsError, ValueError):
    """A word letter falls outside its window's index range."""


class NonIntegerCoefficientError(PoolRegionsError):
    """A power-series expansion left the integers."""


class NoPositiveRootError(PoolRegionsError):
    """The polynomial has no positive real root (Sturm count)."""


class VerificationError(PoolRegionsError):
    """A self-verification check found a mismatch."""
