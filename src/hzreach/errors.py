"""Exception types shared across the package."""


class HzReachError(Exception):
    """Base class for all package-specific errors."""


class EmptySetError(HzReachError):
    """Raised when an operation requires a nonempty set but received an empty one."""


class PrefixMismatchError(HzReachError):
    """Raised when a constrained product's prefix precondition fails."""


class NotUnstableError(HzReachError):
    """Raised when a triangle relaxation is requested for a stable interval."""


class EmptySeedError(HzReachError):
    """Raised when an unsafe-sequence seed set is empty."""


class EmptyDomainError(HzReachError):
    """Raised when a reachability run is started from an empty domain set."""


class LeafLimitError(HzReachError, RuntimeError):
    """Raised when a set has more feasible binary leaves than ``lp.LEAF_LIMIT``."""
