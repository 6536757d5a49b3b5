"""Axis-aligned interval vectors (coordinatewise bounds)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class IntervalVector:
    """Per-coordinate bounds [lower_i, upper_i] with lower <= upper."""

    lower: np.ndarray
    upper: np.ndarray

    def __post_init__(self):
        lo = np.asarray(self.lower, dtype=float).reshape(-1)
        hi = np.asarray(self.upper, dtype=float).reshape(-1)
        if lo.size != hi.size:
            raise ValueError("lower and upper must have the same length")
        if not (np.isfinite(lo).all() and np.isfinite(hi).all()):
            raise ValueError("interval bounds must be finite")
        if (lo > hi).any():
            raise ValueError("lower bound exceeds upper bound")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return self.lower.size

    @property
    def midpoint(self) -> np.ndarray:
        return 0.5 * (self.lower + self.upper)

    @property
    def radius(self) -> np.ndarray:
        return 0.5 * (self.upper - self.lower)

    def straddles_zero(self) -> np.ndarray:
        """Mask of the coordinates with lower < 0 < upper: the ReLU units
        that such pre-activation bounds leave unstable."""
        return (self.lower < 0.0) & (0.0 < self.upper)

    def contains(self, x, tol: float = 0.0) -> bool:
        x = np.asarray(x, dtype=float).reshape(-1)
        return bool(np.all(x >= self.lower - tol) and np.all(x <= self.upper + tol))

    def encloses(self, other: "IntervalVector", tol: float = 0.0) -> bool:
        return bool(np.all(self.lower <= other.lower + tol)
                    and np.all(self.upper >= other.upper - tol))
