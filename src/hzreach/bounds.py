"""Sound per-neuron enclosures for every (step, layer) pre-activation.

Two passes walk the closed-loop recursion (``ClosedLoopRnn.unroll``).
``propagate_intervals`` pushes plain interval arithmetic through it: each
pre-activation interval is Wh * [h_{t-1}] + Wx * [h_t^(l-1)] + vh using
midpoint/radius interval matrix-vector products, post-activations clamp the
bounds at zero, and the output interval re-enters as the next state interval.
Any sound enclosure preserves exactness of the downstream state-pair set
construction; tightness only affects ranking and relaxation quality.

``symbolic_bounds`` carries a lower and an upper linear function of x1 per
unit instead, through the set a relaxation plan builds, and so keeps the
correlations that intervals lose.  It changes no set: ``state_pairs`` pins
the binaries it proves constant, and ``verify`` rules out the steps whose
state enclosure an unsafe set misses.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .intervals import IntervalVector
from .model import ClosedLoopRnn

if TYPE_CHECKING:
    from .reach import RelaxationPlan

_EPS = np.finfo(float).eps

# The gap by which a symbolic bound must clear zero to pin a unit's binary,
# or a box to rule out a step (``SymbolicBounds``): ten times FEAS_TOL, the
# slack every feasibility decision allows each row, so that these decisions
# are the ones the LPs would make.
ENCLOSURE_MARGIN = 1e-6


@dataclass(frozen=True)
class BoundsTable:
    """Pre-activation intervals per (step, layer) stage.

    ``stages[(t, l)]`` bounds the layer-l pre-activation at step t for
    t in [T-1], l in [L]; the output pre-activation of step t is stage
    (t, L+1).  The map is ordered as the stages are built: by step, then
    by layer.
    """

    horizon: int
    stages: dict

    def unstable_index(self) -> list[tuple[int, int, int]]:
        """Every (t, layer, i) whose interval straddles zero, in stage order."""
        return [(t, layer, int(i)) for (t, layer), iv in self.stages.items()
                for i in np.flatnonzero(iv.straddles_zero())]


def _interval_affine(W: np.ndarray, iv: IntervalVector, bias=None) -> IntervalVector:
    mid = W @ iv.midpoint
    rad = np.abs(W) @ iv.radius
    if bias is not None:
        mid = mid + bias
    return IntervalVector(mid - rad, mid + rad)


def _interval_add(a: IntervalVector, b: IntervalVector) -> IntervalVector:
    return IntervalVector(a.lower + b.lower, a.upper + b.upper)


def _interval_relu(iv: IntervalVector) -> IntervalVector:
    return IntervalVector(np.maximum(iv.lower, 0.0), np.maximum(iv.upper, 0.0))


def propagate_intervals(m: ClosedLoopRnn, X: IntervalVector, T: int) -> BoundsTable:
    """Interval enclosures of every pre-activation over horizon T.

    ``X`` is an interval hull of the state domain.  Every concrete trajectory
    started inside X keeps its pre-activations inside the returned table.
    """
    if T < 2:
        raise ValueError("horizon must be at least 2")
    if X.dim != m.state_dim:
        raise ValueError("domain hull dimension mismatch")
    stages: dict = {}

    def affine(inp, Wx, v, h, Wh):
        pre = _interval_affine(Wx, inp, v)
        return pre if h is None else _interval_add(_interval_affine(Wh, h), pre)

    def relu(pre, t, layer):
        stages[(t, layer)] = pre
        return _interval_relu(pre)

    for _ in m.unroll(X, T - 1, affine, relu):
        pass
    return BoundsTable(T, stages)


@dataclass(frozen=True)
class SymbolicBounds:
    """Enclosures of the pair sets that one plan builds, from a lower and an
    upper linear function of x1 per unit (``symbolic_bounds``).

    ``stages[(t, l)]`` bounds the pre-activations of stage (t, l), within
    the table's interval; ``states[t]`` bounds x_t for t in 1..T, x_1 by
    the domain hull.  Both hold for every point of the sets with exact rows,
    so what they rule out is out of the sets.  Feasibility decisions allow
    each row FEAS_TOL of slack, which can carry a point a little past them,
    so the bounds decide something only by a gap of more than
    ENCLOSURE_MARGIN: a leaf or an overlap that only the slack admits is
    then found as a search from the root finds it.
    """

    stages: dict
    states: dict

    def pins(self, t: int, layer: int) -> np.ndarray:
        """Per unit of stage (t, layer), the value its binary must take if
        encoded exactly: +1 (the positive segment) when its pre-activation
        stays above ENCLOSURE_MARGIN, -1 when it stays below -ENCLOSURE_MARGIN,
        else 0 (free)."""
        iv = self.stages[(t, layer)]
        return np.where(iv.lower > ENCLOSURE_MARGIN, 1.0,
                        np.where(iv.upper < -ENCLOSURE_MARGIN, -1.0, 0.0))


def disjoint(a: IntervalVector, b: IntervalVector) -> bool:
    """Are the boxes apart by more than ENCLOSURE_MARGIN in some coordinate?"""
    return bool(np.any(a.lower > b.upper + ENCLOSURE_MARGIN)
                or np.any(b.lower > a.upper + ENCLOSURE_MARGIN))


def _widen(F: np.ndarray, err: np.ndarray) -> np.ndarray:
    """F with its lower functions lowered and its upper ones raised by err,
    each offset then rounded outward by one ulp."""
    F[0, :, -1] = np.nextafter(F[0, :, -1] - err, -np.inf)
    F[1, :, -1] = np.nextafter(F[1, :, -1] + err, np.inf)
    return F


def _concretize(F: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least value of each lower function and greatest of each upper one
    over the cube, rounded outward, and the size (the largest |f|) of each."""
    spread, offset = np.abs(F[..., :-1]).sum(axis=-1), F[..., -1]
    size = spread + np.abs(offset)
    err = F.shape[-1] * _EPS * size
    return (np.nextafter(offset[0] - spread[0] - err[0], -np.inf),
            np.nextafter(offset[1] + spread[1] + err[1], np.inf), size)


def symbolic_bounds(m: ClosedLoopRnn, X: IntervalVector, plan: "RelaxationPlan"
                    ) -> SymbolicBounds:
    """Enclosures of the pair sets that ``plan`` builds over a domain inside
    the box X, from linear bounds in x1 carried through the unrolled loop.

    The box is written x1 = mid + rad * xi over the cube xi in [-1, 1]^n,
    rad rounded up so that it covers X.  Each unit holds a lower and an
    upper linear function of xi, one array F of shape (2, width, n+1): F[0]
    the lower functions, F[1] the upper ones, the last column their
    offsets.  The recurrent input is zero at step 1.  An affine stage
    combines them by the signs of its weights; a ReLU stage applies, per
    unit, the rule of the set the plan encodes, over [l, u], the unit's
    concretized bounds within its table interval [alpha, beta]:

    - a unit encoded exactly takes DeepPoly's rules (Singh et al., POPL
      2019): y = z when l >= 0, y = 0 when u <= 0, else the chord
      u (z - l) / (u - l) above and z or 0 below, whichever leaves the
      smaller triangle;
    - a relaxed unit takes its triangle over the table interval, as the
      set does: the chord beta (z - alpha) / (beta - alpha) above whatever
      l and u are, and the same lower rule.  Its output can rise above
      relu(u), so each state enclosure is the concretized post-activation
      bounds, capped by relu(u), or beta at a relaxed unit.

    The set encodes every unit over its table interval, or over an exact
    hull inside it (``state_pairs``'s ``hull_mode``), so the set's
    pre-activations lie in [alpha, beta], and both rules hold for either.
    Every combination and concretization is widened by a bound on its
    floating-point error and rounded outward with ``np.nextafter``.
    """
    n = m.state_dim
    if X.dim != n:
        raise ValueError("domain hull dimension mismatch")
    stages: dict = {}
    states = {1: X}

    def affine(inp, Wx, v, h, Wh):
        F, W = (inp, Wx) if h is None else (np.concatenate([h, inp], axis=1),
                                            np.hstack([Wh, Wx]))
        out = np.maximum(W, 0.0) @ F + np.minimum(W, 0.0) @ F[::-1]
        out[..., -1] += v
        size = np.abs(F).sum(axis=-1).max(axis=0)  # of each input over the cube
        return _widen(out, (W.shape[1] + 2) * _EPS * (np.abs(W) @ size + np.abs(v)))

    def relu(F, t, layer):
        table = plan.table.stages[(t, layer)]
        low, high, size = _concretize(F)
        l, u = np.maximum(low, table.lower), np.minimum(high, table.upper)
        stages[(t, layer)] = IntervalVector(l, u)
        relaxed = plan.relaxed(t, layer)
        pos, neg = l >= 0.0, u <= 0.0
        chord = relaxed | ~(pos | neg)
        a, b = np.where(relaxed, table.lower, l), np.where(relaxed, table.upper, u)
        s = np.where(chord, b / np.where(chord, b - a, 1.0), pos)
        c = np.where(chord, -s * a, 0.0)
        out = np.stack([pos | ~neg & (u > -l), s])[..., None] * F
        out[1, :, -1] += c
        out = _widen(out, 4 * _EPS * (s * size[1] + np.abs(c) + chord * b))
        if layer > m.num_layers:
            low, high, _ = _concretize(out)
            cap = np.where(relaxed, table.upper, np.maximum(u, 0.0))
            states[t + 1] = IntervalVector(np.maximum(low, np.maximum(l, 0.0)),
                                           np.minimum(high, cap))
        return out

    mid = 0.5 * (X.lower + X.upper)
    rad = np.nextafter(np.maximum(X.upper - mid, mid - X.lower), np.inf)
    x1 = np.zeros((2, n, n + 1))
    x1[:, np.arange(n), np.arange(n)] = rad
    x1[..., -1] = mid
    for _ in m.unroll(x1, plan.table.horizon - 1, affine, relu):
        pass
    return SymbolicBounds(stages, states)
