"""Sound per-neuron interval enclosures for every (step, layer) pre-activation.

Plain interval arithmetic is pushed through the closed-loop recursion: each
pre-activation interval is Wh * [h_{t-1}] + Wx * [h_t^(l-1)] + vh using
midpoint/radius interval matrix-vector products, post-activations clamp the
bounds at zero, and the output interval re-enters as the next state interval.
Any sound enclosure preserves exactness of the downstream state-pair set
construction; tightness only affects ranking and relaxation quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .intervals import IntervalVector
from .model import ClosedLoopRnn


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

    @cached_property
    def _unstable(self) -> tuple:
        return tuple((t, layer, int(i)) for (t, layer), iv in self.stages.items()
                     for i in np.flatnonzero(iv.straddles_zero()))

    def unstable_index(self) -> list[tuple[int, int, int]]:
        """Every (t, layer, i) whose interval straddles zero, in stage order;
        worked out once per table, since a run asks for it at every step."""
        return list(self._unstable)


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
    h_prev = [IntervalVector(np.zeros(w), np.zeros(w)) for w in m.widths]
    state = X
    for t in range(1, T):
        h_cur = []
        inp = state
        for layer_no, layer in enumerate(m.layers, start=1):
            pre = _interval_add(_interval_affine(layer.Wh, h_prev[layer_no - 1]),
                                _interval_affine(layer.Wx, inp, layer.vh))
            stages[(t, layer_no)] = pre
            post = _interval_relu(pre)
            h_cur.append(post)
            inp = post
        pre_y = _interval_affine(m.Wy, inp, m.vy)
        stages[(t, m.num_layers + 1)] = pre_y
        state = _interval_relu(pre_y)
        h_prev = h_cur
    return BoundsTable(T, stages)


def count_unstable(tbl: BoundsTable, t: int) -> int:
    """Unstable ReLU count over all stages contributing to the step-t pair set,
    i.e. hidden and output stages at steps 1..t-1."""
    if not 2 <= t <= tbl.horizon:
        raise IndexError(f"step {t} outside table horizon 2..{tbl.horizon}")
    return sum(1 for (ts, _, _) in tbl.unstable_index() if ts <= t - 1)
