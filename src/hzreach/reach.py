"""State-pair set construction, FRS/BRS extraction and complexity prediction.

The pipeline propagates the state domain through the closed-loop RNN once,
producing for every step t a set of pairs (x_1, x_t) in R^(2n) that share the
factors generated by the same initial state.  Forward and backward reachable
sets are then single generalized intersections with the initial or target
set, so one pass over the horizon serves every query.

A relaxation plan caps the number of binary generators: unstable ReLU units
are ranked by the triangle-area score -alpha*beta/2 across all layers and
steps, the top ``binary_limit`` keep their exact encoding and the rest are
replaced by their convex triangle, trading tightness for complexity.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .bounds import BoundsTable, count_unstable
from .errors import EmptyDomainError
from .intervals import IntervalVector
from .model import ClosedLoopRnn
from .relu import ReluLabel, relu_layer_output
from .sets import ComplexityRecord, HybridZonotope


@dataclass(frozen=True)
class PlanEntry:
    """One unstable ReLU unit: location, bounds, score and chosen encoding."""

    t: int
    layer: int
    neuron: int
    alpha: float
    beta: float
    score: float
    label: ReluLabel


@dataclass(frozen=True)
class RelaxationPlan:
    """The ranked unstable units of ``table``, the top ``binary_limit``
    labeled exact: with the table's horizon and intervals, all that a build
    of the pair sets takes."""

    entries: tuple[PlanEntry, ...]
    binary_limit: int
    table: BoundsTable

    def relaxed(self, t: int, layer: int) -> np.ndarray:
        """Mask of the stage's units that the plan relaxes."""
        mask = np.zeros(self.table.stages[(t, layer)].dim, dtype=bool)
        for e in self.entries:
            if (e.t, e.layer) == (t, layer) and e.label is ReluLabel.RELAXED:
                mask[e.neuron] = True
        return mask

    @property
    def all_exact(self) -> bool:
        return all(e.label is ReluLabel.EXACT for e in self.entries)

    def exact_through(self, t: int) -> int:
        return sum(1 for e in self.entries
                   if e.t <= t - 1 and e.label is ReluLabel.EXACT)

    def to_json_list(self) -> list:
        return [{"t": e.t, "layer": e.layer, "neuron": e.neuron,
                 "alpha": e.alpha, "beta": e.beta, "score": e.score,
                 "label": e.label.name.lower()} for e in self.entries]


def rank_unstable(tbl: BoundsTable, n_b: int) -> RelaxationPlan:
    """Rank unstable units by descending triangle-area score.

    The score of an unstable unit with bounds [alpha, beta] is
    -alpha*beta/2, the area of its relaxation triangle.  Ties break by
    ascending (step, layer, neuron).  The top ``n_b`` units are labeled
    exact, all remaining unstable units relaxed; stable units never enter
    the plan (they add no binaries either way).
    """
    if n_b < 0:
        raise ValueError("binary limit must be nonnegative")
    raw = []
    for (t, layer, i) in tbl.unstable_index():
        iv = tbl.stages[(t, layer)]
        alpha, beta = float(iv.lower[i]), float(iv.upper[i])
        raw.append((t, layer, i, alpha, beta, -alpha * beta / 2.0))
    raw.sort(key=lambda r: (-r[5], r[0], r[1], r[2]))
    entries = tuple(
        PlanEntry(t, layer, i, alpha, beta, score,
                  ReluLabel.EXACT if rank < n_b else ReluLabel.RELAXED)
        for rank, (t, layer, i, alpha, beta, score) in enumerate(raw))
    return RelaxationPlan(entries, n_b, tbl)


def exact_plan(tbl: BoundsTable) -> RelaxationPlan:
    """Plan with every unstable unit encoded exactly (no binary cap)."""
    return rank_unstable(tbl, len(tbl.unstable_index()))


@dataclass(frozen=True)
class ReachSeries:
    """Per-step pair sets plus everything needed to extract FRSs and BRSs.

    ``pairs[t]`` is the step-t pair set: the pairs (x_1, x_t) in R^(2n),
    initial-state block first, then the step-t block.  ``frs`` and ``brs``
    build their set anew on every call.  On a series built over the initial
    set itself every BRS_t lies in that set, so both safety conditions test
    the same sets: ``verify`` then runs the forward route alone, and the
    backward route only after an Unknown forward verdict.
    """

    model: ClosedLoopRnn
    domain: HybridZonotope
    pairs: dict
    plan: RelaxationPlan
    hull_mode: str

    @property
    def horizon(self) -> int:
        return max(self.pairs)

    def pair_set(self, t: int) -> HybridZonotope:
        if t not in self.pairs:
            raise IndexError(f"step {t} outside series range 2..{self.horizon}")
        return self.pairs[t]

    def to_json_dict(self) -> dict:
        return {
            "horizon": self.horizon,
            "hull_mode": self.hull_mode,
            "binary_limit": self.plan.binary_limit,
            "plan": self.plan.to_json_list(),
            "pairs": {str(t): {"set": hz.to_json_dict(),
                               "complexity": list(hz.complexity.astuple())}
                      for t, hz in sorted(self.pairs.items())},
        }


def _stage(Z: HybridZonotope, t: int, layer: int, plan: RelaxationPlan,
           hull_mode: str, scope: dict) -> HybridZonotope:
    """One ReLU stage of the pipeline: its output set.

    The units take the plan's relaxed mask.  In ``exact`` mode only the
    units whose table interval is unstable get LP bounds: the exact hull of
    their coordinates (``interval_hull``, their min and max), its LPs warm
    in ``scope``, where every stage set on the same rows finds the same
    FiberLp.  Every other unit keeps its table interval:
    ``relu_layer_output`` reads a stable unit only for its sign class, and
    the exact hull lies inside the table's sound enclosure, so it could not
    change that class.
    """
    iv = plan.table.stages[(t, layer)]
    if hull_mode == "exact":
        unstable = np.flatnonzero(iv.straddles_zero())
        if unstable.size:
            hull = Z.project(unstable).interval_hull("exact", scope)
            lower, upper = iv.lower.copy(), iv.upper.copy()
            lower[unstable], upper[unstable] = hull.lower, hull.upper
            iv = IntervalVector(lower, upper)
    elif hull_mode != "table":
        raise ValueError(f"unknown hull mode: {hull_mode!r}")
    return relu_layer_output(Z, iv, plan.relaxed(t, layer))


def state_pairs(m: ClosedLoopRnn, X: HybridZonotope, plan: RelaxationPlan,
                hull_mode: str = "table") -> ReachSeries:
    """Propagate the domain once, collecting the pair set of every step up
    to the horizon of the plan's bounds table.

    Step 1 maps the domain through each layer directly (all initial hidden
    states are zero); later steps couple h_{t-1}^(l) with h_t^(l-1) through a
    constrained product before the layer's linear map.  ReLU stages use the
    plan's relaxed masks with intervals from its bounds table
    (``hull_mode="table"``, the default, which solves no LP) or, for the
    units the table leaves unstable, from the stage set's exact interval hull
    ("exact", ``_stage``); the table must then enclose every stage set, as
    ``propagate_intervals`` over a hull of X does.  A ReLU stage that adds no
    unstable unit leaves the next stage set on the same rows, which then
    shares their leaves and, through one scope for the whole call, their
    FiberLp: its LPs start warm.  Those sessions live only inside this call.
    Every constrained product's prefix condition is asserted, not assumed.

    Raises:
        EmptyDomainError: if X is empty.
    """
    if X.dim != m.state_dim:
        raise ValueError("domain dimension must equal the model state dimension")
    if X.is_empty():
        raise EmptyDomainError("state domain is empty")
    pairs: dict = {}
    prev_hidden: list[HybridZonotope] = []
    state_set = X
    scope: dict = {}  # the FiberLp of each row system, for the stage hulls
    for t in range(1, plan.table.horizon):
        new_hidden = []
        inp = state_set
        for layer_no, layer in enumerate(m.layers, start=1):
            if t == 1:
                Z = inp.affine_map(layer.Wx, layer.vh)
            else:
                pair = prev_hidden[layer_no - 1].constrained_product(inp)
                Z = pair.affine_map(np.hstack([layer.Wh, layer.Wx]), layer.vh)
            out = _stage(Z, t, layer_no, plan, hull_mode, scope)
            new_hidden.append(out)
            inp = out
        Zy = inp.affine_map(m.Wy, m.vy)
        state_set = _stage(Zy, t, m.num_layers + 1, plan, hull_mode, scope)
        pairs[t + 1] = X.constrained_product(state_set)
        prev_hidden = new_hidden
    return ReachSeries(m, X, pairs, plan, hull_mode)


def _pin(series: ReachSeries, S: HybridZonotope, t: int, block: int) -> HybridZonotope:
    """Pin one block of the step-t pair set to S and keep the other block."""
    selectors = np.split(np.eye(2 * series.model.state_dim), 2)  # [I 0], [0 I]
    pinned = series.pair_set(t).generalized_intersect(S, selectors[block])
    return pinned.affine_map(selectors[1 - block])


def frs(series: ReachSeries, X1: HybridZonotope, t: int) -> HybridZonotope:
    """Step-t forward reachable set of the initial set X1 (assumed inside the
    series domain): project the pair set onto its second block after pinning
    the first block to X1.  Exact for all-exact plans, a sound superset
    otherwise."""
    return _pin(series, X1, t, 0)


def brs(series: ReachSeries, target: HybridZonotope, t: int) -> HybridZonotope:
    """Step-t backward reachable set of a target within the series domain:
    pin the pair set's second block to the target, keep the first."""
    return _pin(series, target, t, 1)


@dataclass(frozen=True)
class PredictedComplexity:
    pair: ComplexityRecord
    frs: ComplexityRecord
    brs: ComplexityRecord


def predict_complexity(domain: ComplexityRecord, initial: ComplexityRecord,
                       target: ComplexityRecord, n_t: int, n_b: int,
                       n: int) -> PredictedComplexity:
    """Closed-form representation sizes for the step-t pair set, FRS and BRS.

    ``n_t`` is the number of unstable units contributing to the pair set and
    ``n_b`` how many of them are encoded exactly (capped at ``n_t``): each
    exact unit adds (4, 1, 3), each relaxed unit (5, 0, 3); intersecting with
    the initial or target set adds its sizes plus n coupling rows.
    """
    if n_t < 0 or n_b < 0:
        raise ValueError("counts must be nonnegative")
    e = min(n_b, n_t)
    pair = ComplexityRecord(domain.n_g + 5 * n_t - e, domain.n_b + e,
                            domain.n_c + 3 * n_t)
    fwd = ComplexityRecord(pair.n_g + initial.n_g, pair.n_b + initial.n_b,
                           pair.n_c + n + initial.n_c)
    bwd = ComplexityRecord(pair.n_g + target.n_g, pair.n_b + target.n_b,
                           pair.n_c + n + target.n_c)
    return PredictedComplexity(pair, fwd, bwd)


def predicted_for_step(series: ReachSeries, t: int, initial: ComplexityRecord,
                       target: ComplexityRecord) -> PredictedComplexity:
    """Prediction for step t of a concrete series, using the plan's realized
    per-step unstable and exact counts (a horizon-global ranking may spend
    part of its budget on stages after step t-1)."""
    n_t = count_unstable(series.plan.table, t)
    e_t = series.plan.exact_through(t)
    return predict_complexity(series.domain.complexity, initial, target,
                              n_t, e_t, series.model.state_dim)
