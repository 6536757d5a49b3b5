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

from .bounds import BoundsTable, SymbolicBounds, symbolic_bounds
from .errors import EmptyDomainError
from .intervals import IntervalVector
from .model import ClosedLoopRnn
from .relu import relu_layer_output
from .sets import ComplexityRecord, HybridZonotope


@dataclass(frozen=True)
class PlanEntry:
    """One unstable ReLU unit: location, bounds, score and whether the plan
    keeps its exact encoding (else its triangle)."""

    t: int
    layer: int
    neuron: int
    alpha: float
    beta: float
    score: float
    exact: bool


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
            if (e.t, e.layer) == (t, layer) and not e.exact:
                mask[e.neuron] = True
        return mask

    @property
    def all_exact(self) -> bool:
        return all(e.exact for e in self.entries)

    def counts(self, t: int) -> tuple[int, int]:
        """(n_unstable, n_exact) of the step-t pair set: the unstable units of
        its stages, hidden and output stages at steps 1..t-1, and how many of
        them the plan keeps exact."""
        if not 2 <= t <= self.table.horizon:
            raise IndexError(f"step {t} outside table horizon 2..{self.table.horizon}")
        exact = [e.exact for e in self.entries if e.t <= t - 1]
        return len(exact), sum(exact)

    def to_json_list(self) -> list:
        return [{"t": e.t, "layer": e.layer, "neuron": e.neuron,
                 "alpha": e.alpha, "beta": e.beta, "score": e.score,
                 "label": "exact" if e.exact else "relaxed"} for e in self.entries]


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
    entries = tuple(PlanEntry(t, layer, i, alpha, beta, score, rank < n_b)
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
    backward route only after an Unknown forward verdict.  ``symbolic``
    holds the enclosures of the symbolic pass over the plan
    (``symbolic_bounds``), from which ``verify`` rules out steps.
    """

    model: ClosedLoopRnn
    domain: HybridZonotope
    pairs: dict
    plan: RelaxationPlan
    hull_mode: str
    symbolic: SymbolicBounds

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


def _stage_interval(Z: HybridZonotope, iv: IntervalVector, hull_mode: str,
                    scope: dict) -> IntervalVector:
    """The intervals a ReLU stage over Z encodes, given its table's ``iv``.

    In ``exact`` mode only the units whose table interval is unstable get
    LP bounds: the exact hull of their coordinates (``interval_hull``, their
    min and max), its LPs warm in ``scope``, where every stage set on the
    same rows finds the same FiberLp.  Every other unit keeps its table
    interval: ``relu_layer_output`` reads a stable unit only for its sign
    class, and the exact hull lies inside the table's sound enclosure, so it
    could not change that class.
    """
    if hull_mode == "exact":
        unstable = np.flatnonzero(iv.straddles_zero())
        if unstable.size:
            hull = Z.project(unstable).interval_hull("exact", scope)
            lower, upper = iv.lower.copy(), iv.upper.copy()
            lower[unstable], upper[unstable] = hull.lower, hull.upper
            iv = IntervalVector(lower, upper)
    elif hull_mode != "table":
        raise ValueError(f"unknown hull mode: {hull_mode!r}")
    return iv


def state_pairs(m: ClosedLoopRnn, X: HybridZonotope, plan: RelaxationPlan,
                hull_mode: str = "table") -> ReachSeries:
    """Propagate the domain once, collecting the pair set of every step up
    to the horizon of the plan's bounds table.

    Step 1 maps the domain through each layer directly (all initial hidden
    states are zero); later steps couple h_{t-1}^(l) with h_t^(l-1) through a
    constrained product before the layer's linear map
    (``ClosedLoopRnn.unroll``).  ReLU stages use the plan's relaxed masks
    with intervals from its bounds table (``hull_mode="table"``, the
    default, which solves no LP) or, for the units the table leaves
    unstable, from the stage set's exact interval hull ("exact",
    ``_stage_interval``); the table must then enclose every stage set, as
    ``propagate_intervals`` over a hull of X does.  A ReLU stage that adds
    no unstable unit leaves the next stage set on the same rows, which then
    shares their leaves and, through one scope for the whole call, their
    FiberLp: its LPs start warm.  Those sessions live only inside this call.
    Every constrained product's prefix condition is asserted, not assumed.

    The symbolic pass (``symbolic_bounds``) runs once, over the generator
    hull of X, and the series keeps its enclosures.  The binaries of the
    exact units it proves stable go with the rows of each stage set that
    adds units, as a partial candidate: a leaf search on those rows, or on
    rows that ``generalized_intersect`` builds on them, pins them.

    Raises:
        EmptyDomainError: if X is empty.
    """
    if X.dim != m.state_dim:
        raise ValueError("domain dimension must equal the model state dimension")
    if X.is_empty():
        raise EmptyDomainError("state domain is empty")
    symbolic = symbolic_bounds(m, X.interval_hull("generator_relaxed"), plan)
    scope: dict = {}  # the FiberLp of each row system, for the stage hulls
    pins = [np.zeros(X.n_b)]  # the binaries built so far, X's free

    def affine(inp, Wx, v, h, Wh):
        if h is None:
            return inp.affine_map(Wx, v)
        return h.constrained_product(inp).affine_map(np.hstack([Wh, Wx]), v)

    def relu(Z, t, layer):
        iv = _stage_interval(Z, plan.table.stages[(t, layer)], hull_mode, scope)
        relaxed = plan.relaxed(t, layer)
        out = relu_layer_output(Z, iv, relaxed)
        pins.append(symbolic.pins(t, layer)[iv.straddles_zero() & ~relaxed])
        if out._rows is not Z._rows:
            candidate = np.concatenate(pins)
            if candidate.any():
                out._rows.candidates = (candidate,)
        return out

    pairs = {t + 1: X.constrained_product(state)
             for t, state, _ in m.unroll(X, plan.table.horizon - 1, affine, relu)}
    return ReachSeries(m, X, pairs, plan, hull_mode, symbolic)


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


def predict_complexity(domain: ComplexityRecord, operand: ComplexityRecord, n_t: int,
                       n_b: int, n: int) -> tuple[ComplexityRecord, ComplexityRecord]:
    """Closed-form representation sizes of the step-t pair set and of the set
    that pins one of its blocks to ``operand``: the initial set for an FRS,
    the target for a BRS.

    ``n_t`` is the number of unstable units contributing to the pair set and
    ``n_b`` how many of them are encoded exactly (capped at ``n_t``): each
    exact unit adds (4, 1, 3), each relaxed unit (5, 0, 3); pinning a block
    adds the operand's sizes plus n coupling rows.

    Returns:
        (pair, pinned) complexity records.
    """
    if n_t < 0 or n_b < 0:
        raise ValueError("counts must be nonnegative")
    e = min(n_b, n_t)
    pair = ComplexityRecord(domain.n_g + 5 * n_t - e, domain.n_b + e,
                            domain.n_c + 3 * n_t)
    return pair, pair + operand + ComplexityRecord(0, 0, n)


def predicted_for_step(series: ReachSeries, t: int, operand: ComplexityRecord
                       ) -> tuple[ComplexityRecord, ComplexityRecord]:
    """Prediction for step t of a concrete series, using the plan's realized
    per-step unstable and exact counts (a horizon-global ranking may spend
    part of its budget on stages after step t-1)."""
    n_t, e_t = series.plan.counts(t)
    return predict_complexity(series.domain.complexity, operand, n_t, e_t,
                              series.model.state_dim)
