"""Safety verification of closed-loop RNNs and unsafe-sequence construction.

Safety over a horizon reduces to emptiness of per-step intersections: the
system is safe if every forward reachable set misses the unsafe region, or
equivalently if every backward reachable set of the unsafe region misses the
initial set.  Both conditions are sufficient; with all-exact plans they are
also necessary.  A step whose state enclosure (``ReachSeries.symbolic``)
the unsafe set's generator hull misses is empty without a set or an LP.  A
non-empty intersection is confirmed by simulating sampled candidate initial
states, which splits "not verified safe" into Unsafe (a concrete
counterexample exists) and Unknown (relaxation artifact).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum

import numpy as np

from .bounds import disjoint
from .errors import EmptySeedError
from .model import simulate
from .reach import ReachSeries, brs, frs
from .sets import HybridZonotope

WITNESS_SAMPLES = 16


class Safety(Enum):
    SAFE = "safe"
    UNSAFE = "unsafe"
    UNKNOWN = "unknown"


@dataclass(frozen=True)
class SafetyVerdict:
    status: Safety
    evidence: tuple                      # ((t, intersection_empty), ...)
    witnesses: tuple = ()                # ((t, x1), ...) confirmed by simulation

    def to_json_dict(self) -> dict:
        return {
            "status": self.status.value,
            "evidence": [{"t": t, "empty": bool(e)} for t, e in self.evidence],
            "witnesses": [{"t": t, "x1": np.asarray(x).tolist()}
                          for t, x in self.witnesses],
        }


@dataclass(frozen=True)
class UnsafeSequenceSet:
    """Initial states reaching the unsafe region at step t, plus the forward
    images that make up the full sequence set seed x R_2(seed) x ... x R_t(seed)."""

    t: int
    seed_set: HybridZonotope
    sequence_sets: tuple = field(repr=False)
    seed_samples: np.ndarray = field(default=None, repr=False)


def _confirm(series: ReachSeries, candidates: np.ndarray, unsafe: HybridZonotope,
             t: int):
    """First sampled initial state whose simulated step-t state is in the set
    (``contains_point``, at FEAS_TOL like every feasibility decision)."""
    for x1 in candidates:
        traj = simulate(series.model, x1, t)
        if unsafe.contains_point(traj.states[t - 1]):
            return x1
    return None


def _verdict(series, unsafe, candidates: dict, seed):
    """Verdict from the candidate initial states ``candidates[t]`` of each
    step t, None where the step is ruled out: Safe when every set is empty,
    else Unsafe when a sample of one is confirmed by simulation, else
    Unknown."""
    evidence = [(t, Z is None or Z.is_empty()) for t, Z in candidates.items()]
    witnesses = []
    for t, empty in evidence:
        if empty:
            continue
        cands = candidates[t].sample_points(WITNESS_SAMPLES, seed + t)
        x1 = _confirm(series, cands, unsafe, t)
        if x1 is not None:
            witnesses.append((t, x1))
    if all(empty for _, empty in evidence):
        status = Safety.SAFE
    elif witnesses:
        status = Safety.UNSAFE
    else:
        status = Safety.UNKNOWN
    return SafetyVerdict(status, tuple(evidence), tuple(witnesses))


def _candidates(series: ReachSeries, unsafe: HybridZonotope, build) -> dict:
    """``build(t)`` for each step 2..T whose state enclosure
    (``SymbolicBounds.states``) the unsafe set's generator hull does not
    miss (``disjoint``), None for the others: their step-t BRS is empty,
    and needs neither a set nor an LP."""
    hull = unsafe.interval_hull("generator_relaxed")
    return {t: None if disjoint(series.symbolic.states[t], hull) else build(t)
            for t in range(2, series.horizon + 1)}


def _initial_overlap(X1: HybridZonotope, unsafe: HybridZonotope, seed: int):
    """Unsafe-at-step-1 verdict when the initial set already meets the
    unsafe set; none, without an LP, when their generator hulls are apart
    (``disjoint``)."""
    if disjoint(X1.interval_hull("generator_relaxed"),
                unsafe.interval_hull("generator_relaxed")):
        return None
    overlap = X1.generalized_intersect(unsafe)
    if overlap.is_empty():
        return None
    witness = overlap.sample_points(1, seed)[0]
    return SafetyVerdict(Safety.UNSAFE, ((1, False),), ((1, witness),))


def verify_forward(series: ReachSeries, unsafe: HybridZonotope,
                   seed: int = 0) -> SafetyVerdict:
    """Forward safety condition on a series built from the initial set.

    Checks emptiness of FRS_t intersected with the unsafe region for
    t = 2..T, the series' horizon, which is empty exactly when the step-t
    BRS of the unsafe region over this series is.  All empty means Safe.
    Otherwise initial states from that BRS are sampled and simulated; a
    confirmed trajectory gives Unsafe with that witness, no confirmation
    gives Unknown.  The ``verify`` command runs this route first, and a
    Safe or Unsafe verdict here is its verdict: the condition is sufficient,
    and a witness is a simulated counterexample.
    """
    early = _initial_overlap(series.domain, unsafe, seed)
    if early is not None:
        return early
    candidates = _candidates(series, unsafe, lambda t: brs(series, unsafe, t))
    return _verdict(series, unsafe, candidates, seed)


def verify_backward(series: ReachSeries, unsafe: HybridZonotope,
                    X1: HybridZonotope, seed: int = 0) -> SafetyVerdict:
    """Backward safety condition on a series built from the state domain.

    Checks emptiness of BRS_t(unsafe) intersected with X1 for t = 2..T, the
    series' horizon; on exact plans the verdict agrees with the forward route.
    The ``verify`` command runs this route only after an Unknown forward
    verdict.  On a series built over X1 itself its sets are the forward
    route's, and what it adds is a witness search that samples BRS_t
    intersected with X1, not BRS_t, and so draws other candidate initial
    states.
    """
    early = _initial_overlap(X1, unsafe, seed)
    if early is not None:
        return early
    candidates = _candidates(series, unsafe,
                             lambda t: brs(series, unsafe, t).generalized_intersect(X1))
    return _verdict(series, unsafe, candidates, seed)


def unsafe_sequences(series: ReachSeries, unsafe: HybridZonotope,
                     X1: HybridZonotope, t: int, k: int = 10,
                     seed: int = 0) -> UnsafeSequenceSet:
    """Unsafe state sequences of length t as a seed set plus forward images.

    The seed set collects the initial states in X1 that reach the unsafe
    region at step t.  Requires an all-exact plan so that every sampled seed's
    simulated trajectory is guaranteed to enter the unsafe set; the samples
    are re-checked by simulation.

    Raises:
        EmptySeedError: if no initial state in X1 reaches the unsafe region.
    """
    if not series.plan.all_exact:
        raise ValueError("unsafe sequences require an all-exact plan")
    seed_hz = brs(series, unsafe, t).generalized_intersect(X1)
    if seed_hz.is_empty():
        raise EmptySeedError(f"no initial state reaches the set at step {t}")
    samples = seed_hz.sample_points(k, seed)
    for x1 in samples:
        traj = simulate(series.model, x1, t)
        if not unsafe.contains_point(traj.states[t - 1]):
            raise AssertionError("sampled seed failed simulation confirmation; "
                                 "exact-plan invariant violated")
    sequence = [seed_hz] + [frs(series, seed_hz, step) for step in range(2, t + 1)]
    return UnsafeSequenceSet(t, seed_hz, tuple(sequence), samples)
