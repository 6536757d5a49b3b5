from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hzreach.bounds
from hzreach import (EmptySeedError, Safety, exact_plan, frs, propagate_intervals,
                     rank_unstable, simulate, state_pairs, unsafe_sequences,
                     verify_backward, verify_forward)
from hzreach.bounds import disjoint
from hzreach.systems import demo_initial_box, demo_system, gate_system

from conftest import box, grazing_boxes, random_case, random_system, unit_directions


def _series(m, X, T, n_b=None):
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    plan = exact_plan(tbl) if n_b is None else rank_unstable(tbl, n_b)
    return state_pairs(m, X, plan)


# -- analytic half-system fixtures ------------------------------------------

def test_half_safe_forward(half):
    X1 = box([0.5], [1.0])
    verdict = verify_forward(_series(half, X1, 5), box([2.0], [3.0]))
    assert verdict.status is Safety.SAFE
    assert [t for t, _ in verdict.evidence] == [2, 3, 4, 5]
    assert all(empty for _, empty in verdict.evidence)
    assert verdict.witnesses == ()


def test_half_safe_backward(half):
    X = box([0.0], [1.0])
    verdict = verify_backward(_series(half, X, 5), box([2.0], [3.0]),
                              box([0.5], [1.0]))
    assert verdict.status is Safety.SAFE


def test_half_unsafe_forward_with_confirmed_witness(half):
    X1 = box([0.5], [1.0])
    unsafe = box([0.2], [0.21])
    verdict = verify_forward(_series(half, X1, 5), unsafe)
    assert verdict.status is Safety.UNSAFE
    steps = {t for t, empty in verdict.evidence if not empty}
    assert 3 in steps  # states at t=3 span [0.125, 0.25]
    t, x1 = verdict.witnesses[0]
    traj = simulate(half, x1, t)
    assert unsafe.contains_point(traj.states[t - 1])
    # the seed interval is analytic: 0.25 * x1 in [0.2, 0.21]
    if t == 3:
        assert 0.8 - 1e-9 <= x1[0] <= 0.84 + 1e-9


def test_half_unsafe_backward_seed_interval(half):
    X = box([0.0], [1.0])
    X1 = box([0.5], [1.0])
    unsafe = box([0.2], [0.21])
    series = _series(half, X, 5)
    verdict = verify_backward(series, unsafe, X1)
    assert verdict.status is Safety.UNSAFE
    seq = unsafe_sequences(series, unsafe, X1, 3)
    assert seq.seed_set.support([1.0]) == pytest.approx(0.84, abs=1e-6)
    assert -seq.seed_set.support([-1.0]) == pytest.approx(0.8, abs=1e-6)


def test_backward_vacuously_safe_when_target_unreachable(half):
    X = box([0.0], [1.0])
    verdict = verify_backward(_series(half, X, 4), box([5.0], [6.0]),
                              box([0.2], [0.8]))
    assert verdict.status is Safety.SAFE


def test_initial_overlap_is_unsafe_at_step_one(half):
    X1 = box([0.5], [1.0])
    verdict = verify_forward(_series(half, X1, 3), box([0.9], [1.5]))
    assert verdict.status is Safety.UNSAFE
    assert verdict.evidence[0] == (1, False)
    t, x1 = verdict.witnesses[0]
    assert t == 1 and 0.9 - 1e-7 <= x1[0] <= 1.0 + 1e-7


# -- Unknown from over-approximation ------------------------------------------

def test_relaxed_margin_yields_unknown_backward(gate):
    # Over the full domain the gate's pre-activation straddles zero, so with
    # N_b=0 the pair set pairs x1 in [0.8, 1] with relaxed images up to
    # (1-x1)/2 although the exact image is {0}; an unsafe box inside that
    # margin overlaps the BRS without any confirming trajectory.
    X = box([0.0], [1.0])
    X1 = box([0.8], [1.0])
    unsafe = box([0.05], [0.08])
    verdict = verify_backward(_series(gate, X, 2, n_b=0), unsafe, X1)
    assert verdict.status is Safety.UNKNOWN
    assert verdict.evidence == ((2, False),)
    assert verdict.witnesses == ()


def test_exact_plan_resolves_unknown_to_safe(gate):
    X = box([0.0], [1.0])
    verdict = verify_backward(_series(gate, X, 2), box([0.05], [0.08]),
                              box([0.8], [1.0]))
    assert verdict.status is Safety.SAFE


def test_relaxed_margin_yields_unknown_forward():
    # 2-D demo system: the box misses every exact FRS but meets the relaxed
    # FRS at t=4 (validated below), so the forward route cannot confirm a
    # witness and must report Unknown.
    from hzreach import frs
    from hzreach.systems import demo_initial_box, demo_system
    m = demo_system()
    X1 = box(*demo_initial_box())
    unsafe = box([0.30, 0.02], [0.35, 0.06])
    exact_series = _series(m, X1, 4)
    for t in (2, 3, 4):
        assert frs(exact_series, X1, t).generalized_intersect(unsafe).is_empty()
    relaxed_series = _series(m, X1, 4, n_b=0)
    verdict = verify_forward(relaxed_series, unsafe)
    assert verdict.status is Safety.UNKNOWN
    assert any(not empty for _, empty in verdict.evidence)
    assert verify_forward(exact_series, unsafe).status is Safety.SAFE


def test_relaxation_is_one_sided(gate):
    # relaxation may turn Safe into Unknown but never flips Safe/Unsafe
    X1 = box([0.8], [1.0])
    truly_unsafe = box([0.0], [0.01])   # contains the exact image {0}
    exact_v = verify_forward(_series(gate, X1, 2), truly_unsafe)
    relaxed_v = verify_forward(_series(gate, X1, 2, n_b=0), truly_unsafe)
    assert exact_v.status is Safety.UNSAFE
    assert relaxed_v.status is Safety.UNSAFE
    safe_box = box([0.4], [0.45])
    assert verify_forward(_series(gate, X1, 2), safe_box).status is Safety.SAFE
    assert verify_forward(_series(gate, X1, 2, n_b=0), safe_box).status in (
        Safety.SAFE, Safety.UNKNOWN)


# -- forward/backward agreement ----------------------------------------------

def test_forward_backward_agree_on_exact_plans():
    rng = np.random.default_rng(0)
    agreements = 0
    for trial in range(8):
        m, X = random_system(rng, n=1, L=int(rng.integers(1, 3)))
        hull = X.interval_hull("exact")
        span = hull.upper - hull.lower
        X1 = box(hull.lower + 0.1 * span, hull.lower + 0.35 * span)
        center = simulate(m, X1.c, 3).states[2]
        unsafe = box(center - 0.02 * span - 1e-3, center + 0.02 * span + 1e-3)
        if not X1.generalized_intersect(unsafe).is_empty():
            continue
        T = 4
        fwd = verify_forward(_series(m, X1, T), unsafe)
        bwd = verify_backward(_series(m, X, T), unsafe, X1)
        assert fwd.status is bwd.status
        agreements += 1
    assert agreements >= 4


@lru_cache(maxsize=None)
def _shared_series(case: str, n_b):
    """A series whose domain is the initial set, with that set's bounds."""
    if case == "gate":
        m, lo, hi, T = gate_system(), [0.0], [1.0], 4
    else:
        lo, hi = demo_initial_box() if case == "demo" else ([0.0, 0.6], [1.0, 1.0])
        m, T = demo_system(0), 3
    return _series(m, box(lo, hi), T, n_b), np.asarray(lo), np.asarray(hi)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), case=st.sampled_from(["demo", "band", "gate"]),
       n_b=st.sampled_from([None, 0, 1, 3]))
def test_routes_agree_on_a_series_over_the_initial_set(seed, case, n_b):
    # a series built over X1 has every BRS_t inside X1, so the backward
    # condition tests the forward condition's sets: with exact or relaxed
    # plans both routes give one evidence list, and so Safe on both or on
    # neither.  Exact plans give one status too.  Relaxed ones may not: each
    # route draws its own candidates, so one can confirm a witness where the
    # other finds none; the forward route's witnesses confirm the backward
    # condition's overlap as well, which is what lets verify report them for both
    series, lo, hi = _shared_series(case, n_b)
    X1 = series.domain
    rng = np.random.default_rng(seed)
    t = int(rng.integers(2, series.horizon + 1))
    x_t = simulate(series.model, rng.uniform(lo, hi), t).states[t - 1]
    half_width = rng.uniform(0.005, 0.1, size=lo.size)
    center = x_t + rng.uniform(-2.0, 2.0, size=lo.size) * half_width
    unsafe = box(center - half_width, center + half_width)
    fwd = verify_forward(series, unsafe, seed=seed % 1000)
    bwd = verify_backward(series, unsafe, X1, seed=seed % 1000)
    assert fwd.evidence == bwd.evidence
    assert (fwd.status is Safety.SAFE) == (bwd.status is Safety.SAFE)
    if series.plan.all_exact:
        assert fwd.status is bwd.status
    for t, x1 in fwd.witnesses:
        assert X1.contains_point(x1)
        assert unsafe.contains_point(simulate(series.model, x1, t).states[t - 1])


# -- the enclosure check and the pins decide nothing on their own -----------

def _verdict_pairs(m, X, X1, T, n_b, boxes, without_symbolic: bool) -> list:
    """Both routes' verdicts on each box, as JSON, from series built here;
    ``without_symbolic`` builds and verifies with ENCLOSURE_MARGIN at
    infinity, which pins no binary and rules out no step."""
    with pytest.MonkeyPatch.context() as mp:
        if without_symbolic:
            mp.setattr(hzreach.bounds, "ENCLOSURE_MARGIN", np.inf)
        fwd_series, bwd_series = _series(m, X1, T, n_b), _series(m, X, T, n_b)
        return [(verify_forward(fwd_series, U).to_json_dict(),
                 verify_backward(bwd_series, U, X1).to_json_dict()) for U in boxes]


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), system=st.sampled_from(["random", "demo"]),
       share=st.sampled_from([0.0, 0.5, 1.0]))
def test_enclosure_check_and_pins_leave_verdicts_unchanged(seed, system, share):
    # with and without the symbolic pass's decisions, both routes give the
    # same status, evidence and witnesses, Unknown verdicts included: on
    # boxes about simulated states, far boxes, and boxes that graze the
    # forward set within a few FEAS_TOL or ENCLOSURE_MARGIN, where a margin
    # too small for the rows' slack would call a step empty that the LPs
    # do not
    rng = np.random.default_rng(seed)
    m, X = random_case(rng, system)
    T = int(rng.integers(2, 5))
    n_b = round(share * len(propagate_intervals(
        m, X.interval_hull("generator_relaxed"), T).unstable_index()))
    hull = X.interval_hull("exact")
    span = hull.upper - hull.lower
    lo, hi = hull.lower + 0.2 * span, hull.lower + 0.7 * span
    X1 = box(lo, hi)
    t = int(rng.integers(2, T + 1))
    x_t = simulate(m, rng.uniform(lo, hi), t).states[t - 1]
    boxes = [box(x_t - 0.02, x_t + 0.02), box(x_t + 0.3, x_t + 0.4), box(lo - 0.1, lo)]
    boxes += grazing_boxes(frs(_series(m, X1, T, n_b), X1, t))
    assert (_verdict_pairs(m, X, X1, T, n_b, boxes, False)
            == _verdict_pairs(m, X, X1, T, n_b, boxes, True))


@pytest.mark.parametrize("case", ["demo graze", "demo margin", "band margin", "gate"])
def test_enclosure_check_keeps_grazing_and_unknown_verdicts(case):
    # the benchmark's grazing box, 5e-8 beyond the demo FRS_5, which only the
    # rows' FEAS_TOL slack meets, and boxes that only relaxed sets meet,
    # whose verdicts are Unknown: the same verdicts with and without the
    # symbolic pass's decisions, which rule out some of their steps
    if case == "gate":
        m, X, X1, T, n_b = gate_system(), box([0.0], [1.0]), box([0.8], [1.0]), 2, 0
        unsafe = box([0.05], [0.08])
    elif case.startswith("demo"):
        m, X, T = demo_system(), box(*demo_initial_box()), 5 if case == "demo graze" else 4
        X1, n_b = X, None if case == "demo graze" else 0
        unsafe = (box([0.21032977241594486 + 5e-8, -0.02], [0.26, 0.02])
                  if case == "demo graze" else box([0.30, 0.02], [0.35, 0.06]))
    else:
        m, X, X1, T, n_b = demo_system(0), box([0, 0], [1, 1]), box([0, 0.6], [1, 1]), 3, 0
        unsafe = box([0.4, 0.1], [0.45, 0.15])
    (fwd, bwd), = _verdict_pairs(m, X, X1, T, n_b, [unsafe], False)
    assert [(fwd, bwd)] == _verdict_pairs(m, X, X1, T, n_b, [unsafe], True)
    expected = "unsafe" if case == "demo graze" else "unknown"
    assert expected in (fwd["status"], bwd["status"])
    hull = unsafe.interval_hull("generator_relaxed")
    series = _series(m, X1, T, n_b)
    assert case == "gate" or any(disjoint(series.symbolic.states[t], hull)
                                 for t in range(2, T + 1))


def test_safe_verdict_backed_by_simulation_smoke(half):
    X1 = box([0.5], [1.0])
    unsafe = box([2.0], [3.0])
    verdict = verify_forward(_series(half, X1, 5), unsafe)
    assert verdict.status is Safety.SAFE
    rng = np.random.default_rng(1)
    for _ in range(1000):
        x1 = rng.uniform(0.5, 1.0, size=1)
        traj = simulate(half, x1, 5)
        assert not any(unsafe.contains_point(s) for s in traj.states)


# -- unsafe sequences ----------------------------------------------------

def test_unsafe_sequences_half_system(half):
    X = box([0.0], [1.0])
    X1 = box([0.5], [1.0])
    unsafe = box([0.2], [0.21])
    series = _series(half, X, 5)
    seq = unsafe_sequences(series, unsafe, X1, 3, k=10, seed=4)
    assert len(seq.sequence_sets) == 3
    assert seq.seed_samples.shape == (10, 1)
    for x1 in seq.seed_samples:
        traj = simulate(half, x1, 3)
        assert np.allclose(traj.states[:, 0], [x1[0], 0.5 * x1[0], 0.25 * x1[0]])
        assert unsafe.contains_point(traj.states[2])
    # forward images match the halving dynamics on the seed interval
    assert seq.sequence_sets[1].support([1.0]) == pytest.approx(0.42, abs=1e-6)
    assert seq.sequence_sets[2].support([1.0]) == pytest.approx(0.21, abs=1e-6)


def test_unsafe_sequences_vacuous_target_recovers_initial(half):
    X = box([0.0], [1.0])
    X1 = box([0.5], [1.0])
    series = _series(half, X, 3)
    image = box([0.12], [0.26])   # superset of the exact t=3 image [0.125, 0.25]
    seq = unsafe_sequences(series, image, X1, 3)
    for d in unit_directions(8, 1, seed=5):
        assert seq.seed_set.support(d) == pytest.approx(X1.support(d), abs=1e-6)


def test_unsafe_sequences_empty_seed_raises(half):
    X = box([0.0], [1.0])
    series = _series(half, X, 3)
    with pytest.raises(EmptySeedError):
        unsafe_sequences(series, box([0.9], [0.95]), box([0.5], [1.0]), 3)


def test_unsafe_sequences_require_exact_plan(gate):
    X = box([0.0], [1.0])
    series = _series(gate, X, 2, n_b=0)
    with pytest.raises(ValueError):
        unsafe_sequences(series, box([0.0], [0.5]), box([0.6], [0.9]), 2)


def test_verdict_json_shape(half):
    verdict = verify_forward(_series(half, box([0.5], [1.0]), 3), box([2.0], [3.0]))
    d = verdict.to_json_dict()
    assert d["status"] == "safe"
    assert {e["t"] for e in d["evidence"]} == {2, 3}
    assert d["witnesses"] == []
    assert set(d) == {"status", "evidence", "witnesses"}
