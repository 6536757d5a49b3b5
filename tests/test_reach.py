from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzreach import (ComplexityRecord, EmptyDomainError, HybridZonotope,
                     IntervalVector, ReluLabel, brs, exact_plan, frs,
                     predict_complexity, predicted_for_step,
                     propagate_intervals, rank_unstable, simulate, state_pairs)
import hzreach.reach as reach_mod
from hzreach.bounds import BoundsTable
from hzreach.lp import LpSession
from hzreach.relu import relu_layer_output
from hzreach.systems import demo_system

from conftest import (box, flip_system, grid_points, random_system, stages_by_full_hulls,
                      unit_directions)


def _table_with_intervals(pairs):
    """Minimal bounds table of one hidden layer exposing given
    (t, layer) -> (lo, hi) scalars; every other stage is stable."""
    stages = {}
    horizon = 2
    for (t, layer, lo, hi) in pairs:
        stages[(t, layer)] = IntervalVector([lo], [hi])
        horizon = max(horizon, t + 1)
    for t in range(1, horizon):
        for layer in (1, 2):
            stages.setdefault((t, layer), IntervalVector([1.0], [2.0]))
    return BoundsTable(horizon, dict(sorted(stages.items())))


# -- ranking ---------------------------------------------------------------

def test_scores_follow_triangle_area():
    tbl = _table_with_intervals([(1, 1, -1.0, 2.0), (2, 1, -3.0, 0.5),
                                 (3, 1, -0.1, 0.1)])
    plan = rank_unstable(tbl, 3)
    scores = {(e.t, e.layer, e.neuron): e.score for e in plan.entries}
    assert scores[(1, 1, 0)] == pytest.approx(1.0)
    assert scores[(2, 1, 0)] == pytest.approx(0.75)
    assert scores[(3, 1, 0)] == pytest.approx(0.005)
    assert [e.score for e in plan.entries] == sorted(
        (e.score for e in plan.entries), reverse=True)


def test_binary_limit_edge_cases():
    tbl = _table_with_intervals([(1, 1, -1.0, 2.0), (2, 1, -3.0, 0.5),
                                 (3, 1, -0.1, 0.1)])
    all_relaxed = rank_unstable(tbl, 0)
    assert all(e.label is ReluLabel.RELAXED for e in all_relaxed.entries)
    all_exact = rank_unstable(tbl, 3)
    assert all(e.label is ReluLabel.EXACT for e in all_exact.entries)
    assert rank_unstable(tbl, 99).all_exact


def test_equal_scores_tie_break_ascending():
    tbl = _table_with_intervals([(2, 1, -1.0, 1.0), (1, 1, -1.0, 1.0)])
    plan = rank_unstable(tbl, 1)
    assert (plan.entries[0].t, plan.entries[0].label) == (1, ReluLabel.EXACT)
    assert (plan.entries[1].t, plan.entries[1].label) == (2, ReluLabel.RELAXED)
    # the plan carries its table, and each stage's relaxed mask follows the labels
    assert plan.table is tbl
    assert [plan.relaxed(t, layer).tolist() for (t, layer) in tbl.stages] == [
        [False], [False], [True], [False]]


# -- state-pair sets on the analytic half system ------------------------------

def test_half_system_pair_set_members(half):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(half, X.interval_hull("exact"), 3)
    series = state_pairs(half, X, exact_plan(tbl))
    S2 = series.pair_set(2)
    for x in np.linspace(0, 1, 11):
        assert S2.contains_point([x, 0.5 * x])
    assert not S2.contains_point([0.5, 0.4])
    S3 = series.pair_set(3)
    assert S3.contains_point([0.8, 0.2])
    assert not S3.contains_point([0.8, 0.3])


def test_empty_domain_raises(half):
    empty = HybridZonotope(Gc=[[1.0]], c=[0.0], Ac=[[1.0]], b=[3.0])
    tbl = propagate_intervals(half, IntervalVector([0.0], [1.0]), 3)
    with pytest.raises(EmptyDomainError):
        state_pairs(half, empty, exact_plan(tbl))


# -- complexity ---------------------------------------------------------------

def test_predict_complexity_printed_examples():
    base = ComplexityRecord(4, 0, 0)
    none = ComplexityRecord(0, 0, 0)
    exact = predict_complexity(base, none, none, n_t=3, n_b=3, n=2)
    assert exact.pair == ComplexityRecord(16, 3, 9)
    relaxed = predict_complexity(base, none, none, n_t=9, n_b=2, n=2)
    assert relaxed.pair == ComplexityRecord(4 + 43, 2, 27)
    nothing = predict_complexity(base, none, none, n_t=0, n_b=5, n=2)
    assert nothing.pair == base


def test_predict_complexity_reach_terms():
    base = ComplexityRecord(2, 1, 1)
    x1 = ComplexityRecord(3, 0, 2)
    tgt = ComplexityRecord(1, 1, 0)
    pred = predict_complexity(base, x1, tgt, n_t=2, n_b=2, n=3)
    assert pred.frs == ComplexityRecord(2 + 8 + 3, 1 + 2 + 0, 1 + 6 + 3 + 2)
    assert pred.brs == ComplexityRecord(2 + 8 + 1, 1 + 2 + 1, 1 + 6 + 3 + 0)


def test_measured_complexity_matches_prediction_on_random_systems():
    rng = np.random.default_rng(10)
    checked = 0
    for _ in range(6):
        m, X = random_system(rng, n=int(rng.integers(1, 3)), L=int(rng.integers(1, 3)))
        T = int(rng.integers(2, 5))
        tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
        n_total = len(tbl.unstable_index())
        X1 = box(X.c - 0.01, X.c + 0.01)
        for n_b in range(n_total + 2):
            plan = rank_unstable(tbl, n_b)
            series = state_pairs(m, X, plan)
            for t in range(2, T + 1):
                pred = predicted_for_step(series, t, X1.complexity, X1.complexity)
                assert series.pair_set(t).complexity == pred.pair
                assert frs(series, X1, t).complexity == pred.frs
                assert brs(series, X1, t).complexity == pred.brs
                checked += 1
    assert checked > 20


# -- forward / backward reachable sets ----------------------------------------

def test_half_system_frs_analytic(half):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(half, X.interval_hull("exact"), 3)
    series = state_pairs(half, X, exact_plan(tbl))
    R3 = frs(series, box([0.5], [1.0]), 3)
    assert R3.support([1.0]) == pytest.approx(0.25, abs=1e-6)
    assert -R3.support([-1.0]) == pytest.approx(0.125, abs=1e-6)


def test_frs_identity_dynamics_returns_initial_set():
    from hzreach import ClosedLoopRnn, RnnLayer
    m = ClosedLoopRnn((RnnLayer(np.zeros((2, 2)), np.eye(2), np.zeros(2)),),
                      Wy=np.eye(2), vy=np.zeros(2))
    X = box([0.0, 0.0], [1.0, 1.0])
    tbl = propagate_intervals(m, X.interval_hull("exact"), 2)
    series = state_pairs(m, X, exact_plan(tbl))
    X1 = box([0.2, 0.3], [0.6, 0.9])
    R2 = frs(series, X1, 2)
    for d in unit_directions(16, 2, seed=4):
        assert R2.support(d) == pytest.approx(X1.support(d), abs=1e-6)


def test_frs_step_out_of_range(half):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(half, X.interval_hull("exact"), 3)
    series = state_pairs(half, X, exact_plan(tbl))
    with pytest.raises(IndexError):
        frs(series, X, 4)
    with pytest.raises(IndexError):
        brs(series, X, 1)


def test_half_system_brs_analytic(half):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(half, X.interval_hull("exact"), 3)
    series = state_pairs(half, X, exact_plan(tbl))
    P2 = brs(series, box([0.2], [0.25]), 2)
    assert P2.support([1.0]) == pytest.approx(0.5, abs=1e-6)
    assert -P2.support([-1.0]) == pytest.approx(0.4, abs=1e-6)
    # vacuous target covering the whole image recovers the domain
    P_all = brs(series, box([-1.0], [2.0]), 2)
    assert P_all.support([1.0]) == pytest.approx(1.0, abs=1e-6)
    assert -P_all.support([-1.0]) == pytest.approx(0.0, abs=1e-6)


def test_brs_grid_oracle_exact_plan(gate):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(gate, X.interval_hull("exact"), 3)
    series = state_pairs(gate, X, exact_plan(tbl))
    target = box([0.1], [0.3])
    t = 3
    P = brs(series, target, t)
    hits = 0
    for x1 in np.linspace(0, 1, 41):
        reaches = target.contains_point(simulate(gate, [x1], t).states[t - 1])
        member = P.contains_point([x1])
        assert member == reaches
        hits += int(reaches)
    assert 0 < hits < 41


# -- exactness and relaxation laws --------------------------------------------

def _series_for(m, X, T, n_b, tbl):
    return state_pairs(m, X, rank_unstable(tbl, n_b))


def test_exact_pair_sets_on_random_systems():
    rng = np.random.default_rng(20)
    for _ in range(3):
        m, X = random_system(rng, n=1, L=int(rng.integers(1, 3)))
        T = 3
        tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
        series = state_pairs(m, X, exact_plan(tbl))
        hull = X.interval_hull("exact")
        for t in range(2, T + 1):
            S = series.pair_set(t)
            for p in S.sample_points(30, t):
                traj = simulate(m, p[:1], t)
                assert np.max(np.abs(traj.states[t - 1] - p[1:])) <= 1e-6
            for x1 in grid_points(hull.lower, hull.upper, 9):
                traj = simulate(m, x1, t)
                assert S.contains_point(np.concatenate([x1, traj.states[t - 1]]))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_simulation_agrees_with_reach_and_seed_sets_on_random_systems(seed):
    # exact plan: simulated pairs (x_1, x_t) are members of the pair set and
    # sampled pairs simulate to their second block; simulated states of
    # sampled initial states are members of FRS_t, and every sample of a
    # seed set simulates into the target
    rng = np.random.default_rng(seed)
    m, X = random_system(rng, n=2)
    T = 3
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    series = state_pairs(m, X, exact_plan(tbl))
    hull = X.interval_hull("exact")
    span = hull.upper - hull.lower
    lo, hi = hull.lower + 0.2 * span, hull.lower + 0.7 * span
    X1 = box(lo, hi)
    starts = rng.uniform(lo, hi, size=(6, 2))
    for t in range(2, T + 1):
        S = series.pair_set(t)
        R = frs(series, X1, t)
        for x1 in starts:
            x_t = simulate(m, x1, t).states[t - 1]
            assert S.contains_point(np.concatenate([x1, x_t]))
            assert R.contains_point(x_t)
        for pair in S.sample_points(8, seed % 1000 + t):
            x_t = simulate(m, pair[:2], t).states[t - 1]
            assert np.max(np.abs(x_t - pair[2:])) <= 1e-6
    end = simulate(m, starts[0], T).states[T - 1]
    target = box(end - 0.02, end + 0.02)
    back = brs(series, target, T)
    assert not back.is_empty()
    seed_set = back.generalized_intersect(X1)  # searches only back's leaves
    fresh = HybridZonotope(seed_set.Gc, seed_set.Gb, seed_set.c,
                           seed_set.Ac, seed_set.Ab, seed_set.b)
    leaves = seed_set.feasible_binary_assignments()
    assert [xb.tolist() for xb in leaves] == [
        xb.tolist() for xb in fresh.feasible_binary_assignments()]
    assert leaves
    for x1 in seed_set.sample_points(12, seed % 1000):
        assert target.contains_point(simulate(m, x1, T).states[T - 1])


def test_relaxed_pair_sets_contain_trajectories():
    rng = np.random.default_rng(21)
    m, X = random_system(rng, n=1, L=2)
    T = 3
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    hull = X.interval_hull("exact")
    for n_b in range(len(tbl.unstable_index()) + 1):
        series = _series_for(m, X, T, n_b, tbl)
        for t in range(2, T + 1):
            S = series.pair_set(t)
            for x1 in grid_points(hull.lower, hull.upper, 9):
                traj = simulate(m, x1, t)
                assert S.contains_point(np.concatenate([x1, traj.states[t - 1]]))


def test_budget_at_least_n_t_recovers_exact_sets():
    m = flip_system()
    X = box([0.0], [1.0])
    T = 4
    tbl = propagate_intervals(m, X.interval_hull("exact"), T)
    n_total = len(tbl.unstable_index())
    assert n_total >= 2
    exact = state_pairs(m, X, exact_plan(tbl))
    capped = _series_for(m, X, T, n_total, tbl)
    X1 = box([0.1], [0.9])
    for t in range(2, T + 1):
        A = frs(exact, X1, t)
        B = frs(capped, X1, t)
        for d in unit_directions(32, 1, seed=t):
            assert A.support(d) == pytest.approx(B.support(d), abs=1e-6)
        for p in A.sample_points(20, t):
            assert B.contains_point(p)
        for p in B.sample_points(20, 50 + t):
            assert A.contains_point(p)


def test_reachable_sets_shrink_monotonically_with_budget():
    m = flip_system()
    X = box([0.0], [1.0])
    T = 4
    tbl = propagate_intervals(m, X.interval_hull("exact"), T)
    n_total = len(tbl.unstable_index())
    X1 = box([0.55], [0.95])
    dirs = unit_directions(32, 1, seed=9)
    prev_support = None
    for n_b in range(n_total + 1):
        series = _series_for(m, X, T, n_b, tbl)
        R = frs(series, X1, T)
        sup = np.array([R.support(d) for d in dirs])
        if prev_support is not None:
            assert np.all(sup <= prev_support + 1e-7)
        prev_series = _series_for(m, X, T, max(n_b - 1, 0), tbl)
        R_prev = frs(prev_series, X1, T)
        for p in R.sample_points(15, n_b):
            assert R_prev.contains_point(p)
        prev_support = sup


def test_hull_mode_exactness_insensitivity():
    rng = np.random.default_rng(22)
    m, X = random_system(rng, n=2, L=1)
    T = 3
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    plan = exact_plan(tbl)
    by_table = state_pairs(m, X, plan, hull_mode="table")
    by_exact = state_pairs(m, X, plan, hull_mode="exact")
    for t in range(2, T + 1):
        dirs = unit_directions(32, 4, seed=30 + t)
        a = [by_table.pair_set(t).support(d) for d in dirs]
        b = [by_exact.pair_set(t).support(d) for d in dirs]
        assert np.allclose(a, b, atol=1e-6)


def _check_exact_hull_stages(m, X, T, n_b):
    """LP bounds only for the units the table leaves unstable, in sessions
    shared across stage sets of equal rows, against a full exact hull per
    stage in fresh sessions: the same pair complexities, the same sign
    class for every unit, and the same bounds for the table-unstable ones."""
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    plan = rank_unstable(tbl, n_b)
    stages = []

    def recorded(Z, iv, relaxed):
        stages.append(iv)
        return relu_layer_output(Z, iv, relaxed)

    with mock.patch.object(reach_mod, "relu_layer_output", recorded):
        series = state_pairs(m, X, plan, hull_mode="exact")
    pairs, oracle = stages_by_full_hulls(m, X, plan)
    assert {t: S.complexity for t, S in series.pairs.items()} == {
        t: S.complexity for t, S in pairs.items()}
    assert len(stages) == len(oracle)
    for iv, ((t, layer), ref) in zip(stages, oracle):
        unstable = tbl.stages[(t, layer)].straddles_zero()
        # the same sign classes, stable positive and stable negative
        assert np.array_equal(iv.lower >= 0.0, ref.lower >= 0.0)
        assert np.array_equal((iv.lower < 0.0) & (iv.upper <= 0.0),
                              (ref.lower < 0.0) & (ref.upper <= 0.0))
        assert np.all(np.abs(iv.lower - ref.lower)[unstable] <= 1e-9)
        assert np.all(np.abs(iv.upper - ref.upper)[unstable] <= 1e-9)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.floats(0.0, 1.0))
def test_exact_hull_stages_match_full_hull_oracle(seed, share):
    rng = np.random.default_rng(seed)
    m, X = random_system(rng)
    T = int(rng.integers(2, 5))
    n_t = len(propagate_intervals(m, X.interval_hull("generator_relaxed"), T).unstable_index())
    _check_exact_hull_stages(m, X, T, round(share * n_t))


@pytest.mark.parametrize("n_b", [0, 3, 10])
@pytest.mark.parametrize("lo", [(0.0, 0.0), (0.0, 0.6)])
def test_exact_hull_stages_of_shared_sessions_match_full_hull_oracle(lo, n_b):
    # the demo model on the unit square and on its upper band, T=3: its
    # step-2 stage sets share one session, and with N_b=10 (every unit
    # exact) their leaves too
    _check_exact_hull_stages(demo_system(0), box(lo, [1.0, 1.0]), 3, n_b)


def test_exact_hull_build_shares_its_lps(monkeypatch):
    # the tight-relaxed bench inputs: the demo model on the unit square,
    # T=3, N_b=3.  LPs bound only the 10 of 28 units the table leaves
    # unstable, and the three step-2 stage sets, whose ReLUs add no rows,
    # share one session: 2 sessions and 16 LPs, where a full exact hull per
    # stage set, each in sessions of its own, took 8 and 35
    counts = {"sessions": 0, "solves": 0}
    init, solve = LpSession.__init__, LpSession.solve

    def counted_init(self, *args, **kwargs):
        counts["sessions"] += 1
        init(self, *args, **kwargs)

    def counted_solve(self, *args, **kwargs):
        counts["solves"] += 1
        return solve(self, *args, **kwargs)

    m, X = demo_system(0), box([0.0, 0.0], [1.0, 1.0])
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), 3)
    plan = rank_unstable(tbl, 3)
    monkeypatch.setattr(LpSession, "__init__", counted_init)
    monkeypatch.setattr(LpSession, "solve", counted_solve)
    state_pairs(m, X, plan, hull_mode="exact")
    assert counts["sessions"] <= 2 and counts["solves"] <= 16


def test_series_json_export(half):
    X = box([0.0], [1.0])
    tbl = propagate_intervals(half, X.interval_hull("exact"), 3)
    series = state_pairs(half, X, exact_plan(tbl))
    d = series.to_json_dict()
    assert d["horizon"] == 3
    assert set(d["pairs"]) == {"2", "3"}
    assert d["pairs"]["2"]["complexity"] == [1, 0, 0]
