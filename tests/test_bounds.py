import numpy as np
import pytest

from hzreach import (ClosedLoopRnn, HybridZonotope, IntervalVector, RnnLayer,
                     exact_plan, propagate_intervals, rank_unstable, simulate)

from conftest import box, random_system


def test_half_system_analytic_table(half):
    tbl = propagate_intervals(half, IntervalVector([0.0], [1.0]), 3)
    # one hidden layer, so the output stage is layer 2
    assert list(tbl.stages) == [(1, 1), (1, 2), (2, 1), (2, 2)]
    assert np.allclose([tbl.stages[(1, 1)].lower[0], tbl.stages[(1, 1)].upper[0]], [0, 1])
    assert np.allclose([tbl.stages[(2, 1)].lower[0], tbl.stages[(2, 1)].upper[0]], [0, 0.5])
    assert np.allclose([tbl.stages[(1, 2)].lower[0], tbl.stages[(1, 2)].upper[0]], [0, 0.5])
    assert np.allclose([tbl.stages[(2, 2)].lower[0], tbl.stages[(2, 2)].upper[0]], [0, 0.25])
    assert tbl.unstable_index() == []


def test_zero_weight_net_degenerates_to_biases():
    vh = np.array([0.3, -0.4])
    m = ClosedLoopRnn((RnnLayer(np.zeros((2, 2)), np.zeros((2, 2)), vh),),
                      Wy=np.zeros((2, 2)), vy=np.array([0.1, 0.2]))
    tbl = propagate_intervals(m, IntervalVector([0, 0], [1, 1]), 3)
    for t in (1, 2):
        iv = tbl.stages[(t, 1)]
        assert np.allclose(iv.lower, vh) and np.allclose(iv.upper, vh)
        assert np.allclose(tbl.stages[(t, 2)].lower, [0.1, 0.2])


def test_soundness_on_simulated_trajectories():
    rng = np.random.default_rng(0)
    m, domain = random_system(rng, n=2, L=2)
    hull = domain.interval_hull("exact")
    T = 5
    tbl = propagate_intervals(m, hull, T)
    for _ in range(500):
        x1 = rng.uniform(hull.lower, hull.upper)
        traj = simulate(m, x1, T)
        for t in range(1, T):
            inp = traj.states[t - 1]
            for ln, layer in enumerate(m.layers, start=1):
                h_prev = (traj.hidden_at(t - 1, ln) if t > 1
                          else np.zeros(layer.width))
                pre = layer.Wh @ h_prev + layer.Wx @ inp + layer.vh
                assert tbl.stages[(t, ln)].contains(pre, tol=1e-9)
                inp = np.maximum(pre, 0.0)
            pre_y = m.Wy @ inp + m.vy
            assert tbl.stages[(t, m.num_layers + 1)].contains(pre_y, tol=1e-9)


def test_enlarging_domain_never_shrinks_intervals():
    rng = np.random.default_rng(1)
    m, domain = random_system(rng, n=2, L=1)
    hull = domain.interval_hull("exact")
    small = propagate_intervals(m, hull, 4)
    big = propagate_intervals(m, IntervalVector(hull.lower - 0.2, hull.upper + 0.2), 4)
    assert list(big.stages) == list(small.stages)
    for key, iv in small.stages.items():
        assert big.stages[key].encloses(iv)


def test_interval_hull_modes():
    Z = box([-1, -1], [1, 1])
    relaxed = Z.interval_hull("generator_relaxed")
    assert np.allclose(relaxed.lower, -1) and np.allclose(relaxed.upper, 1)
    # cancelling generators with a coupling constraint: exact {0}, relaxed superset
    D = HybridZonotope(Gc=[[1.0, -1.0]], c=[0.0], Ac=[[1.0, -1.0]], b=[0.0])
    assert D.interval_hull("exact").upper[0] == pytest.approx(0.0, abs=1e-9)
    assert D.interval_hull("generator_relaxed").upper[0] == pytest.approx(2.0)
    assert D.interval_hull("generator_relaxed").encloses(D.interval_hull("exact"),
                                                         tol=1e-9)


def test_count_unstable_cases(half, gate):
    plan = exact_plan(propagate_intervals(half, IntervalVector([0.0], [1.0]), 4))
    for t in (2, 3, 4):
        assert plan.counts(t) == (0, 0)
    plang = exact_plan(propagate_intervals(gate, IntervalVector([0.0], [1.0]), 4))
    # x' = max(0, 0.5 - x): hidden pre-activation straddles zero at every step
    assert plang.counts(2) == (1, 1)
    assert plang.counts(3)[0] >= 1
    with pytest.raises(IndexError):
        plang.counts(5)
    with pytest.raises(IndexError):
        plang.counts(1)


def test_count_unstable_matches_recount():
    rng = np.random.default_rng(2)
    m, domain = random_system(rng, n=2, L=2)
    tbl = propagate_intervals(m, domain.interval_hull("exact"), 4)
    n_total = len(tbl.unstable_index())
    assert n_total >= 2
    for n_b in (0, 1, n_total // 2, n_total, n_total + 1):
        plan = rank_unstable(tbl, n_b)
        top = plan.entries[:n_b]  # the plan ranks by score: its first n_b are exact
        for t in (2, 3, 4):
            manual = 0
            for ts in range(1, t):
                for ln in range(1, m.num_layers + 2):  # the hidden layers, then the output
                    iv = tbl.stages[(ts, ln)]
                    manual += int(np.sum((iv.lower < 0) & (iv.upper > 0)))
            assert plan.counts(t) == (manual, sum(1 for e in top if e.t <= t - 1))


def test_equality_of_intervals_tables_and_plans():
    assert IntervalVector([0, 0], [1, 1]) == IntervalVector([0.0, 0.0], [1.0, 1.0])
    assert IntervalVector([0, 0], [1, 1]) != IntervalVector([0, 0], [1, 2])
    assert IntervalVector([0, 0], [1, 1]) != IntervalVector([0, 0, 0], [1, 1, 1])
    with pytest.raises(TypeError):
        hash(IntervalVector([0, 0], [1, 1]))
    m, domain = random_system(np.random.default_rng(2), n=2, L=2)
    hull = domain.interval_hull("exact")
    tbl, again = propagate_intervals(m, hull, 4), propagate_intervals(m, hull, 4)
    assert tbl == again and tbl is not again
    assert tbl != propagate_intervals(m, hull, 3)
    assert rank_unstable(tbl, 1) == rank_unstable(again, 1)
    assert rank_unstable(tbl, 1) != rank_unstable(tbl, 2)


def test_requires_horizon_two():
    m, domain = random_system(np.random.default_rng(3), n=1)
    with pytest.raises(ValueError):
        propagate_intervals(m, domain.interval_hull("exact"), 1)
