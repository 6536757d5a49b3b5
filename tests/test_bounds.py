import numpy as np
import pytest

from hzreach import (ClosedLoopRnn, HybridZonotope, IntervalVector, RnnLayer,
                     count_unstable, propagate_intervals, simulate)

from conftest import box, random_system


def test_half_system_analytic_table(half):
    tbl = propagate_intervals(half, IntervalVector([0.0], [1.0]), 3)
    assert np.allclose([tbl.hidden[(1, 1)].lower[0], tbl.hidden[(1, 1)].upper[0]], [0, 1])
    assert np.allclose([tbl.hidden[(2, 1)].lower[0], tbl.hidden[(2, 1)].upper[0]], [0, 0.5])
    assert np.allclose([tbl.output[1].lower[0], tbl.output[1].upper[0]], [0, 0.5])
    assert np.allclose([tbl.output[2].lower[0], tbl.output[2].upper[0]], [0, 0.25])
    assert tbl.unstable_index() == []


def test_zero_weight_net_degenerates_to_biases():
    vh = np.array([0.3, -0.4])
    m = ClosedLoopRnn((RnnLayer(np.zeros((2, 2)), np.zeros((2, 2)), vh),),
                      Wy=np.zeros((2, 2)), vy=np.array([0.1, 0.2]))
    tbl = propagate_intervals(m, IntervalVector([0, 0], [1, 1]), 3)
    for t in (1, 2):
        iv = tbl.hidden[(t, 1)]
        assert np.allclose(iv.lower, vh) and np.allclose(iv.upper, vh)
        assert np.allclose(tbl.output[t].lower, [0.1, 0.2])


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
                assert tbl.hidden[(t, ln)].contains(pre, tol=1e-9)
                inp = np.maximum(pre, 0.0)
            pre_y = m.Wy @ inp + m.vy
            assert tbl.output[t].contains(pre_y, tol=1e-9)


def test_enlarging_domain_never_shrinks_intervals():
    rng = np.random.default_rng(1)
    m, domain = random_system(rng, n=2, L=1)
    hull = domain.interval_hull("exact")
    small = propagate_intervals(m, hull, 4)
    big = propagate_intervals(m, IntervalVector(hull.lower - 0.2, hull.upper + 0.2), 4)
    for key, iv in small.hidden.items():
        assert big.hidden[key].encloses(iv)
    for t, iv in small.output.items():
        assert big.output[t].encloses(iv)


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
    tbl = propagate_intervals(half, IntervalVector([0.0], [1.0]), 4)
    for t in (2, 3, 4):
        assert count_unstable(tbl, t) == 0
    tblg = propagate_intervals(gate, IntervalVector([0.0], [1.0]), 4)
    # x' = max(0, 0.5 - x): hidden pre-activation straddles zero at every step
    assert count_unstable(tblg, 2) == 1
    assert count_unstable(tblg, 3) >= 1
    with pytest.raises(IndexError):
        count_unstable(tblg, 5)
    with pytest.raises(IndexError):
        count_unstable(tblg, 1)


def test_count_unstable_matches_recount():
    rng = np.random.default_rng(2)
    m, domain = random_system(rng, n=2, L=2)
    tbl = propagate_intervals(m, domain.interval_hull("exact"), 4)
    for t in (2, 3, 4):
        manual = 0
        for ts in range(1, t):
            for ln in range(1, m.num_layers + 1):
                iv = tbl.hidden[(ts, ln)]
                manual += int(np.sum((iv.lower < 0) & (iv.upper > 0)))
            iv = tbl.output[ts]
            manual += int(np.sum((iv.lower < 0) & (iv.upper > 0)))
        assert count_unstable(tbl, t) == manual


def test_table_json_dump(gate):
    tbl = propagate_intervals(gate, IntervalVector([0.0], [1.0]), 3)
    d = tbl.to_json_dict()
    assert set(d) == {"hidden", "output"}
    assert "1,1" in d["hidden"] and "2" in d["output"]
    assert d["hidden"]["1,1"]["lower"] == [-0.5]
    assert d["hidden"]["1,1"]["upper"] == [0.5]


def test_requires_horizon_two():
    m, domain = random_system(np.random.default_rng(3), n=1)
    with pytest.raises(ValueError):
        propagate_intervals(m, domain.interval_hull("exact"), 1)
