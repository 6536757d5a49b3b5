import itertools
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzreach import (ClosedLoopRnn, HybridZonotope, IntervalVector, RnnLayer,
                     exact_plan, propagate_intervals, rank_unstable, simulate, state_pairs)
from hzreach.bounds import BoundsTable, symbolic_bounds
from hzreach.systems import demo_initial_box, demo_system

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


def _pre_activations(m, x1, T) -> dict:
    """The pre-activations of every stage (t, layer) of the trajectory from
    x1, recomputed from its simulated states and hidden states."""
    traj, pre = simulate(m, x1, T), {}
    for t in range(1, T):
        inp = traj.states[t - 1]
        for ln, layer in enumerate(m.layers, start=1):
            h_prev = traj.hidden_at(t - 1, ln) if t > 1 else np.zeros(layer.width)
            pre[(t, ln)] = layer.Wh @ h_prev + layer.Wx @ inp + layer.vh
            inp = np.maximum(pre[(t, ln)], 0.0)
        pre[(t, m.num_layers + 1)] = m.Wy @ inp + m.vy
    return pre


def test_soundness_on_simulated_trajectories():
    rng = np.random.default_rng(0)
    m, domain = random_system(rng, n=2, L=2)
    hull = domain.interval_hull("exact")
    T = 5
    tbl = propagate_intervals(m, hull, T)
    for _ in range(500):
        pre = _pre_activations(m, rng.uniform(hull.lower, hull.upper), T)
        for key, z in pre.items():
            assert tbl.stages[key].contains(z, tol=1e-9)


def _series(m, X, T, share, hull_mode="table"):
    """The series over X of the plan that keeps the given share of the
    table's unstable units exact."""
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    return state_pairs(m, X, rank_unstable(tbl, round(share * len(tbl.unstable_index()))),
                       hull_mode)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 0.5, 1.0]),
       hull_mode=st.sampled_from(["table", "exact"]))
def test_symbolic_bounds_enclose_trajectories_and_sets(seed, share, hull_mode):
    # exact and relaxed plans, both hull modes: every simulated
    # pre-activation and state lies inside its symbolic interval and state
    # enclosure, the stage intervals lie inside the table's, and each state
    # enclosure holds the exact interval hull of the pair set's state block,
    # whose relaxed units can lift it above relu of their pre-activations
    rng = np.random.default_rng(seed)
    m, X = random_system(rng)
    n, T = m.state_dim, int(rng.integers(2, 6))
    series = _series(m, X, T, share, hull_mode)
    symbolic, table = series.symbolic, series.plan.table
    assert list(symbolic.stages) == list(table.stages)
    assert list(symbolic.states) == list(range(1, T + 1))
    for key, iv in symbolic.stages.items():
        assert table.stages[key].encloses(iv)
    hull = X.interval_hull("exact")
    for x1 in rng.uniform(hull.lower, hull.upper, size=(100, n)):
        for key, z in _pre_activations(m, x1, T).items():
            # within the table's intervals, an ulp short at worst (ROADMAP item 4)
            assert symbolic.stages[key].contains(z, tol=1e-12)
        for t, x_t in enumerate(simulate(m, x1, T).states, start=1):
            assert symbolic.states[t].contains(x_t, tol=1e-12)
    for t in range(2, T + 1):
        states = series.pair_set(t).project(range(n, 2 * n))
        assert symbolic.states[t].encloses(states.interval_hull("exact"), tol=1e-9)


def test_state_enclosure_holds_a_relaxed_output_above_relu():
    # the demo box at N_b = 0: the triangle of the step-2 output units lifts
    # x_3 well above relu of their symbolic upper bounds, and the state
    # enclosure, the concretized post-activation bounds, still holds the
    # set's exact hull (an enclosure of relu(u) would rule out boxes the
    # set meets, and turn Unknown verdicts Safe)
    m, (lo, hi) = demo_system(), demo_initial_box()
    series = _series(m, box(lo, hi), 4, 0.0)
    u = series.symbolic.stages[(2, m.num_layers + 1)].upper
    assert series.plan.relaxed(2, m.num_layers + 1).all()
    exact = series.pair_set(3).project([2, 3]).interval_hull("exact")
    assert exact.upper[0] > max(u[0], 0.0) + 0.05
    assert series.symbolic.states[3].encloses(exact, tol=1e-9)


def _rational_stages(m, x1, T) -> dict:
    """Every stage's pre-activations, and (t, 0) the state x_t, of the
    trajectory from x1 in exact rational arithmetic."""
    def affine(inp, Wx, v, h, Wh):
        terms = [(Wx, inp)] + ([] if h is None else [(Wh, h)])
        return [Fraction(b) + sum(Fraction(w) * a for W, z in terms for w, a in zip(W[i], z))
                for i, b in enumerate(v)]

    out = {(1, 0): [Fraction(x) for x in x1]}

    def relu(pre, t, layer):
        out[(t, layer)] = pre
        return [max(z, Fraction(0)) for z in pre]

    for t, x, _ in m.unroll(out[(1, 0)], T - 1, affine, relu):
        out[(t + 1, 0)] = x
    return out


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), share=st.sampled_from([0.0, 1.0]))
def test_symbolic_bounds_hold_in_rational_arithmetic_at_domain_corners(seed, share):
    # at a corner of the domain a linear bound is often attained, so a bound
    # rounded to nearest can miss the exact value by an ulp: every stage
    # interval and state enclosure holds the exact rational values.  The
    # stage intervals lie within the table's, whose plain rounding leaves
    # them an ulp short at such points (ROADMAP item 4), so here every table
    # interval is widened by 1e-9: the symbolic bounds are the tight ones
    rng = np.random.default_rng(seed)
    m, X = random_system(rng)
    T = int(rng.integers(2, 6))
    hull = X.interval_hull("exact")
    tbl = propagate_intervals(m, hull, T)
    tbl = BoundsTable(T, {key: IntervalVector(iv.lower - 1e-9, iv.upper + 1e-9)
                          for key, iv in tbl.stages.items()})
    plan = rank_unstable(tbl, round(share * len(tbl.unstable_index())))
    symbolic = symbolic_bounds(m, hull, plan)
    for corner in itertools.product(*zip(hull.lower, hull.upper)):
        for (t, layer), exact in _rational_stages(m, corner, T).items():
            iv = symbolic.states[t] if layer == 0 else symbolic.stages[(t, layer)]
            assert all(Fraction(lo) <= z <= Fraction(hi)
                       for lo, z, hi in zip(iv.lower, exact, iv.upper))


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
