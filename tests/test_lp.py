import functools
import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csc_array

from hzreach import (FEAS_TOL, LpProblem, MilpProblem, SolveStatus, brs, lp_solve, milp_solve,
                     propagate_intervals, rank_unstable, simulate, state_pairs)
from hzreach.lp import LpSession, _highs, column_wise, enumerate_binary_leaves
from hzreach.systems import demo_system

from conftest import (box, leaves_in_index_order, leaves_one_by_one, milp_by_enumeration,
                      mixed_hz, random_hz)


def _lp(c, A, b, n=None):
    c = np.asarray(c, dtype=float)
    n = c.size if n is None else n
    return LpProblem(c, np.asarray(A, dtype=float).reshape(-1, n), b,
                     -np.ones(n), np.ones(n))


def test_lp_analytic_minimum():
    # minimize x1 s.t. x1 + x2 = 1 on [-1,1]^2: x1 = 1 - x2 >= 0, optimum 0 at (0, 1)
    res = lp_solve(_lp([1, 0], [[1, 1]], [1]))
    assert res.status is SolveStatus.OPTIMAL
    assert res.objective == pytest.approx(0.0, abs=1e-9)
    assert res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_lp_infeasible_bounds():
    res = lp_solve(_lp([0, 0], [[1, 1]], [3]))
    assert res.status is SolveStatus.INFEASIBLE


def test_lp_random_feasible_by_witness():
    rng = np.random.default_rng(42)
    for _ in range(25):
        n, m = int(rng.integers(2, 7)), int(rng.integers(1, 4))
        A = rng.normal(size=(m, n))
        witness = rng.uniform(-1, 1, size=n)
        p = LpProblem(rng.normal(size=n), A, A @ witness, -np.ones(n), np.ones(n))
        res = lp_solve(p)
        assert res.status is SolveStatus.OPTIMAL
        assert res.objective <= p.c @ witness + 1e-9


def test_lp_solution_feasibility():
    rng = np.random.default_rng(3)
    for _ in range(20):
        n, m = int(rng.integers(2, 8)), int(rng.integers(1, 5))
        A = rng.normal(size=(m, n))
        witness = rng.uniform(-1, 1, size=n)
        res = lp_solve(LpProblem(rng.normal(size=n), A, A @ witness,
                                 -np.ones(n), np.ones(n)))
        assert res.status is SolveStatus.OPTIMAL
        assert np.max(np.abs(A @ res.x - A @ witness)) <= 1e-7
        assert np.all(res.x >= -1 - 1e-9) and np.all(res.x <= 1 + 1e-9)


def test_lp_validates_dimensions():
    with pytest.raises(ValueError):
        LpProblem([1.0, 2.0], np.eye(3), [0, 0, 0], -np.ones(2), np.ones(2))
    with pytest.raises(ValueError):
        LpProblem([1.0], np.zeros((0, 1)), [], [2.0], [1.0])


def test_milp_without_binaries_matches_lp():
    p = _lp([1, 0], [[1, 1]], [1])
    assert milp_solve(MilpProblem(p, ())).objective == pytest.approx(
        lp_solve(p).objective, abs=1e-12)


def test_milp_binary_feasibility_pair():
    # xb1 + xb2 = 0 with both binary: feasible at (-1, +1) or (+1, -1)
    p = MilpProblem(_lp([0, 0], [[1, 1]], [0]), (0, 1))
    res = milp_solve(p)
    assert res.status is SolveStatus.OPTIMAL
    assert sorted(res.x) == [-1.0, 1.0]


def test_milp_binary_plus_continuous():
    # xb1 + xc1 = 2 forces xb1 = 1, xc1 = 1
    p = MilpProblem(_lp([0, 0], [[1, 1]], [2]), (0,))
    res = milp_solve(p)
    assert res.status is SolveStatus.OPTIMAL
    assert res.x[0] == 1.0 and res.x[1] == pytest.approx(1.0, abs=1e-9)


def test_milp_matches_enumeration_oracle():
    rng = np.random.default_rng(7)
    statuses = []
    for _ in range(40):
        n = int(rng.integers(2, 8))
        m = int(rng.integers(1, 4))
        nb = int(rng.integers(1, min(n, 6) + 1))
        A = rng.normal(size=(m, n))
        b = rng.normal(size=m) * 0.8
        p = MilpProblem(LpProblem(rng.normal(size=n), A, b, -np.ones(n), np.ones(n)),
                        tuple(range(nb)))
        res = milp_solve(p)
        status, obj, _ = milp_by_enumeration(p)
        statuses.append(status)
        # started from every assignment, the search finds the same leaves
        # in the same order
        every = [np.array(xb) for xb in itertools.product((-1.0, 1.0), repeat=nb)]
        assert ([xb.tolist() for xb in enumerate_binary_leaves(p, candidates=every)]
                == [xb.tolist() for xb in enumerate_binary_leaves(p)])
        assert enumerate_binary_leaves(p, candidates=[]) == []
        assert res.status is status
        if status is SolveStatus.OPTIMAL:
            assert res.objective == pytest.approx(obj, abs=1e-7)
            assert np.all(np.abs(np.abs(res.x[:nb]) - 1.0) <= 1e-9)
    assert SolveStatus.OPTIMAL in statuses and SolveStatus.INFEASIBLE in statuses


def test_milp_never_beats_relaxation():
    rng = np.random.default_rng(11)
    for _ in range(20):
        n = int(rng.integers(2, 7))
        A = rng.normal(size=(2, n))
        witness = rng.uniform(-1, 1, size=n)
        lp = LpProblem(rng.normal(size=n), A, A @ witness, -np.ones(n), np.ones(n))
        res = milp_solve(MilpProblem(lp, (0,)))
        if res.status is SolveStatus.OPTIMAL:
            assert lp_solve(lp).objective <= res.objective + 1e-9


def test_milp_deterministic():
    rng = np.random.default_rng(19)
    n = 6
    A = rng.normal(size=(3, n))
    witness = rng.uniform(-1, 1, size=n)
    p = MilpProblem(LpProblem(rng.normal(size=n), A, A @ witness,
                              -np.ones(n), np.ones(n)), (0, 1, 2))
    first = milp_solve(p)
    for _ in range(3):
        again = milp_solve(p)
        assert again.status is first.status
        assert np.array_equal(again.x, first.x)
        assert again.objective == first.objective


# -- the leaf search against assignment-by-assignment and index-order oracles

@functools.cache
def _unit_square_series(n_b: int):
    """The demo model's series over the unit square, T=3, with the ``n_b``
    top-ranked of its 10 unstable units exact: its BRS_t sets carry up to
    ``n_b`` binaries."""
    m, X = demo_system(0), box([0.0, 0.0], [1.0, 1.0])
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), 3)
    return state_pairs(m, X, rank_unstable(tbl, n_b))


@pytest.mark.parametrize("source", ["random", "mixed", "brs"])
@settings(max_examples=12, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_g=st.integers(1, 4), n_b=st.integers(1, 6),
       n_c=st.integers(1, 3), side=st.sampled_from([-1.0, 1.0]),
       delta=st.floats(0.0, FEAS_TOL / 2), t=st.integers(2, 3),
       x1=st.tuples(st.floats(0.0, 1.0), st.floats(0.0, 1.0)), radius=st.floats(0.02, 0.3))
def test_root_search_leaves_match_oracles_in_order(source, seed, n_g, n_b, n_c, side, delta,
                                                   t, x1, radius):
    # whatever binary it branches on, the root search returns the assignments
    # whose pinned FEAS_TOL-slack LP is feasible, lexicographically, as the
    # index-order depth-first search found them
    rng = np.random.default_rng(seed)
    if source == "random":
        Z = random_hz(rng, n_g=n_g, n_b=n_b, n_c=n_c)
    elif source == "mixed":
        Z = mixed_hz(rng, 2, n_g, side, delta)
    else:  # a target about the step-t state of a trajectory from x1
        xt = simulate(demo_system(0), np.array(x1), t).states[t - 1]
        Z = brs(_unit_square_series(n_b + 2), box(xt - radius, xt + radius), t)
    p = Z._rows.milp(slack=FEAS_TOL)
    leaves = [xb.tolist() for xb in enumerate_binary_leaves(p)]
    assert leaves == leaves_one_by_one(p)
    assert leaves == leaves_in_index_order(p)


# -- warm-started sessions against the one-shot reference -------------------

def _sparse_feasible(rng, n, m):
    A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.6)
    witness = rng.uniform(-1, 1, size=n)
    return A, A @ witness


def test_column_wise_matches_csc_array():
    # the matrix passed to HiGHS: same arrays as scipy's compressed columns,
    # with empty rows and columns and the all-zero and empty matrices
    rng = np.random.default_rng(34)
    shapes = [(int(rng.integers(0, 8)), int(rng.integers(0, 8))) for _ in range(40)]
    for m, n in shapes + [(3, 5), (0, 4), (4, 0)]:
        A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.4)
        if m and n:
            A[int(rng.integers(m))] = 0.0
            A[:, int(rng.integers(n))] = 0.0
        start, index, value = column_wise(A)
        ref = csc_array(A)
        assert np.array_equal(start, ref.indptr)
        assert np.array_equal(index, ref.indices)
        assert np.array_equal(value, ref.data)
    assert column_wise(np.zeros((3, 5)))[0].tolist() == [0] * 6


def _highs_lp_build(p: LpProblem):
    """HiGHS given ``p`` as a HighsLp filled one attribute at a time: the
    reference for the one array call of LpSession."""
    start, index, value = column_wise(p.A)
    lp = _highs.HighsLp()
    lp.num_col_ = lp.a_matrix_.num_col_ = p.num_vars
    lp.num_row_ = lp.a_matrix_.num_row_ = p.b.size
    lp.a_matrix_.format_ = _highs.MatrixFormat.kColwise
    lp.a_matrix_.start_ = start
    lp.a_matrix_.index_ = index
    lp.a_matrix_.value_ = value
    lp.col_cost_, lp.col_lower_, lp.col_upper_ = p.c, p.lb, p.ub
    lp.row_lower_ = lp.row_upper_ = p.b
    h = _highs._Highs()
    h.setOptionValue("output_flag", False)
    assert h.passModel(lp) == _highs.HighsStatus.kOk
    return h


def _model_of(h) -> list:
    """The model HiGHS holds: counts, sense, offset, costs, bounds and matrix."""
    lp = h.getLp()
    a = lp.a_matrix_
    return [lp.num_col_, lp.num_row_, int(lp.sense_), lp.offset_, int(a.format_), a.num_col_,
            a.num_row_] + [np.asarray(v).tolist() for v in (
                lp.col_cost_, lp.col_lower_, lp.col_upper_, lp.row_lower_, lp.row_upper_,
                a.start_, a.index_, a.value_)]


def test_session_passes_the_model_of_a_highs_lp_build():
    # random sparse models, one without rows and one with an all-zero matrix
    rng = np.random.default_rng(35)
    shapes = [(int(rng.integers(1, 8)), int(rng.integers(1, 10))) for _ in range(40)]
    for k, (m, n) in enumerate(shapes + [(0, 4), (3, 5)]):
        A = rng.normal(size=(m, n)) * (rng.random(size=(m, n)) < 0.5) * (k < len(shapes))
        lb = -rng.uniform(0.5, 2.0, size=n)
        p = LpProblem(rng.normal(size=n), A, rng.normal(size=m), lb, lb + rng.uniform(0, 3, n))
        session = LpSession(p)
        assert _model_of(session._highs) == _model_of(_highs_lp_build(p))
        assert set(session._highs.getLp().integrality_) <= {_highs.HighsVarType.kContinuous}


def test_session_matches_lp_solve_over_cost_changes():
    rng = np.random.default_rng(31)
    for _ in range(6):
        n, m = int(rng.integers(3, 14)), int(rng.integers(1, 7))
        A, b = _sparse_feasible(rng, n, m)
        ones = np.ones(n)
        session = LpSession(LpProblem(np.zeros(n), A, b, -ones, ones))
        for _ in range(40):
            c = rng.normal(size=n)
            ref = lp_solve(LpProblem(c, A, b, -ones, ones))
            got = session.solve(c)
            assert ref.is_optimal and got.is_optimal
            assert got.objective == pytest.approx(ref.objective, abs=1e-9)
            assert np.max(np.abs(A @ got.x - b)) <= 1e-7
            assert np.all(np.abs(got.x) <= 1.0)


def test_session_matches_lp_solve_over_bound_changes():
    # each bound change (dual simplex) is followed by cost-only steps, which
    # re-solve by primal simplex after an optimal run and by dual simplex
    # after an infeasible one
    rng = np.random.default_rng(32)
    n, m = 7, 3
    A, b = _sparse_feasible(rng, n, m)
    c = rng.normal(size=n)
    session = LpSession(LpProblem(c, A, b, -np.ones(n), np.ones(n)))
    statuses = []
    cost_only_after = []
    for step in range(60):
        lb, ub = -np.ones(n), np.ones(n)
        if step % 3:  # pin some entries to a vertex value; often infeasible
            pins = rng.choice(n, size=int(rng.integers(1, n)), replace=False)
            lb[pins] = ub[pins] = rng.choice([-1.0, 1.0], size=pins.size)
        if step % 5 == 0:
            c = rng.normal(size=n)
        steps = [(c, lb, ub)] + [(rng.normal(size=n), None, None)
                                 for _ in range(int(rng.integers(0, 3)))]
        for k, (cost, lb_k, ub_k) in enumerate(steps):
            ref = lp_solve(LpProblem(cost, A, b, lb, ub))
            got = session.solve(cost, lb_k, ub_k)
            assert got.status is ref.status
            if ref.is_optimal:
                assert got.objective == pytest.approx(ref.objective, abs=1e-9)
                assert np.all(got.x >= lb) and np.all(got.x <= ub)
            if k:
                cost_only_after.append(statuses[-1])
            statuses.append(ref.status)
    pairs = set(zip(statuses, statuses[1:]))
    assert (SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE) in pairs
    assert (SolveStatus.INFEASIBLE, SolveStatus.OPTIMAL) in pairs
    assert set(cost_only_after) == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}


def test_session_without_rows_or_variables():
    ones = np.ones(3)
    session = LpSession(LpProblem([1.0, -2.0, 0.5], np.zeros((0, 3)), [], -ones, ones))
    for c, lb in (([1.0, -2.0, 0.5], -ones), ([-1.0, 1.0, 3.0], -ones),
                  ([-1.0, 1.0, 3.0], [-1.0, 0.5, -1.0])):
        ref = lp_solve(LpProblem(c, np.zeros((0, 3)), [], lb, ones))
        got = session.solve(c, lb, ones)
        assert got.is_optimal and got.objective == pytest.approx(ref.objective, abs=1e-12)
    for b, status in (([], SolveStatus.OPTIMAL), ([0.0], SolveStatus.OPTIMAL),
                      ([1.0], SolveStatus.INFEASIBLE)):
        p = LpProblem([], np.zeros((len(b), 0)), b, [], [])
        assert LpSession(p).solve().status is lp_solve(p).status is status


def test_fresh_sessions_repeat_bitwise():
    rng = np.random.default_rng(33)
    n, m = 9, 4
    A, b = _sparse_feasible(rng, n, m)
    steps = []
    for _ in range(30):
        lb, ub = -np.ones(n), np.ones(n)
        i = int(rng.integers(n))
        lb[i] = ub[i] = rng.choice([-1.0, 1.0])
        steps.append((rng.normal(size=n), lb, ub))
    runs = []
    for _ in range(2):
        session = LpSession(LpProblem(np.zeros(n), A, b, -np.ones(n), np.ones(n)))
        runs.append([session.solve(c, lb, ub) for c, lb, ub in steps])
    for first, again in zip(*runs):
        assert first.status is again.status
        if first.is_optimal:
            assert np.array_equal(first.x, again.x)
            assert first.objective == again.objective
