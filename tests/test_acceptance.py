"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and match the module contracts; every expected
value is either analytic or produced by an independent oracle (exhaustive
enumeration, simulation, direct membership predicates).
"""

import time

import numpy as np
import pytest

from hzreach import (LpProblem, MilpProblem, NeuronInterval, Safety,
                     SolveStatus, brs, count_unstable, exact_plan, frs,
                     graph_interval, graph_triangle, milp_solve,
                     predicted_for_step, propagate_intervals, rank_unstable,
                     simulate, state_pairs, unsafe_sequences, verify_backward,
                     verify_forward)
from hzreach.cli import main
from hzreach.systems import demo_initial_box, demo_system, half_system

from conftest import (box, grid_points, membership_predicate,
                      milp_by_enumeration, polygon_area, random_hz,
                      random_system, unit_directions)

PAIR_TOL = 1e-6          # distance of a simulated state to its sampled pair
SUPPORT_MONO_TOL = 1e-7  # support monotonicity across binary limits
RECOVER_TOL = 1e-6       # support agreement when the budget covers all units
AREA_TOL = 1e-9          # triangle area
MILP_FEAS_TOL = 1e-7     # constraint residual of MILP solutions


def _progress(label, start, budget):
    elapsed = time.perf_counter() - start
    print(f"ACCEPTANCE {label}: PASS ({elapsed:.1f}s, budget {budget}s)")
    assert elapsed < budget


def _series_for(m, X, T, n_b=None):
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
    plan = exact_plan(tbl) if n_b is None else rank_unstable(tbl, n_b)
    return state_pairs(m, X, plan)


def _system_with_unstable(seed, lo=1, hi=10, **kw):
    """Deterministically search seeds for a system whose horizon-4 unstable
    count lands in [lo, hi]."""
    s = seed
    while True:
        rng = np.random.default_rng(s)
        m, X = random_system(rng, **kw)
        tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), 4)
        if lo <= len(tbl.unstable_index()) <= hi:
            return m, X
        s += 1000


def test_criterion_1_complexity_formulas():
    start = time.perf_counter()
    rng = np.random.default_rng(101)
    checked = 0
    for sys_id in range(20):
        n = int(rng.integers(1, 4))
        L = int(rng.integers(1, 3))
        m, X = random_system(rng, n=n, L=L, max_width=8)
        T = int(rng.integers(2, 5))
        tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
        n_total = len(tbl.unstable_index())
        if sys_id % 2:
            X1 = box(X.c - 0.01, X.c + 0.01)
            tgt = box(X.c, X.c + 0.05)
        else:
            X1 = random_hz(rng, dim=n, n_g=n + 1, n_b=1, n_c=1, scale=0.05)
            tgt = random_hz(rng, dim=n, n_g=n, n_b=0, n_c=1, scale=0.05)
        for n_b in range(n_total + 2):
            series = state_pairs(m, X, rank_unstable(tbl, n_b))
            for t in range(2, T + 1):
                pred = predicted_for_step(series, t, X1.complexity, tgt.complexity)
                assert series.pair_set(t).complexity == pred.pair
                assert frs(series, X1, t).complexity == pred.frs
                assert brs(series, tgt, t).complexity == pred.brs
                checked += 3
            # at the final step the horizon-global printed form applies as-is
            n_T = count_unstable(tbl, T)
            assert series.plan.exact_through(T) == min(n_b, n_T)
    assert checked >= 20 * 3
    _progress("1 (complexity formulas)", start, 120)


def test_criterion_2_exactness_of_pair_sets_and_reach_sets():
    start = time.perf_counter()
    for sys_id in range(10):
        m, X = _system_with_unstable(200 + sys_id, lo=1, hi=7,
                                     n=1 + sys_id % 2, max_width=3)
        n = m.state_dim
        T = 3
        series = _series_for(m, X, T)
        hull = X.interval_hull("exact")
        k = 21 if n == 1 else 21
        X1 = X
        grid = grid_points(hull.lower, hull.upper, k) if n == 1 else \
            grid_points(hull.lower, hull.upper, 21)
        # (a) every grid trajectory endpoint is a member of FRS_t
        for t in range(2, T + 1):
            R = frs(series, X1, t)
            for x1 in grid:
                endpoint = simulate(m, x1, t).states[t - 1]
                assert R.contains_point(endpoint)
        # (b) 200 sampled pairs per pair set satisfy the dynamics
        for t in range(2, T + 1):
            S = series.pair_set(t)
            for p in S.sample_points(200, 1000 + t):
                traj = simulate(m, p[:n], t)
                assert np.max(np.abs(traj.states[t - 1] - p[n:])) <= PAIR_TOL
        # (c) BRS grid oracle at the final step
        endpoints = np.array([simulate(m, x1, T).states[T - 1] for x1 in grid])
        center = np.median(endpoints, axis=0)
        radius = 0.25 * (np.max(endpoints, axis=0) - np.min(endpoints, axis=0)) + 1e-3
        target = box(center - radius, center + radius)
        P = brs(series, target, T)
        for x1, endpoint in zip(grid, endpoints):
            margin = np.min(np.minimum(endpoint - (center - radius),
                                       (center + radius) - endpoint))
            if abs(margin) < 1e-5:
                continue  # boundary cases are ambiguous at the FEAS_TOL tolerance
            assert P.contains_point(x1) == (margin > 0)
    _progress("2 (exact FRS/BRS and pair sets)", start, 600)


def test_criterion_3_relaxation_laws():
    start = time.perf_counter()
    for sys_id in range(10):
        m, X = _system_with_unstable(300 + sys_id, lo=1, hi=6,
                                     n=1 + sys_id % 2, max_width=3)
        n = m.state_dim
        T = 3
        tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), T)
        n_total = len(tbl.unstable_index())
        dirs = unit_directions(32, n, seed=sys_id)
        hull = X.interval_hull("exact")
        span = hull.upper - hull.lower
        X1 = box(hull.lower + 0.2 * span, hull.upper - 0.2 * span)
        exact = state_pairs(m, X, exact_plan(tbl))
        prev_sup = None
        prev_R = None
        for n_b in range(n_total + 1):
            series = state_pairs(m, X, rank_unstable(tbl, n_b))
            R = frs(series, X1, T)
            sup = np.array([R.support(d) for d in dirs])
            if prev_sup is not None:
                # (a) nesting: tighter budget contains looser one
                assert np.all(sup <= prev_sup + SUPPORT_MONO_TOL)
                for p in R.sample_points(20, n_b):
                    assert prev_R.contains_point(p)
            prev_sup, prev_R = sup, R
        # (b) full budget reproduces the exact sets
        full = state_pairs(m, X, rank_unstable(tbl, n_total))
        for t in range(2, T + 1):
            A, B = frs(exact, X1, t), frs(full, X1, t)
            for d in dirs:
                assert abs(A.support(d) - B.support(d)) <= RECOVER_TOL
            for p in A.sample_points(15, t):
                assert B.contains_point(p)
            for p in B.sample_points(15, 50 + t):
                assert A.contains_point(p)
    _progress("3 (relaxation laws)", start, 600)


def test_criterion_4_relu_graph_fidelity():
    start = time.perf_counter()
    rng = np.random.default_rng(104)
    # exact graph vs the function on a 201-point grid, both directions
    iv = NeuronInterval(-1.3, 0.9)
    H = graph_interval(iv)
    span = iv.beta - iv.alpha
    for x in np.linspace(iv.alpha, iv.beta, 201):
        y = max(0.0, x)
        assert H.contains_point([x, y])
        assert not H.contains_point([x, y + 0.02 * span])
        assert not H.contains_point([x, y - 0.02 * span])
    # triangle relaxation contains the graph
    tri = graph_triangle(iv)
    for p in H.sample_points(100, 0):
        assert tri.contains_point(p)
    # triangle area matches -alpha*beta/2 for 50 random intervals
    from test_relu import triangle_vertices_from_supports
    for _ in range(50):
        alpha = -float(rng.uniform(0.05, 3.0))
        beta = float(rng.uniform(0.05, 3.0))
        t = graph_triangle(NeuronInterval(alpha, beta))
        area = polygon_area(triangle_vertices_from_supports(t))
        assert area == pytest.approx(-alpha * beta / 2.0, abs=AREA_TOL)
    _progress("4 (ReLU graph fidelity)", start, 60)


def test_criterion_5_intersection_identity():
    start = time.perf_counter()
    rng = np.random.default_rng(105)
    disagreements = 0
    total = 0
    for trial in range(20):
        dim_z = int(rng.integers(1, 3))
        dim_y = int(rng.integers(1, 3))
        Z = random_hz(rng, dim=dim_z, n_g=3, n_b=1, n_c=1)
        Y = random_hz(rng, dim=dim_y, n_g=2, n_b=1, n_c=1, scale=1.4)
        R = rng.normal(size=(dim_y, dim_z))
        out = Z.generalized_intersect(Y, R)
        pts = np.vstack([Z.sample_points(5, trial),
                         rng.normal(size=(5, dim_z)) * 1.5])
        for x in pts:
            total += 1
            if out.contains_point(x) != membership_predicate(Z, Y, R, x):
                disagreements += 1
    assert total == 200
    assert disagreements == 0
    _progress("5 (intersection identity)", start, 120)


def test_criterion_6_safety_verification():
    start = time.perf_counter()
    half = half_system()
    X = box([0.0], [1.0])
    X1 = box([0.5], [1.0])
    # analytic Safe and Unsafe fixtures through both routes
    safe_box, unsafe_box = box([2.0], [3.0]), box([0.2], [0.21])
    assert verify_forward(_series_for(half, X1, 5), safe_box).status is Safety.SAFE
    assert verify_backward(_series_for(half, X, 5), safe_box, X1).status is Safety.SAFE
    fwd = verify_forward(_series_for(half, X1, 5), unsafe_box)
    bwd_series = _series_for(half, X, 5)
    bwd = verify_backward(bwd_series, unsafe_box, X1)
    assert fwd.status is Safety.UNSAFE and bwd.status is Safety.UNSAFE
    for t, x1 in fwd.witnesses + bwd.witnesses:
        traj = simulate(half, x1, t)
        assert unsafe_box.contains_point(traj.states[t - 1])
    # unsafe-sequence seeds all reach the unsafe set at the reported step
    seq = unsafe_sequences(bwd_series, unsafe_box, X1, 3, k=10)
    for x1 in seq.seed_samples:
        traj = simulate(half, x1, 3)
        assert unsafe_box.contains_point(traj.states[2])
    # forward/backward agreement on exact plans across 20 random systems
    rng = np.random.default_rng(106)
    agreements = {"safe": 0, "unsafe": 0}
    done = 0
    while done < 20:
        m, X = random_system(rng, n=1, L=int(rng.integers(1, 3)))
        hull = X.interval_hull("exact")
        span = hull.upper - hull.lower
        X1 = box(hull.lower + 0.1 * span, hull.lower + 0.3 * span)
        if done % 2:
            # around a genuinely reached state: both routes must flag it
            target_state = simulate(m, X1.c, 3).states[2]
            O = box(target_state - 0.05 * span, target_state + 0.05 * span)
            if not X1.generalized_intersect(O).is_empty():
                continue
        else:
            # strictly above every interval-bounded state: certified safe
            tbl = propagate_intervals(m, hull, 4)
            top = max(float(np.max(iv.upper)) for (_, layer), iv in tbl.stages.items()
                      if layer == m.num_layers + 1)
            top = max(top, float(hull.upper[0]))
            O = box([top + 0.5 * span[0]], [top + 0.8 * span[0]])
        f = verify_forward(_series_for(m, X1, 4), O)
        b = verify_backward(_series_for(m, X, 4), O, X1)
        assert f.status is b.status
        if f.status is not Safety.UNKNOWN:
            agreements[f.status.value] += 1
        done += 1
    assert agreements["safe"] > 0 and agreements["unsafe"] > 0
    _progress("6 (safety verification)", start, 300)


def test_criterion_7_milp_engine():
    start = time.perf_counter()
    rng = np.random.default_rng(107)
    statuses = set()
    for _ in range(100):
        n = int(rng.integers(2, 9))
        nb = int(rng.integers(1, min(n, 8) + 1))
        m_rows = int(rng.integers(1, 4))
        A = rng.normal(size=(m_rows, n))
        b = rng.normal(size=m_rows)
        p = MilpProblem(LpProblem(rng.normal(size=n), A, b,
                                  -np.ones(n), np.ones(n)), tuple(range(nb)))
        res = milp_solve(p)
        status, obj, _ = milp_by_enumeration(p)
        statuses.add(status)
        assert res.status is status
        if status is SolveStatus.OPTIMAL:
            assert np.max(np.abs(A @ res.x - b)) <= MILP_FEAS_TOL
            assert res.objective <= obj + 1e-7
    assert statuses == {SolveStatus.OPTIMAL, SolveStatus.INFEASIBLE}
    _progress("7 (MILP engine vs enumeration)", start, 120)


def test_criterion_8_end_to_end_workflow_rerun(tmp_path):
    start = time.perf_counter()
    m = demo_system()
    lo, hi = demo_initial_box()
    X1 = box(lo, hi)
    T = 5
    # the demo workflow runs end to end through the CLI, emitting SVG/CSV
    from hzreach import save_model
    save_model(m, tmp_path / "model.json")
    X1.save(tmp_path / "initial.json")
    X1.save(tmp_path / "domain.json")
    series = _series_for(m, X1, T)
    reach_T = frs(series, X1, T)
    hull_T = reach_T.interval_hull("exact")
    target = box(hull_T.lower - 0.01, hull_T.midpoint)
    target.save(tmp_path / "target.json")
    fwd_out, bwd_out = tmp_path / "fwd", tmp_path / "bwd"
    assert main(["forward", "--model", str(tmp_path / "model.json"),
                 "--domain", str(tmp_path / "domain.json"),
                 "--initial", str(tmp_path / "initial.json"),
                 "-T", "5", "--dirs", "48", "--out", str(fwd_out)]) == 0
    assert main(["backward", "--model", str(tmp_path / "model.json"),
                 "--domain", str(tmp_path / "domain.json"),
                 "--initial", str(tmp_path / "initial.json"),
                 "--target", str(tmp_path / "target.json"),
                 "-T", "5", "--dirs", "48", "--out", str(bwd_out)]) == 0
    for t in range(2, 6):
        assert (fwd_out / f"frs_t{t}.json").exists()
        assert (fwd_out / f"frs_t{t}.svg").exists()
        assert (fwd_out / f"frs_t{t}_points.csv").exists()
        assert (bwd_out / f"brs_t{t}.json").exists()
    assert (bwd_out / "backward_summary.json").exists()
    # criterion-2 exactness on this system
    n = m.state_dim
    grid = grid_points(lo, hi, 21)
    for t in (3, 5):
        R = frs(series, X1, t)
        for x1 in grid:
            endpoint = simulate(m, x1, t).states[t - 1]
            assert R.contains_point(endpoint)
    S = series.pair_set(T)
    for p in S.sample_points(200, 8):
        traj = simulate(m, p[:n], T)
        assert np.max(np.abs(traj.states[T - 1] - p[n:])) <= PAIR_TOL
    # criterion-3 nesting across the binary-limit ladder
    tbl = series.plan.table
    n_total = len(tbl.unstable_index())
    assert n_total >= 4
    dirs = unit_directions(32, 2, seed=8)
    prev = None
    for n_b in sorted({0, n_total // 3, 2 * n_total // 3, n_total}):
        ladder = state_pairs(m, X1, rank_unstable(tbl, n_b))
        sup = np.array([frs(ladder, X1, T).support(d) for d in dirs])
        if prev is not None:
            assert np.all(sup <= prev + SUPPORT_MONO_TOL)
        prev = sup
    _progress("8 (workflow rerun)", start, 900)
