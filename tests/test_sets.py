import json
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hzreach import (FEAS_TOL, ComplexityRecord, EmptySetError, HybridZonotope,
                     LpProblem, PrefixMismatchError, lp_solve)
import hzreach.lp as lp_mod
from hzreach.lp import LpSession
from hzreach.relu import relu_layer_output
import hzreach.sets as sets_mod
from hzreach.sets import PASS_MIN, FiberLp

from hzreach.projection import emit_projection

from conftest import (box, certified_by_duals, member_within, membership_predicate, mixed_hz,
                      random_hz, unit_directions)

DATA = Path(__file__).parent / "data"


# -- affine map --------------------------------------------------------------

def test_affine_identity_is_bitwise_noop():
    rng = np.random.default_rng(0)
    Z = random_hz(rng)
    W = Z.affine_map(np.eye(2), np.zeros(2))
    for name in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
        assert np.array_equal(getattr(W, name), getattr(Z, name))


def test_affine_scales_box():
    Z = box([-1, -1], [1, 1]).affine_map(2 * np.eye(2))
    hull = Z.interval_hull("exact")
    assert np.allclose(hull.lower, [-2, -2]) and np.allclose(hull.upper, [2, 2])
    assert Z.contains_point([2, -2]) and not Z.contains_point([2.1, 0])


def test_affine_row_selector_keeps_first_coordinate():
    rng = np.random.default_rng(1)
    Z = random_hz(rng, dim=3, n_g=4, n_b=2, n_c=2)
    sel = Z.affine_map(np.array([[1.0, 0.0, 0.0]]))
    for k in range(100):
        xc = rng.uniform(-1, 1, size=Z.n_g)
        xb = rng.choice([-1.0, 1.0], size=Z.n_b)
        x = Z.Gc @ xc + Z.Gb @ xb + Z.c
        assert (sel.Gc @ xc + sel.Gb @ xb + sel.c)[0] == pytest.approx(x[0], abs=1e-12)


def test_affine_composition_supports_agree():
    rng = np.random.default_rng(2)
    Z = random_hz(rng, dim=3, n_g=5, n_b=2, n_c=2)
    R1, t1 = rng.normal(size=(3, 3)), rng.normal(size=3)
    R2, t2 = rng.normal(size=(2, 3)), rng.normal(size=2)
    stepwise = Z.affine_map(R1, t1).affine_map(R2, t2)
    fused = Z.affine_map(R2 @ R1, R2 @ t1 + t2)
    for d in unit_directions(32, 2, seed=3):
        assert stepwise.support(d) == pytest.approx(fused.support(d), abs=1e-9)


# -- generalized intersection ------------------------------------------------

def test_intersect_complexity_record():
    rng = np.random.default_rng(4)
    Z = random_hz(rng, dim=3, n_g=4, n_b=2, n_c=2)
    Y = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=1)
    R = rng.normal(size=(2, 3))
    out = Z.generalized_intersect(Y, R)
    assert out.complexity == ComplexityRecord(4 + 3, 2 + 1, 2 + 1 + 2)


def test_intersect_boxes():
    Z = box([-1, -1], [1, 1])
    Y = box([0, 0], [2, 2])
    out = Z.generalized_intersect(Y, np.eye(2))
    hull = out.interval_hull("exact")
    assert np.allclose(hull.lower, [0, 0], atol=1e-9)
    assert np.allclose(hull.upper, [1, 1], atol=1e-9)
    for corner, expect in [((0, 0), True), ((1, 1), True), ((-0.5, 0.5), False),
                           ((0.5, 0.5), True), ((1.5, 0.5), False)]:
        assert out.contains_point(corner) == expect


def test_intersect_membership_equivalence():
    rng = np.random.default_rng(5)
    Z = random_hz(rng, dim=2, n_g=4, n_b=1, n_c=1)
    Y = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=1)
    R = rng.normal(size=(2, 2))
    out = Z.generalized_intersect(Y, R)
    pts = np.vstack([Z.sample_points(100, 6),
                     Z.sample_points(100, 7) + rng.normal(size=(100, 2)) * 0.1])
    disagreements = 0
    for x in pts:
        if out.contains_point(x) != membership_predicate(Z, Y, R, x):
            disagreements += 1
    assert disagreements == 0


# -- cartesian and constrained products --------------------------------------

def test_cartesian_unit_intervals_make_square():
    sq = box([-1], [1]).cartesian_product(box([-1], [1]))
    assert sq.dim == 2
    hull = sq.interval_hull("exact")
    assert np.allclose(hull.lower, [-1, -1]) and np.allclose(hull.upper, [1, 1])


def test_cartesian_with_empty_is_empty():
    empty = HybridZonotope(Gc=[[1.0], [0.0]], c=[0.0, 0.0],
                           Ac=[[1.0]], Ab=None, b=[5.0])
    assert empty.is_empty()
    assert empty.cartesian_product(box([0], [1])).is_empty()
    assert box([0], [1]).cartesian_product(empty).is_empty()


def test_cartesian_complexity_adds():
    rng = np.random.default_rng(8)
    Z = random_hz(rng, dim=2, n_g=3, n_b=2, n_c=1)
    Y = random_hz(rng, dim=1, n_g=2, n_b=1, n_c=1)
    assert Z.cartesian_product(Y).complexity == Z.complexity + Y.complexity


def test_constrained_product_after_pipeline_ops():
    # Y built from Z by an affine map and a ReLU graph step satisfies the
    # prefix condition by construction, and the shared factors couple the
    # paired blocks: every sampled pair is (x, relu(M @ x + v)).
    from hzreach import relu_layer_graph
    rng = np.random.default_rng(9)
    Z = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=1)
    M, v = rng.normal(size=(2, 2)), rng.normal(size=2)
    A = Z.affine_map(M, v)
    _, Y = relu_layer_graph(A, A.interval_hull("generator_relaxed"), [False] * 2)
    prod = Z.constrained_product(Y)
    assert prod.dim == 4
    for p in prod.sample_points(50, 10):
        assert Z.contains_point(p[:2])
        assert Y.contains_point(p[2:])
        assert np.allclose(p[2:], np.maximum(M @ p[:2] + v, 0.0), atol=1e-7)


def test_constrained_product_with_factor_free_operand_is_cartesian():
    # With no factors or constraints to share, the product degenerates to the
    # Cartesian product (sets with factors would couple through the prefix).
    Z = HybridZonotope.from_point([0.5])
    Y = box([2], [3])
    prod = Z.constrained_product(Y)
    cart = Z.cartesian_product(Y)
    for d in unit_directions(16, 2, seed=11):
        assert prod.support(d) == pytest.approx(cart.support(d), abs=1e-9)


def test_constrained_product_prefix_mismatch():
    rng = np.random.default_rng(12)
    Z = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=2)
    Y = random_hz(rng, dim=2, n_g=4, n_b=1, n_c=2)  # unrelated constraints
    with pytest.raises(PrefixMismatchError):
        Z.constrained_product(Y)


# -- membership, emptiness ---------------------------------------------------

def test_contains_center_of_zonotope():
    rng = np.random.default_rng(13)
    Z = HybridZonotope(Gc=rng.normal(size=(3, 4)), c=rng.normal(size=3))
    assert Z.contains_point(Z.c)


def test_unit_box_excludes_outside_point():
    assert not box([-1, -1], [1, 1]).contains_point([2, 0])


def test_contains_forward_evaluated_factors():
    rng = np.random.default_rng(14)
    for trial in range(10):
        Z = random_hz(rng, dim=2, n_g=4, n_b=2, n_c=2)
        for p in Z.sample_points(10, trial):
            assert member_within(Z, p, 1e-9)


def test_box_membership_at_feas_tol():
    # the point's row 0.5 * xc + 0.5 = x0 with |xc| <= 1 needs a residual of
    # x0 - 1 beyond the box: 5e-7 exceeds FEAS_TOL, 5e-8 does not
    Z = box([0, 0], [1, 1])
    assert FEAS_TOL == 1e-7
    assert not Z.contains_point([1 + 5e-7, 0.5])
    assert Z.contains_point([1 + 5e-8, 0.5])


@pytest.mark.parametrize("x", [[np.nan, 0.5], [0.5, np.inf], [-np.inf, 0.5]])
def test_non_finite_point_is_a_value_error(x):
    with pytest.raises(ValueError):
        box([0, 0], [1, 1]).contains_point(x)


def test_is_empty_cases():
    assert not HybridZonotope(Gc=np.eye(2), c=[0, 0]).is_empty()
    assert not HybridZonotope(c=[1.0]).is_empty()
    # xc1 + xc2 = 3 over [-1,1]^2 is infeasible
    assert HybridZonotope(Gc=np.eye(2), c=[0, 0], Ac=[[1.0, 1.0]], b=[3.0]).is_empty()
    # xb1 + xc1 = 2 is feasible at (+1, +1)
    Z = HybridZonotope(Gc=[[1.0]], Gb=[[0.0]], c=[0.0], Ac=[[1.0]], Ab=[[1.0]], b=[2.0])
    assert not Z.is_empty()


def test_is_empty_matches_exhaustive_enumeration():
    rng = np.random.default_rng(15)
    from hzreach import LpProblem, SolveStatus, lp_solve
    import itertools
    seen = set()
    for trial in range(24):
        nb = 8 if trial < 3 else int(rng.integers(1, 7))
        dim, ng, nc = 2, int(rng.integers(1, 4)), 2
        Gc = rng.normal(size=(dim, ng))
        Gb = rng.normal(size=(dim, nb))
        Ac = rng.normal(size=(nc, ng))
        Ab = rng.normal(size=(nc, nb))
        b = rng.normal(size=nc) * 1.5
        Z = HybridZonotope(Gc, Gb, rng.normal(size=dim), Ac, Ab, b)
        feasible = False
        for xb in itertools.product((-1.0, 1.0), repeat=nb):
            res = lp_solve(LpProblem(np.zeros(ng), Ac, b - Ab @ np.array(xb),
                                     -np.ones(ng), np.ones(ng)))
            if res.status is SolveStatus.OPTIMAL:
                feasible = True
                break
        assert Z.is_empty() == (not feasible)
        seen.add(feasible)
    assert seen == {True, False}


# -- interval hull, support --------------------------------------------------

def test_hull_of_unit_box_both_modes():
    Z = box([-1, -1, -1], [1, 1, 1])
    for mode in ("exact", "generator_relaxed"):
        hull = Z.interval_hull(mode)
        assert np.allclose(hull.lower, -1) and np.allclose(hull.upper, 1)


def test_hull_degenerate_difference_coordinate():
    # x = xc1 - xc2 with constraint xc1 - xc2 = 0: exact hull {0}, relaxed [-2, 2]
    Z = HybridZonotope(Gc=[[1.0, -1.0]], c=[0.0], Ac=[[1.0, -1.0]], b=[0.0])
    exact = Z.interval_hull("exact")
    relaxed = Z.interval_hull("generator_relaxed")
    assert exact.lower[0] == pytest.approx(0.0, abs=1e-9)
    assert exact.upper[0] == pytest.approx(0.0, abs=1e-9)
    assert np.allclose([relaxed.lower[0], relaxed.upper[0]], [-2, 2])


def test_relaxed_hull_encloses_exact():
    rng = np.random.default_rng(16)
    for trial in range(50):
        Z = random_hz(rng, dim=int(rng.integers(1, 4)),
                      n_g=int(rng.integers(1, 5)), n_b=int(rng.integers(0, 3)),
                      n_c=int(rng.integers(0, 3)))
        exact = Z.interval_hull("exact")
        relaxed = Z.interval_hull("generator_relaxed")
        assert relaxed.encloses(exact, tol=1e-8)


def test_support_unit_box_and_zero_direction():
    Z = box([-1, -1], [1, 1])
    assert Z.support([1, 0]) == pytest.approx(1.0, abs=1e-9)
    assert Z.support([0, 0]) == pytest.approx(0.0, abs=1e-12)


def test_support_dominates_samples():
    rng = np.random.default_rng(17)
    Z = random_hz(rng, dim=2, n_g=4, n_b=2, n_c=2)
    d = rng.normal(size=2)
    s = Z.support(d)
    for x in Z.sample_points(100, 18):
        assert d @ x <= s + 1e-9


def test_support_of_empty_set_raises():
    empty = HybridZonotope(Gc=[[1.0]], c=[0.0], Ac=[[1.0]], b=[4.0])
    with pytest.raises(EmptySetError):
        empty.support([1.0])
    with pytest.raises(EmptySetError):
        empty.interval_hull("exact")
    with pytest.raises(EmptySetError):
        empty.sample_points(1, 0)


# -- sampling ------------------------------------------------------------

def test_samples_stay_in_unit_box():
    pts = box([-1, -1], [1, 1]).sample_points(20, 0)
    assert np.all(np.abs(pts) <= 1 + 1e-12)


def test_samples_of_point_set_collapse():
    Z = HybridZonotope.from_point([0.25, -0.5])
    pts = Z.sample_points(5, 1)
    assert np.allclose(pts, [0.25, -0.5])


def test_samples_pass_membership():
    rng = np.random.default_rng(19)
    Z = random_hz(rng, dim=3, n_g=5, n_b=3, n_c=3)
    for p in Z.sample_points(30, 2):
        assert member_within(Z, p, 1e-9)


def test_samples_and_projection_of_set_feasible_only_within_tolerance():
    # the row holds only within FEAS_TOL: emptiness and leaf enumeration call
    # the set nonempty, so support, hulls, sampling and projection must not
    # fail on it
    Z = HybridZonotope(Gc=np.eye(2), c=[0.0, 0.0], Ac=[[1.0, 0.0]], b=[1 + 5e-8])
    assert not Z.is_empty()
    assert Z.support([1.0, 0.0]) == pytest.approx(1.0, abs=1e-7)
    hull = Z.interval_hull("exact")
    assert hull.lower[0] == pytest.approx(1.0, abs=1e-7)
    assert hull.upper[1] == pytest.approx(1.0, abs=1e-7)
    pts = Z.sample_points(20, 0)
    assert np.all(np.abs(pts[:, 0] - 1.0) <= 1e-7)
    assert np.all(np.abs(pts[:, 1]) <= 1.0)
    polys = emit_projection(Z, (0, 1), 16)
    assert len(polys) == 1
    assert np.max(polys[0][:, 0]) == pytest.approx(1.0, abs=1e-7)


def _grazed(Z: HybridZonotope, row: int, side: float, delta: float) -> HybridZonotope:
    """Z with the right-hand side of one row pushed ``delta`` past the range
    its left-hand side spans under the other rows, on the ``side`` (+1 or -1)
    end: the rows then hold together only within ``delta``."""
    others = [i for i in range(Z.n_c) if i != row]
    lhs = HybridZonotope(Gc=Z.Ac[[row]], Gb=Z.Ab[[row]], c=[0.0],
                         Ac=Z.Ac[others], Ab=Z.Ab[others], b=Z.b[others])
    b = Z.b.copy()
    b[row] = side * (lhs.support([side]) + delta)
    return HybridZonotope(Z.Gc, Z.Gb, Z.c, Z.Ac, Z.Ab, b)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["random", "grazed", "mixed"]),
       dim=st.integers(2, 3), n_g=st.integers(2, 4), n_b=st.integers(0, 2),
       n_c=st.integers(1, 2), row=st.integers(0, 1), side=st.sampled_from([-1.0, 1.0]),
       delta=st.floats(0.0, FEAS_TOL / 2))
def test_queries_of_nonempty_sets_succeed_and_samples_lie_in_hull(seed, source, dim, n_g, n_b,
                                                                   n_c, row, side, delta):
    # one tolerance rule: a set that emptiness calls nonempty, grazing ones
    # included, is nonempty to every optimizing query, and a leaf that holds
    # its rows only within FEAS_TOL counts in support and hulls as it does
    # in samples and projections, also beside a leaf that holds them exactly
    rng = np.random.default_rng(seed)
    if source == "mixed":
        Z = mixed_hz(rng, dim, n_g, side, delta)
        assert len(Z.feasible_binary_assignments()) == 2
    else:
        Z = random_hz(rng, dim=dim, n_g=n_g, n_b=n_b, n_c=n_c)
        if source == "grazed":
            Z = _grazed(Z, row % n_c, side, delta)
    if Z.is_empty():
        return
    d = rng.standard_normal(dim)
    hull = Z.interval_hull("exact")
    pts = Z.sample_points(20, seed % 1000)
    assert np.max(pts @ d) <= Z.support(d) + 1e-6
    assert np.all(pts >= hull.lower - 1e-6) and np.all(pts <= hull.upper + 1e-6)
    polys = emit_projection(Z, (0, 1), 16)
    assert polys
    vertices = np.vstack(polys)
    assert np.all(vertices >= hull.lower[:2] - 1e-6) and np.all(vertices <= hull.upper[:2] + 1e-6)


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["random", "grazed", "flat"]),
       n_g=st.integers(2, 5), n_b=st.integers(0, 3), n_c=st.integers(1, 3),
       side=st.sampled_from([-1.0, 1.0]), delta=st.floats(0.0, FEAS_TOL / 2))
def test_membership_from_cached_leaves_matches_root_search(seed, source, n_g, n_b, n_c,
                                                           side, delta):
    # a set with cached leaves searches a point's intersection among them; a
    # fresh copy of the same blocks has none and searches from the root: both
    # must agree on members and on members moved by 0.5 and 3 FEAS_TOL
    rng = np.random.default_rng(seed)
    if source == "flat":
        Z = HybridZonotope.load(DATA / "flat_fibers.json")
    else:
        Z = random_hz(rng, dim=2, n_g=n_g, n_b=n_b, n_c=n_c)
        if source == "grazed":
            Z = _grazed(Z, seed % n_c, side, delta)
    if Z.is_empty():
        return
    fresh = HybridZonotope(Z.Gc, Z.Gb, Z.c, Z.Ac, Z.Ab, Z.b)
    members = Z.sample_points(8, seed % 1000)
    point = HybridZonotope.from_point(members[0])
    assert Z.generalized_intersect(point)._rows.candidates is not None
    assert fresh.generalized_intersect(point)._rows.candidates is None
    moves = rng.choice([-1.0, 1.0], size=(8, 2))
    for x in np.vstack([members, members + 0.5 * FEAS_TOL * moves,
                        members + 3 * FEAS_TOL * moves]):
        assert Z.contains_point(x) == fresh.contains_point(x)
    assert all(Z.contains_point(x) for x in members)


def test_binary_leaves_enumerated_once_per_set(monkeypatch):
    import hzreach.sets as sets_mod
    calls = []
    real = sets_mod.enumerate_binary_leaves
    monkeypatch.setattr(sets_mod, "enumerate_binary_leaves",
                        lambda *a, **kw: calls.append(1) or real(*a, **kw))
    # two squares side by side, each cut to x_0 >= xb - 0.1 by xc_0 + xc_2 = 0.5
    Z = HybridZonotope(Gc=[[0.2, 0.0, 0.0], [0.0, 0.2, 0.0]], Gb=[[1.0], [0.0]],
                       c=[0.0, 0.0], Ac=[[1.0, 0.0, 1.0]], Ab=[[0.0]], b=[0.5])
    Z.sample_points(10, 0)
    assert len(emit_projection(Z, (0, 1), 8)) == 2
    assert not Z.is_empty()
    assert Z.support([1.0, 0.0]) == pytest.approx(1.2, abs=1e-9)
    hull = Z.interval_hull("exact")
    assert np.allclose([hull.lower[0], hull.upper[0]], [-1.1, 1.2], atol=1e-9)
    leaves = Z.feasible_binary_assignments()
    assert len(calls) == 1 and len(leaves) == 2
    with pytest.raises(ValueError):
        leaves[0][0] = 1.0


def test_leaf_cap_fails_fast_naming_the_set(monkeypatch):
    # 2^14 leaves, all feasible: a cap of 50 stops the enumeration after 51
    monkeypatch.setattr(lp_mod, "LEAF_LIMIT", 50)
    Z = HybridZonotope(Gc=[[1.0]], Gb=np.ones((1, 14)), c=[0.0],
                       Ac=[[1.0]], Ab=np.zeros((1, 14)), b=[0.0])
    start = time.perf_counter()
    with pytest.raises(RuntimeError, match=r"n_g=1, n_b=14, n_c=1.*stopped at 51"):
        Z.feasible_binary_assignments()
    assert time.perf_counter() - start < 10.0


def test_support_and_hull_include_leaf_feasible_only_within_tolerance():
    # leaf xb = -1 holds its row exactly at x = -1 - 5e-8; leaf xb = +1 only
    # within FEAS_TOL, at x = 1 + 5e-8.  Rows are held exactly first in each
    # leaf on its own, so the grazing leaf counts, as it does for sampling.
    Z = HybridZonotope(Gc=[[1.0]], Gb=[[2.0]], c=[0.0], Ac=[[1.0]], Ab=[[1.0]], b=[-5e-8])
    assert len(Z.feasible_binary_assignments()) == 2
    assert Z.support([1.0]) == pytest.approx(1.0 + 5e-8, abs=1e-12)
    hull = Z.interval_hull("exact")
    assert hull.lower[0] == pytest.approx(-1.0 - 5e-8, abs=1e-12)
    assert hull.upper[0] == pytest.approx(1.0 + 5e-8, abs=1e-12)
    pts = Z.sample_points(50, 0)
    assert np.all((pts >= hull.lower) & (pts <= hull.upper))


def test_samples_deterministic_for_seed():
    rng = np.random.default_rng(20)
    Z = random_hz(rng, dim=2, n_g=4, n_b=2, n_c=2)
    assert np.array_equal(Z.sample_points(10, 5), Z.sample_points(10, 5))


def test_samples_follow_draw_order_of_one_shot_reference():
    # draws are solved grouped by leaf; row j must still be the j-th draw
    # (a leaf, then a cost) solved on its own
    Z = random_hz(np.random.default_rng(23), dim=2, n_g=4, n_b=3, n_c=1)
    leaves = Z.feasible_binary_assignments()
    assert len(leaves) >= 3
    k, seed = 40, 9
    rng = np.random.default_rng(seed)
    ref = np.empty((k, Z.dim))
    ones = np.ones(Z.n_g)
    for j in range(k):
        xb = leaves[int(rng.integers(len(leaves)))]
        cost = rng.standard_normal(Z.n_g)
        res = lp_solve(LpProblem(cost, Z.Ac, Z.b - Z.Ab @ xb, -ones, ones))
        assert res.is_optimal
        ref[j] = Z.Gc @ res.x + Z.Gb @ xb + Z.c
    # points differ within a leaf, so a reordering of its rows shows
    assert len({tuple(row) for row in np.round(ref, 6)}) > len(leaves)
    assert np.max(np.abs(Z.sample_points(k, seed) - ref)) <= 1e-9
    # one leaf, without binaries or with one feasible assignment of two: all
    # costs come from one call, bit for bit the per-draw loop's points
    rng = np.random.default_rng(24)
    for W in (random_hz(rng, dim=2, n_g=4, n_b=0, n_c=1), mixed_hz(rng, 2, 4, 1.0, 1.0)):
        (xb,) = W.feasible_binary_assignments()
        draws = np.random.default_rng(seed)
        costs = np.empty((k, W.n_g))
        for j in range(k):
            assert draws.integers(1) == 0
            costs[j] = draws.standard_normal(W.n_g)
        assert np.array_equal(W.sample_points(k, seed), W._points(xb, costs, FiberLp(W)))


# -- soundness of the intersection identity -----------------------------------

def test_intersection_identity_on_random_triples():
    rng = np.random.default_rng(21)
    total = 0
    for trial in range(5):
        Z = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=1)
        Y = random_hz(rng, dim=2, n_g=2, n_b=1, n_c=1, scale=1.5)
        R = rng.normal(size=(2, 2))
        out = Z.generalized_intersect(Y, R)
        pts = np.vstack([Z.sample_points(20, 100 + trial),
                         rng.normal(size=(20, 2))])
        for x in pts:
            total += 1
            assert out.contains_point(x) == membership_predicate(Z, Y, R, x)
    assert total == 200


# -- serialization -------------------------------------------------------

def test_json_round_trip_bitwise():
    rng = np.random.default_rng(22)
    Z = random_hz(rng, dim=3, n_g=4, n_b=2, n_c=2)
    back = HybridZonotope.from_json_dict(json.loads(json.dumps(Z.to_json_dict())))
    for name in ("Gc", "Gb", "c", "Ac", "Ab", "b"):
        assert np.array_equal(getattr(back, name), getattr(Z, name))


def test_json_omits_empty_blocks():
    Z = box([0], [1])
    d = Z.to_json_dict()
    assert set(d) == {"c", "Gc"}
    back = HybridZonotope.from_json_dict(d)
    assert back.n_b == 0 and back.n_c == 0


def test_json_point_set():
    Z = HybridZonotope.from_point([1.5])
    back = HybridZonotope.from_json_dict(Z.to_json_dict())
    assert back.n_g == 0 and np.array_equal(back.c, [1.5])


def test_immutability():
    Z = box([0], [1])
    with pytest.raises(AttributeError):
        Z.c = np.zeros(1)
    with pytest.raises(ValueError):
        Z.Gc[0, 0] = 5.0


def test_stalled_primal_resolve_is_redone_by_dual():
    # a random set (conftest.random_hz) on which a primal warm re-solve of a
    # fiber LP ends with HiGHS model status "Unknown": the session must redo
    # it by dual simplex instead of failing the query.  Its four leaves split
    # even 2 * PASS_MIN draws into batches too small for the simplex pass,
    # so HiGHS answers every draw
    Z = HybridZonotope.load(DATA / "stalled_primal.json")
    polys = emit_projection(Z, (0, 1), 3)
    assert [len(p) for p in polys] == [len(p) for p in emit_projection(Z, (0, 1), 16)]
    for samples in (40, 2 * PASS_MIN):
        for p in Z.sample_points(samples, 0):
            assert member_within(Z, p, 1e-9)


# -- fiber point batches and their basis certificates ------------------------

def _fiber_reference(Z: HybridZonotope, xb: np.ndarray, cost: np.ndarray) -> float:
    """min of cost @ xc over fiber xb by one-shot LP: rows exact if they can
    be, else each within FEAS_TOL (a residual column per row)."""
    A = np.hstack([Z.Ac, np.eye(Z.n_c)])
    c = np.concatenate([cost, np.zeros(Z.n_c)])
    for slack in (0.0, FEAS_TOL):
        bound = np.concatenate([np.ones(Z.n_g), np.full(Z.n_c, slack)])
        res = lp_solve(LpProblem(c, A, Z.b - Z.Ab @ xb, -bound, bound))
        if res.is_optimal:
            return res.objective
    raise AssertionError("enumerated fiber infeasible")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["random", "grazed", "flat"]),
       n_g=st.integers(2, 5), n_b=st.integers(0, 2), n_c=st.integers(1, 3),
       side=st.sampled_from([-1.0, 1.0]), delta=st.floats(0.0, FEAS_TOL / 2))
def test_fiber_point_batches_are_optimal_members(seed, source, n_g, n_b, n_c, side, delta):
    # every cost of a batch, answered by an LP, by a basis certificate or by
    # the simplex pass, gets the one-shot LP's objective and a point of the
    # set.  These small fibers have so few vertices that certification never
    # stops, so batches of 2 * PASS_MIN costs then certify nothing: the pass
    # takes every cost after the first LP, on the FEAS_TOL session for a
    # grazed fiber
    rng = np.random.default_rng(seed)
    if source == "flat":
        Z = HybridZonotope.load(DATA / "flat_fibers.json")
    else:
        Z = random_hz(rng, dim=2, n_g=n_g, n_b=n_b, n_c=n_c)
        if source == "grazed":
            Z = _grazed(Z, seed % n_c, side, delta)
    leaves = Z.feasible_binary_assignments()
    if not leaves:
        return
    fibers = FiberLp(Z)
    picked = [leaves[i] for i in rng.permutation(len(leaves))[:3]]

    def check_batches(k):
        for xb in picked:
            costs = rng.standard_normal((k, Z.n_g))
            costs[k // 2:] = costs[:k - k // 2] * rng.uniform(0.5, 2.0, size=(k - k // 2, 1))
            for cost, xc in zip(costs, fibers.minimizers(xb, costs)):
                assert cost @ xc == pytest.approx(_fiber_reference(Z, xb, cost), abs=1e-9)
                assert Z.contains_point(Z.Gc @ xc + Z.Gb @ xb + Z.c)

    check_batches(6 if source == "flat" else 20)
    answered = []
    pivoted = fibers._pivoted

    def counted(*args):
        done, x = pivoted(*args)
        answered.append(done.sum())
        return done, x
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fibers, "_certified", lambda slack, x, costs: np.zeros(len(costs), bool))
        mp.setattr(fibers, "_pivoted", counted)
        check_batches(2 * PASS_MIN)
    assert len(answered) == len(picked) and sum(answered) > 0


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), source=st.sampled_from(["random", "mixed", "flat"]),
       n_g=st.integers(2, 5), n_b=st.integers(0, 2), n_c=st.integers(1, 3),
       side=st.sampled_from([-1.0, 1.0]), delta=st.floats(0.0, FEAS_TOL / 2))
def test_certificate_matches_dual_oracle(seed, source, n_g, n_b, n_c, side, delta):
    # one solve over the tested columns certifies the costs that solving
    # B.T @ y = c_B per cost does, wherever no reduced cost is near zero,
    # and a certified cost has the one-shot LP's objective
    rng = np.random.default_rng(seed)
    if source == "flat":
        Z = HybridZonotope.load(DATA / "flat_fibers.json")
    elif source == "mixed":
        Z = mixed_hz(rng, 2, n_g, side, delta)
    else:
        Z = random_hz(rng, dim=2, n_g=n_g, n_b=n_b, n_c=n_c)
    fibers = FiberLp(Z)
    for i in rng.permutation(len(Z.feasible_binary_assignments()))[:3]:
        xb = Z.feasible_binary_assignments()[i]
        costs = rng.standard_normal((40, Z.n_g))
        costs[20:] = costs[0] * rng.uniform(0.5, 2.0, size=(20, 1))  # share its basis
        costs[30:] += 1e-3 * rng.standard_normal((10, Z.n_g))
        slack = 0.0
        res = fibers._solve(slack, xb, costs[0])
        if not res.is_optimal:
            slack = FEAS_TOL
            res = fibers._solve(slack, xb, costs[0])
        assert res.is_optimal
        mask = fibers._certified(slack, res.x, costs[1:])
        ref, margin = certified_by_duals(fibers, slack, res.x, costs[1:])
        clear = margin > 1e-9
        assert np.array_equal(mask[clear], ref[clear])
        for cost in costs[1:][mask]:
            assert cost @ res.x[:Z.n_g] == pytest.approx(_fiber_reference(Z, xb, cost), abs=1e-9)


def _count_solves(monkeypatch) -> list:
    """Patch LpSession.solve to record each result; the list of results."""
    results = []
    real = LpSession.solve

    def counted(self, *args, **kwargs):
        results.append(real(self, *args, **kwargs))
        return results[-1]
    monkeypatch.setattr(LpSession, "solve", counted)
    return results


def test_sampling_pays_one_lp_per_optimal_basis(monkeypatch):
    # 500 draws over the 7 leaves reach few vertices of each fiber
    Z = HybridZonotope.load(DATA / "flat_fibers.json")
    assert len(Z.feasible_binary_assignments()) == 7
    solves = _count_solves(monkeypatch)
    pts = Z.sample_points(500, 1)
    assert len(solves) <= 100
    for p in pts[::25]:
        assert Z.contains_point(p)


def _unpivoted(duplicate: bool):
    """A simplex pass that claims every cost stopped at the start basis,
    with its first column twice (a singular basis) if ``duplicate``."""
    def pivot(self, basis, inverse, x, C):
        bases = np.repeat(basis[None], len(C), axis=0)
        if duplicate:
            bases[:, 1] = bases[:, 0]
        return np.ones(len(C), dtype=bool), bases, np.repeat(x[None], len(C), axis=0)
    return pivot


@pytest.mark.parametrize("variant", ["pass", "one-pivot", "unpivoted", "singular"])
def test_many_vertex_fiber_pivots_its_draws_in_one_pass(monkeypatch, variant):
    # the binary-free FRS_2 of the tight-relaxed bench workload: its 500
    # draws reach hundreds of vertices, so the first LP's basis certifies
    # none of the rest and the simplex pass answers them from that basis.
    # HiGHS answers what the pass leaves: costs still pivoting at a cap of
    # one pivot, and bases that fail the fresh check, as the start basis
    # does for nearly every cost and a singular basis for all of them.
    # Either way each point is the one-shot LP's of its draw
    Z = HybridZonotope.load(DATA / "many_vertex_fiber.json")
    assert (Z.n_b, Z.n_c, Z.n_g) == (0, 14, 24)
    if variant == "one-pivot":
        monkeypatch.setattr(sets_mod, "PASS_PIVOTS", 1)
    elif variant != "pass":
        monkeypatch.setattr(sets_mod._BoundedSimplex, "_pivot",
                            _unpivoted(variant == "singular"))
    solves = _count_solves(monkeypatch)
    pts = Z.sample_points(500, 1)
    assert len(solves) <= 20 if variant == "pass" else len(solves) >= 400
    ones = np.ones(Z.n_g)
    for cost, p in zip(np.random.default_rng(1).standard_normal((500, Z.n_g)), pts):
        res = lp_solve(LpProblem(cost, Z.Ac, Z.b, -ones, ones))
        assert np.max(np.abs(Z.Gc @ res.x + Z.c - p)) <= 1e-9


def test_fiber_feasible_only_within_tolerance_pays_one_exact_lp_per_batch(monkeypatch):
    Z = HybridZonotope(Gc=np.eye(2), c=[0.0, 0.0], Ac=[[1.0, 0.0]], b=[1 + 5e-8])
    (xb,) = Z.feasible_binary_assignments()
    solves = _count_solves(monkeypatch)
    fibers = FiberLp(Z)
    rng = np.random.default_rng(0)
    for batch in range(2):
        pts = Z._points(xb, rng.standard_normal((30, 2)), fibers)
        infeasible = [r for r in solves if not r.is_optimal]
        assert len(infeasible) == batch + 1
        assert np.all(np.abs(pts[:, 0] - 1.0) <= 1e-7)
        assert np.all(np.abs(np.abs(pts[:, 1]) - 1.0) <= 1e-12)
    assert len(solves) < 30


def test_fiber_points_with_an_all_zero_row(monkeypatch):
    # the rows have no nonzero, so HiGHS solves without a factorization and
    # has no basis to read (asking for it crashes): every cost is solved,
    # also in a batch large enough for the simplex pass, which needs a basis
    rng = np.random.default_rng(11)
    G = rng.normal(size=(2, 12))
    c = rng.normal(size=2)
    Z = HybridZonotope(Gc=G, c=c, Ac=np.zeros((1, 12)), b=np.zeros(1))
    solves = _count_solves(monkeypatch)
    for k in (8, 2 * PASS_MIN):
        costs = rng.standard_normal((k, 12))
        solves.clear()
        pts = Z._points(np.zeros(0), costs, FiberLp(Z))
        assert len(solves) == k
        assert np.max(np.abs(pts - (-np.sign(costs) @ G.T + c))) <= 1e-12


def _regenerated(rng, Z: HybridZonotope, dim: int) -> HybridZonotope:
    """A set on Z's rows (their record shared) under a new random generator map."""
    return HybridZonotope._on_rows(rng.normal(size=(dim, Z.n_g)), rng.normal(size=(dim, Z.n_b)),
                                   rng.normal(size=dim), Z)


def test_shared_fiber_lp_needs_the_same_rows_and_factors():
    # a scope hands one FiberLp to every set built on one row record and to
    # no other: a set with equal rows built apart gets its own, as does a
    # set on other rows, and a query without a scope always a new one
    rng = np.random.default_rng(3)
    Z = random_hz(rng, dim=2, n_g=4, n_b=2, n_c=2)
    scope = {}
    fibers = Z._fibers(scope)
    P = Z.affine_map(rng.normal(size=(3, 2)))
    for Y in (_regenerated(rng, Z, 3), P, Z.project([1]), Z.constrained_product(P)):
        assert Y._fibers(scope) is fibers
    b, Ac = Z.b.copy(), Z.Ac.copy()
    b[0] += 1e-12
    Ac[1, 2] = -Ac[1, 2]
    others = [HybridZonotope(Z.Gc, Z.Gb, Z.c, Z.Ac, Z.Ab, Z.b),
              HybridZonotope(Z.Gc, Z.Gb, Z.c, Z.Ac, Z.Ab, b),
              HybridZonotope(Z.Gc, Z.Gb, Z.c, Ac, Z.Ab, Z.b),
              random_hz(rng, dim=2, n_g=5, n_b=2, n_c=2),
              random_hz(rng, dim=2, n_g=4, n_b=1, n_c=2),
              random_hz(rng, dim=2, n_g=4, n_b=2, n_c=3)]
    for other in others:
        assert other._fibers(scope) is not fibers
    assert len(scope) == 1 + len(others)
    assert Z._fibers(None) is not Z._fibers(None)
    # a generator map takes rows only with their factor counts; without
    # rows, only the factor counts tell the sets apart
    for n_g, n_b in ((5, 2), (4, 1)):
        with pytest.raises(ValueError, match="factor counts differ"):
            HybridZonotope._on_rows(np.ones((2, n_g)), np.ones((2, n_b)), np.zeros(2), Z)
    with pytest.raises(ValueError, match="factor counts differ"):
        HybridZonotope._on_rows([[1.0, 2.0, 3.0]], None, [0.0],
                                HybridZonotope(Gc=[[1.0, 2.0]], c=[0.0]))


@pytest.mark.parametrize("source,seed", [("random", 0), ("random", 1), ("random", 2),
                                         ("binary-free", 3), ("flat", 4), ("mixed", 5),
                                         ("mixed", 6)])
def test_shared_fiber_lp_returns_the_fresh_maximizers(source, seed):
    # one scope's FiberLp serves sets on one row record that differ in their
    # generator map, its sessions warm from the last set's costs, and gives
    # each set the maximizers and leaves of a fresh copy of its blocks.  The
    # flat fibers hold their rows exactly; one leaf of each mixed set takes
    # the FEAS_TOL fallback, so its slack session is shared too
    rng = np.random.default_rng(seed)
    if source == "flat":
        Z = HybridZonotope.load(DATA / "flat_fibers.json")
    elif source == "mixed":
        Z = mixed_hz(rng, 2, 5, rng.choice([-1.0, 1.0]), FEAS_TOL / 2)
    else:
        Z = random_hz(rng, dim=2, n_g=5, n_b=0 if source == "binary-free" else 2, n_c=3)
    leaves = Z.feasible_binary_assignments()
    scope = {}
    fibers = Z._fibers(scope)
    for xb in leaves:
        Z._points(xb, -(unit_directions(8, 2, seed) @ Z.Gc), fibers)
    for k, Y in enumerate([Z.affine_map(rng.normal(size=(3, 2)), rng.normal(size=3)),
                           _regenerated(rng, Z, 3), _regenerated(rng, Z, 2)]):
        assert Y._fibers(scope) is fibers
        copy = HybridZonotope(Y.Gc, Y.Gb, Y.c, Y.Ac, Y.Ab, Y.b)
        assert [xb.tolist() for xb in Y.feasible_binary_assignments()] == [
            xb.tolist() for xb in copy.feasible_binary_assignments()]
        dirs = unit_directions(12, Y.dim, 10 * seed + k)
        for xb in leaves:
            fresh = copy._points(xb, -(dirs @ Y.Gc), FiberLp(copy))
            assert np.max(np.abs(Y._points(xb, -(dirs @ Y.Gc), fibers) - fresh)) <= 1e-9
        fresh = copy._leaf_maximizers(dirs, "test")
        assert np.max(np.abs(Y._leaf_maximizers(dirs, "test", scope) - fresh)) <= 1e-9
    assert (FEAS_TOL in fibers._sessions) == (source == "mixed")


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n_g=st.integers(2, 5), n_b=st.integers(1, 3),
       n_c=st.integers(1, 3))
def test_sets_on_unchanged_rows_run_one_leaf_search(seed, n_g, n_b, n_c):
    # an affine map, a projection, a constrained product and a ReLU layer
    # with no unstable unit keep their operand's rows: with it, they run
    # one leaf search, and find the leaves a fresh copy of their blocks finds
    import hzreach.sets as sets_mod
    rng = np.random.default_rng(seed)
    Z = random_hz(rng, dim=2, n_g=n_g, n_b=n_b, n_c=n_c)
    P = Z.affine_map(rng.normal(size=(3, 2)), rng.normal(size=3))
    up = Z.affine_map(np.eye(2), 1.0 - Z.interval_hull("generator_relaxed").lower)
    hull = up.interval_hull("generator_relaxed")  # positive: every unit is stable
    derived = [P, Z.project([1]), Z.constrained_product(P),
               relu_layer_output(up, hull, [False] * 2)]
    searches = []
    real = sets_mod.enumerate_binary_leaves
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(sets_mod, "enumerate_binary_leaves",
                   lambda *a, **kw: searches.append(1) or real(*a, **kw))
        found = [S.feasible_binary_assignments() for S in derived + [Z]]
    assert len(searches) == 1
    for S, leaves in zip(derived, found):
        copy = HybridZonotope(S.Gc, S.Gb, S.c, S.Ac, S.Ab, S.b)
        assert [xb.tolist() for xb in leaves] == [
            xb.tolist() for xb in copy.feasible_binary_assignments()]


def test_binary_free_set_solves_its_fiber_without_a_leaf_search(monkeypatch):
    # support and the exact hull of a set without binaries solve its one
    # fiber directly: one session each, and no leaf search runs first
    rng = np.random.default_rng(4)
    Z = random_hz(rng, dim=3, n_g=5, n_b=0, n_c=2)
    searched = HybridZonotope(Z.Gc, Z.Gb, Z.c, Z.Ac, Z.Ab, Z.b)
    assert len(searched.feasible_binary_assignments()) == 1
    d = rng.normal(size=3)
    sessions = []
    init = LpSession.__init__
    monkeypatch.setattr(LpSession, "__init__",
                        lambda self, *a, **kw: sessions.append(1) or init(self, *a, **kw))
    assert Z.support(d) == searched.support(d)
    hull, ref = Z.interval_hull("exact"), searched.interval_hull("exact")
    assert np.array_equal(hull.lower, ref.lower) and np.array_equal(hull.upper, ref.upper)
    assert len(sessions) == 4 and Z._rows.leaves is None
    empty = HybridZonotope(Gc=[[1.0, 0.5]], c=[0.0], Ac=[[1.0, 1.0]], b=[2.5])
    with pytest.raises(EmptySetError, match="support of an empty set"):
        empty.support([1.0])
    assert empty._rows.leaves is None
