"""Shared fixtures and independent oracles for the test suite."""

import importlib.util
import itertools
from pathlib import Path

import numpy as np
import pytest

from hzreach import (FEAS_TOL, ClosedLoopRnn, HybridZonotope, LpProblem, RnnLayer,
                     SolveStatus, lp_solve)
from hzreach.bounds import ENCLOSURE_MARGIN
from hzreach.lp import LpSession, enumerate_binary_leaves, pinned_bounds
from hzreach.relu import relu_layer_output
from hzreach.systems import demo_system, gate_system, half_system


BENCH = Path(__file__).resolve().parent.parent / "bench"


def bench_module(name: str):
    """``bench/<name>.py`` imported unchanged from its file.  A module that
    imports another benchmark module needs ``BENCH`` on ``sys.path``."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def box(lo, hi) -> HybridZonotope:
    return HybridZonotope.from_box(lo, hi)


@pytest.fixture
def half():
    return half_system()


@pytest.fixture
def gate():
    return gate_system()


def flip_system() -> ClosedLoopRnn:
    """Scalar system x_{t+1} = max(0, 0.6 - 1.5 x_t).

    Oscillates between the two ReLU pieces, so the hidden pre-activation
    straddles zero at every step and the unstable count grows with the
    horizon; used where a ladder of binary limits is needed.
    """
    layer = RnnLayer(Wh=[[0.0]], Wx=[[-1.5]], vh=[0.6])
    return ClosedLoopRnn((layer,), Wy=[[1.0]], vy=[0.0])


def random_hz(rng, dim=2, n_g=3, n_b=2, n_c=2, scale=1.0) -> HybridZonotope:
    """Random nonempty hybrid zonotope, feasible by construction.

    The constraint right-hand side is generated from a random feasible factor
    assignment, so the set always contains at least one point.
    """
    Gc = scale * rng.normal(size=(dim, n_g))
    Gb = scale * rng.normal(size=(dim, n_b))
    c = scale * rng.normal(size=dim)
    xi_c = rng.uniform(-1, 1, size=n_g)
    xi_b = rng.choice([-1.0, 1.0], size=n_b)
    Ac = rng.normal(size=(n_c, n_g))
    Ab = rng.normal(size=(n_c, n_b))
    b = Ac @ xi_c + Ab @ xi_b
    return HybridZonotope(Gc, Gb, c, Ac, Ab, b)


def mixed_hz(rng, dim: int, n_g: int, side: float, delta: float) -> HybridZonotope:
    """A random set with one row and two leaves: its row holds exactly in
    one leaf and, pushed ``delta`` past the range of its continuous part on
    the ``side`` end, only within ``delta`` in the other."""
    a = rng.normal(size=n_g)
    reach = np.abs(a).sum()
    exact, grazing = rng.uniform(-0.9, 0.9) * reach, side * (reach + delta)
    xb = rng.choice([-1.0, 1.0])  # the grazing leaf
    return HybridZonotope(rng.normal(size=(dim, n_g)), rng.normal(size=(dim, 1)),
                          rng.normal(size=dim), [a], [[xb * (exact - grazing) / 2]],
                          [(exact + grazing) / 2])


def random_system(rng, n=None, L=None, max_width=4, gain=0.7):
    """Random contracting closed-loop RNN plus a nonnegative box domain."""
    n = int(rng.integers(1, 3)) if n is None else n
    L = int(rng.integers(1, 3)) if L is None else L
    widths = [int(rng.integers(1, max_width + 1)) for _ in range(L)]
    layers = []
    prev = n
    for w in widths:
        Wh = gain * rng.uniform(-1, 1, size=(w, w)) / max(w, 1)
        Wx = gain * rng.uniform(-1, 1, size=(w, prev)) / max(prev, 1)
        vh = rng.uniform(-0.3, 0.4, size=w)
        layers.append(RnnLayer(Wh, Wx, vh))
        prev = w
    Wy = gain * rng.uniform(-1, 1, size=(n, prev)) / max(prev, 1)
    vy = rng.uniform(-0.1, 0.3, size=n)
    model = ClosedLoopRnn(tuple(layers), Wy, vy)
    lo = rng.uniform(0.0, 0.3, size=n)
    domain = HybridZonotope.from_box(lo, lo + rng.uniform(0.3, 0.8, size=n))
    return model, domain


def random_case(rng, system: str):
    """A model and a box domain: ``random_system``'s, or for "demo" the
    demo model on a random box in the unit square, where the plain table
    leaves units unstable that linear bounds in x1 prove stable."""
    if system == "random":
        return random_system(rng)
    lo = rng.uniform(0.0, 0.7, size=2)
    return demo_system(0), HybridZonotope.from_box(lo, lo + rng.uniform(0.1, 0.3, size=2))


# Gaps about the row slack and about the margin of the symbolic pass's
# decisions: a margin too small for the slack would rule out a box at one of
# them that the LPs find within the slack.
GRAZING_GAPS = (-FEAS_TOL, 0.5 * FEAS_TOL, 2 * FEAS_TOL, 0.5 * ENCLOSURE_MARGIN,
                2 * ENCLOSURE_MARGIN, 10 * ENCLOSURE_MARGIN)


def grazing_boxes(S: HybridZonotope) -> list:
    """Boxes whose least first coordinate lies each of GRAZING_GAPS beyond
    the largest first coordinate over S, and that span S's other
    coordinates."""
    reach = S.interval_hull("generator_relaxed")
    top = S.support(np.eye(S.dim)[0])
    return [HybridZonotope.from_box(np.r_[top + gap, reach.lower[1:] - 1.0],
                                    np.r_[top + gap + 0.1, reach.upper[1:] + 1.0])
            for gap in GRAZING_GAPS]


def grid_points(lo, hi, k):
    """Regular k^n grid over a box, as an (k^n, n) array."""
    lo = np.asarray(lo, dtype=float).reshape(-1)
    hi = np.asarray(hi, dtype=float).reshape(-1)
    axes = [np.linspace(lo[i], hi[i], k) for i in range(lo.size)]
    return np.array([p for p in itertools.product(*axes)])


def unit_directions(k, dim, seed=0):
    rng = np.random.default_rng(seed)
    D = rng.normal(size=(k, dim))
    return D / np.linalg.norm(D, axis=1, keepdims=True)


def milp_by_enumeration(p):
    """Exhaustive oracle: best LP value over all 2^nb binary assignments."""
    lp = p.lp
    binaries = p.binary_index
    best_status = SolveStatus.INFEASIBLE
    best_obj, best_x = None, None
    for assignment in itertools.product((-1.0, 1.0), repeat=len(binaries)):
        lb, ub = lp.lb.copy(), lp.ub.copy()
        for i, v in zip(binaries, assignment):
            lb[i] = ub[i] = v
        res = lp_solve(LpProblem(lp.c, lp.A, lp.b, lb, ub))
        if res.status is SolveStatus.OPTIMAL:
            best_status = SolveStatus.OPTIMAL
            if best_obj is None or res.objective < best_obj:
                best_obj, best_x = res.objective, res.x
    return best_status, best_obj, best_x


def leaves_one_by_one(p) -> list:
    """Exhaustive leaf oracle: every {-1,+1} assignment of the binaries of
    ``p`` whose pinned LP is feasible, each solved by ``lp_solve``, listed
    lexicographically with -1 first."""
    return [list(xb) for xb in itertools.product((-1.0, 1.0), repeat=len(p.binary_index))
            if lp_solve(LpProblem(p.lp.c, p.lp.A, p.lp.b,
                                  *pinned_bounds(p, np.array(xb)))).is_optimal]


def leaves_in_index_order(p) -> list:
    """Depth-first leaf search that branches on the lowest-index free binary,
    the -1 branch first, and prunes infeasible relaxations: its leaves come
    out in lexicographic order."""
    binaries = list(p.binary_index)
    session = LpSession(LpProblem(np.zeros(p.lp.num_vars), p.lp.A, p.lp.b, p.lp.lb, p.lp.ub))
    leaves, stack = [], [(p.lp.lb.copy(), p.lp.ub.copy())]
    while stack:
        lb, ub = stack.pop()
        if not session.solve(lb=lb, ub=ub).is_optimal:
            continue
        i = next((j for j in binaries if lb[j] != ub[j]), None)
        if i is None:
            leaves.append(lb[binaries].tolist())
            continue
        for v in (1.0, -1.0):
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[i] = ub2[i] = v
            stack.append((lb2, ub2))
    return leaves


def certified_by_duals(fibers, slack, xb, x, costs):
    """Basis certificate oracle for ``_FiberBasis.certified``: one right-hand
    side per cost.  For the last LP of ``fibers`` at ``slack`` over fiber xb
    (solution x), solves B.T @ y = c_B for each row of ``costs`` and takes
    the reduced costs d = c - A.T @ y over the columns that can move and are
    nonbasic.  Returns the mask of costs whose d keep the optimal signs
    (tested without tolerance) and, per cost, the least |d| over those
    columns (inf when none is tested)."""
    session, p = fibers._sessions[slack]
    lb, ub = pinned_bounds(p, xb)
    k = len(costs)
    basic = session.basic_variables()
    if basic is None:
        return np.zeros(k, dtype=bool), np.full(k, np.inf)
    A = p.lp.A
    low, high = np.minimum(A * lb, A * ub), np.maximum(A * lb, A * ub)
    forcing = (p.lp.b == low.sum(axis=1)) | (p.lp.b == high.sum(axis=1))
    test = (lb < ub) & ~A[forcing].any(axis=0)
    logical = basic < 0
    columns = basic[~logical]
    test[columns] = False
    C = np.zeros((A.shape[1], k))
    C[:costs.shape[1]] = costs.T
    Bt = np.zeros((A.shape[0], A.shape[0]))  # B.T; a logical's row is +/-e_r, its cost 0
    Bt[~logical] = A[:, columns].T
    Bt[logical, -1 - basic[logical]] = 1.0
    cB = np.zeros((A.shape[0], k))
    cB[~logical] = C[columns]
    try:
        y = np.linalg.solve(Bt, cB)
    except np.linalg.LinAlgError:
        return np.zeros(k, dtype=bool), np.full(k, np.inf)
    d = C[test] - A[:, test].T @ y
    xt = x[test]
    at_lb, at_ub = (xt == lb[test])[:, None], (xt == ub[test])[:, None]
    mask = ~((d < 0) & ~at_ub | (d > 0) & ~at_lb).any(axis=0)
    margin = np.abs(d).min(axis=0) if d.shape[0] else np.full(k, np.inf)
    return mask, margin


def stages_by_full_hulls(m, X, plan) -> tuple[dict, list]:
    """Reference for ``state_pairs(..., hull_mode="exact")``: every ReLU
    stage takes the full exact interval hull of its stage set, computed
    anew (its own leaf search and fiber sessions), for every unit.  Returns
    the pair sets by step and, per stage in build order, ((t, layer), the
    stage's intervals)."""
    pairs, stages, prev_hidden, state_set = {}, [], [], X

    def stage(Z, t, layer):
        hull = Z.interval_hull("exact")
        stages.append(((t, layer), hull))
        return relu_layer_output(Z, hull, plan.relaxed(t, layer))

    for t in range(1, plan.table.horizon):
        new_hidden, inp = [], state_set
        for layer_no, layer in enumerate(m.layers, start=1):
            if t == 1:
                Z = inp.affine_map(layer.Wx, layer.vh)
            else:
                pair = prev_hidden[layer_no - 1].constrained_product(inp)
                Z = pair.affine_map(np.hstack([layer.Wh, layer.Wx]), layer.vh)
            inp = stage(Z, t, layer_no)
            new_hidden.append(inp)
        state_set = stage(inp.affine_map(m.Wy, m.vy), t, m.num_layers + 1)
        pairs[t + 1] = X.constrained_product(state_set)
        prev_hidden = new_hidden
    return pairs, stages


def member_within(Z, x, tol) -> bool:
    """Membership with every row within ``tol`` instead of FEAS_TOL: the
    point's intersection MILP at that slack, searched from the root."""
    p = Z.generalized_intersect(HybridZonotope.from_point(x))._rows.milp(slack=tol)
    return bool(enumerate_binary_leaves(p))


def membership_predicate(Z, Y, R, x):
    """Direct two-call oracle for the generalized-intersection identity."""
    return Z.contains_point(x) and Y.contains_point(R @ np.asarray(x))


def polygon_area(vertices) -> float:
    """Shoelace area of an ordered polygon."""
    v = np.asarray(vertices, dtype=float)
    if len(v) < 3:
        return 0.0
    x, y = v[:, 0], v[:, 1]
    return 0.5 * abs(np.dot(x, np.roll(y, -1)) - np.dot(y, np.roll(x, -1)))


def distance_to_convex_polygon(p, vertices) -> float:
    """Euclidean distance from p to an ordered convex polygon, which may be
    degenerate (a segment or a point); inf for no vertices."""
    v = np.asarray(vertices, dtype=float)
    p = np.asarray(p, dtype=float)
    if len(v) == 0:
        return float("inf")
    edges = np.roll(v, -1, axis=0) - v
    cross = edges[:, 0] * (p[1] - v[:, 1]) - edges[:, 1] * (p[0] - v[:, 0])
    if len(v) >= 3 and (np.all(cross >= 0) or np.all(cross <= 0)):
        return 0.0
    best = float("inf")
    for a, e in zip(v, edges):
        s = 0.0 if not e.any() else float(np.clip((p - a) @ e / (e @ e), 0.0, 1.0))
        best = min(best, float(np.linalg.norm(p - (a + s * e))))
    return best
