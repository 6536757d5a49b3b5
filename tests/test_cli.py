import json
from pathlib import Path

import numpy as np
import pytest

import hzreach.lp
from hzreach import (EmptySetError, HybridZonotope, LpProblem, NeuronInterval, exact_plan,
                     frs, lp_solve, propagate_intervals, rank_unstable, save_model, simulate,
                     state_pairs, verify_backward, verify_forward)
from hzreach.cli import build_parser, main
from hzreach.lp import LpSession
from hzreach.projection import emit_projection, write_points_csv, write_svg
from hzreach.sets import FiberLp
from hzreach.relu import graph_triangle
from hzreach.systems import demo_initial_box, demo_system, gate_system, half_system

from conftest import box, distance_to_convex_polygon, polygon_area


# -- projection polygons -------------------------------------------------

def test_unit_box_projects_to_square():
    Z = box([-1, -1], [1, 1])
    polys = emit_projection(Z, (0, 1), 64)
    assert len(polys) == 1
    poly = polys[0]
    for d in (np.array([1.0, 0]), np.array([0, 1.0]),
              np.array([-1.0, 0]), np.array([0, -1.0])):
        assert np.max(poly @ d) == pytest.approx(1.0, abs=1e-9)
    assert polygon_area(poly) == pytest.approx(4.0, abs=1e-8)
    for corner in ([1, 1], [-1, 1], [1, -1], [-1, -1]):
        assert np.min(np.linalg.norm(poly - np.asarray(corner), axis=1)) <= 1e-9


def test_triangle_projection_area():
    for alpha, beta in [(-1.0, 1.0), (-2.0, 0.5), (-0.4, 1.6)]:
        tri = graph_triangle(NeuronInterval(alpha, beta))
        polys = emit_projection(tri, (0, 1), 96)
        assert len(polys) == 1
        assert polygon_area(polys[0]) == pytest.approx(-alpha * beta / 2, abs=1e-6)


def test_sampled_points_fall_inside_polygon_union():
    rng = np.random.default_rng(0)
    from conftest import random_hz
    Z = random_hz(rng, dim=3, n_g=4, n_b=2, n_c=2)
    polys = emit_projection(Z, (0, 2), 64)
    pts = Z.sample_points(500, 1)[:, [0, 2]]
    for p in pts:
        assert min(distance_to_convex_polygon(p, poly) for poly in polys) <= 1e-6


def test_flat_fibers_keep_their_polygons():
    # FRS_2 of the demo model on the unit square: most of its fibers are
    # segments on x_0 = 0, which exact support offsets used to cut away
    Z = HybridZonotope.load(Path(__file__).parent / "data" / "flat_fibers.json")
    polys = emit_projection(Z, (0, 1), 16)
    fibers = FiberLp(Z)
    rng = np.random.default_rng(0)
    for xb, poly in zip(Z.feasible_binary_assignments(), polys):
        for p in Z._points(xb, rng.standard_normal((20, Z.n_g)), fibers):
            assert distance_to_convex_polygon(p, poly) <= 1e-6
    for p in Z.sample_points(200, 1):
        assert min(distance_to_convex_polygon(p, poly) for poly in polys) <= 1e-6


def test_thin_fiber_polygon_has_few_vertices():
    # a segment fiber: the support points of all 64 starting directions are
    # its two end points, and every edge check finds nothing beyond, so the
    # polygon is the segment itself, not a ring of near-duplicate points
    Z = HybridZonotope(Gc=[[0.016], [0.0]], c=[0.016, 0.0])
    (poly,) = emit_projection(Z, (0, 1), 64)
    assert len(poly) <= 4
    for s in np.linspace(0.0, 0.032, 9):
        assert distance_to_convex_polygon([s, 0.0], poly) <= 1e-6


def _turns(poly: np.ndarray) -> np.ndarray:
    """The angle in [0, pi] by which the boundary turns at each vertex: pi at
    the ends of a segment, 0 at a vertex inside the segment joining its
    neighbours."""
    into = poly - np.roll(poly, 1, axis=0)
    out = np.roll(into, -1, axis=0)
    cross = into[:, 0] * out[:, 1] - into[:, 1] * out[:, 0]
    return np.abs(np.arctan2(cross, np.sum(into * out, axis=1)))


def test_projection_vertices_all_turn():
    # FRS_2 of [0,1]x[0.6,1] over the unit square: start maximizers used to
    # stay as vertices inside the edges of its fibers, flat ones included
    m = demo_system()
    X = box([0.0, 0.0], [1.0, 1.0])
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), 2)
    series = state_pairs(m, X, exact_plan(tbl))
    polys = emit_projection(frs(series, box([0.0, 0.6], [1.0, 1.0]), 2), (0, 1), 16)
    assert any(len(p) == 2 for p in polys) and any(len(p) > 2 for p in polys)
    for poly in polys:
        assert np.all(_turns(poly) > 1e-9)


def test_projection_of_empty_set_raises():
    empty = HybridZonotope(Gc=[[1.0], [0.0]], c=[0.0, 0.0], Ac=[[1.0]], b=[9.0])
    with pytest.raises(EmptySetError):
        emit_projection(empty, (0, 1), 64)


def test_projection_polygon_per_binary_assignment():
    # two disjoint fibers: a binary generator splits the set into two squares
    Z = HybridZonotope(Gc=0.2 * np.eye(2), Gb=[[1.0], [0.0]], c=[0.0, 0.0])
    polys = emit_projection(Z, (0, 1), 32)
    assert len(polys) == 2
    centers = sorted(float(np.mean(p[:, 0])) for p in polys)
    assert centers[0] == pytest.approx(-1.0, abs=1e-6)
    assert centers[1] == pytest.approx(1.0, abs=1e-6)


def test_projection_rejects_equal_dims():
    with pytest.raises(ValueError):
        emit_projection(box([0, 0], [1, 1]), (1, 1), 64)


def test_projection_rejects_coordinates_outside_the_set():
    # on a 3-D box, (2, -1) would plot x2 against itself and (0, 5) index
    # past the set
    for dims in ((2, -1), (0, 5), (3, 1)):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            emit_projection(box([0, 0, 0], [1, 1, 1]), dims, 8)


def test_set_projection_rejects_coordinates_outside_the_set():
    # a negative index would pick a coordinate from the end
    for dims in ([-1], [0, 3]):
        with pytest.raises(ValueError, match=r"\[0, 3\)"):
            box([0, 0, 0], [1, 1, 1]).project(dims)


def test_projection_rejects_fewer_than_three_directions(tmp_path, half_files):
    # two opposite directions cannot tell a point from a segment across them
    with pytest.raises(ValueError, match="at least 3"):
        emit_projection(box([0, 0], [1, 1]), (0, 1), 2)
    code = main(["forward", "--model", str(half_files / "model.json"),
                 "--domain", str(half_files / "domain.json"),
                 "--initial", str(half_files / "initial.json"),
                 "-T", "2", "--dirs", "2", "--out", str(tmp_path / "o")])
    assert code == 1
    assert not (tmp_path / "o").exists()


def test_polygon_supports_match_lp_supports():
    # in every queried direction the emitted polygon's support equals the
    # fiber's true support value, solved here by the one-shot reference LP
    rng = np.random.default_rng(5)
    from conftest import random_hz
    Z = random_hz(rng, dim=2, n_g=4, n_b=1, n_c=1)
    k = 24
    polys = emit_projection(Z, (0, 1), k)
    assignments = Z.feasible_binary_assignments()
    assert len(polys) == len(assignments)
    for poly, xb in zip(polys, assignments):
        for j in range(k):
            theta = 2 * np.pi * j / k
            d = np.array([np.cos(theta), np.sin(theta)])
            res = lp_solve(LpProblem(-(d @ Z.Gc), Z.Ac, Z.b - Z.Ab @ xb,
                                     -np.ones(Z.n_g), np.ones(Z.n_g)))
            h = -res.objective + d @ (Z.Gb @ xb + Z.c)
            assert np.max(poly @ d) == pytest.approx(h, abs=1e-6)
        # and from the inside: every vertex is a point of the fiber
        fiber = HybridZonotope(Gc=Z.Gc, c=Z.c + Z.Gb @ xb, Ac=Z.Ac, b=Z.b - Z.Ab @ xb)
        for v in poly:
            assert fiber.contains_point(v)


@pytest.mark.parametrize("k", [3, 4])
@pytest.mark.parametrize("rows", [0, 1])
def test_zonotope_projects_to_all_its_vertices(k, rows):
    # a 2-D zonotope with 12 generators in general position has 24 vertices:
    # c + sum_i sign(d @ g_i) g_i for d between consecutive generator normals.
    # A few starting directions find only some of them; refinement must find
    # the rest.  rows=1 adds a zero constraint row so the fiber point is an
    # LP solution instead of the closed form.
    rng = np.random.default_rng(11)
    G = rng.normal(size=(2, 12))
    c = rng.normal(size=2)
    Z = HybridZonotope(Gc=G, c=c, Ac=np.zeros((rows, 12)), b=np.zeros(rows))
    half = np.arctan2(G[0], -G[1]) % np.pi  # angle of each generator's normal
    normals = np.sort(np.concatenate([half, half + np.pi]))
    mids = (normals + np.append(normals[1:], normals[0] + 2 * np.pi)) / 2
    dirs = np.column_stack([np.cos(mids), np.sin(mids)])
    vertices = np.array([c + G @ np.sign(d @ G) for d in dirs])
    (poly,) = emit_projection(Z, (0, 1), k)
    assert len(poly) == 24
    gaps = np.linalg.norm(poly[:, None, :] - vertices[None, :, :], axis=2)
    assert np.max(np.min(gaps, axis=1)) <= 1e-9
    assert np.max(np.min(gaps, axis=0)) <= 1e-9


def _cli_process(argv: list):
    """``python -m hzreach.cli`` with ``argv`` in a fresh process, which
    imports the package from where this process found it."""
    import os
    import subprocess
    import sys
    import hzreach
    paths = [str(Path(hzreach.__file__).parents[1]), os.environ.get("PYTHONPATH", "")]
    return subprocess.run([sys.executable, "-m", "hzreach.cli"] + argv,
                          capture_output=True, text=True,
                          env=dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths))))


def test_cli_module_runs_as_subprocess(tmp_path):
    save_model(half_system(), tmp_path / "model.json")
    box([0.0], [1.0]).save(tmp_path / "domain.json")
    box([0.5], [1.0]).save(tmp_path / "initial.json")
    box([2.0], [3.0]).save(tmp_path / "unsafe.json")
    proc = _cli_process(["verify", "--model", str(tmp_path / "model.json"),
                         "--domain", str(tmp_path / "domain.json"),
                         "--initial", str(tmp_path / "initial.json"),
                         "--unsafe", str(tmp_path / "unsafe.json"),
                         "-T", "3", "--out", str(tmp_path / "v")])
    assert proc.returncode == 0
    assert "verdict: safe" in proc.stdout


# -- command-line runs ---------------------------------------------------

@pytest.fixture
def half_files(tmp_path):
    save_model(half_system(), tmp_path / "model.json")
    box([0.0], [1.0]).save(tmp_path / "domain.json")
    box([0.5], [1.0]).save(tmp_path / "initial.json")
    return tmp_path


def test_half_system_forward_emits_four_frs_files(half_files, tmp_path):
    # a model with one coordinate ignores --dims, even one it lacks
    out = tmp_path / "out"
    code = main(["forward", "--model", str(half_files / "model.json"),
                 "--domain", str(half_files / "domain.json"),
                 "--initial", str(half_files / "initial.json"),
                 "-T", "5", "--dims", "0,5", "--out", str(out)])
    assert code == 0
    frs_files = sorted(p.name for p in out.glob("frs_t*.json"))
    assert frs_files == ["frs_t2.json", "frs_t3.json", "frs_t4.json", "frs_t5.json"]
    # analytic check on the emitted sets: FRS_t of [0.5, 1] is [2^-(t-1), 2^-(t-2)]
    R3 = HybridZonotope.load(out / "frs_t3.json")
    assert R3.support([1.0]) == pytest.approx(0.25, abs=1e-6)
    rows = json.loads((out / "complexity.json").read_text())
    for r in rows:
        assert r["measured"] == r["predicted"]


@pytest.fixture
def planar_files(tmp_path):
    from hzreach.systems import demo_initial_box, demo_system
    save_model(demo_system(), tmp_path / "model.json")
    lo, hi = demo_initial_box()
    box(lo, hi).save(tmp_path / "domain.json")
    box(lo, hi).save(tmp_path / "initial.json")
    box([0.1, 0.1], [0.2, 0.2]).save(tmp_path / "target.json")
    return tmp_path


def test_forward_run_outputs_and_determinism(planar_files, tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    base = ["forward", "--model", str(planar_files / "model.json"),
            "--domain", str(planar_files / "domain.json"),
            "--initial", str(planar_files / "initial.json"),
            "-T", "5", "--dirs", "32", "--seed", "3"]
    assert main(base + ["--out", str(out1)]) == 0
    for t in (2, 3, 4, 5):
        assert (out1 / f"frs_t{t}.json").exists()
        assert (out1 / f"frs_t{t}.svg").exists()
        assert (out1 / f"frs_t{t}_points.csv").exists()
    rows = json.loads((out1 / "complexity.json").read_text())
    assert [r["t"] for r in rows] == [2, 3, 4, 5]
    for r in rows:
        assert r["measured"] == r["predicted"]
    lines = (out1 / "frs_t2_points.csv").read_text().splitlines()
    assert lines[0] == "x0,x1"
    parsed = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    assert parsed.shape == (500, 2) and np.all(np.isfinite(parsed))
    assert main(base + ["--out", str(out2)]) == 0
    for name in ["frs_t2.json", "frs_t5.json", "frs_t3_points.csv",
                 "frs_t4.svg", "complexity.json", "series.json",
                 "frs_overlay.svg"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_backward_run_matches_verify_on_seed_sets(planar_files, tmp_path):
    out, rerun = tmp_path / "bwd", tmp_path / "bwd2"
    base = ["backward", "--model", str(planar_files / "model.json"),
            "--domain", str(planar_files / "domain.json"),
            "--initial", str(planar_files / "initial.json"),
            "--target", str(planar_files / "target.json"),
            "-T", "3", "--dirs", "16"]
    assert main(base + ["--out", str(out)]) == 0
    for t in (2, 3):
        assert (out / f"brs_t{t}.json").exists()
    # a rerun writes the same files, seed sets and summary included, byte for byte
    assert main(base + ["--out", str(rerun)]) == 0
    names = sorted(p.name for p in out.iterdir())
    assert names == sorted(p.name for p in rerun.iterdir())
    assert "backward_summary.json" in names and any(n.startswith("seed_t") for n in names)
    for name in names:
        assert (out / name).read_bytes() == (rerun / name).read_bytes()
    rows = json.loads((out / "complexity.json").read_text())
    for r in rows:
        assert r["measured"] == r["predicted"]
    summary = json.loads((out / "backward_summary.json").read_text())
    # cross-check against the verify module's emptiness decisions
    from hzreach import brs, exact_plan, load_model, propagate_intervals, state_pairs
    m = load_model(planar_files / "model.json")
    X = HybridZonotope.load(planar_files / "domain.json")
    X1 = HybridZonotope.load(planar_files / "initial.json")
    tgt = HybridZonotope.load(planar_files / "target.json")
    tbl = propagate_intervals(m, X.interval_hull("generator_relaxed"), 3)
    series = state_pairs(m, X, exact_plan(tbl))
    for row in summary:
        expect = brs(series, tgt, row["t"]).generalized_intersect(X1).is_empty()
        assert row["seed_set_empty"] == expect


def test_verify_exit_codes(tmp_path):
    save_model(half_system(), tmp_path / "model.json")
    box([0.0], [1.0]).save(tmp_path / "domain.json")
    box([0.5], [1.0]).save(tmp_path / "initial.json")
    box([2.0], [3.0]).save(tmp_path / "safe.json")
    box([0.2], [0.21]).save(tmp_path / "unsafe.json")
    common = ["verify", "--model", str(tmp_path / "model.json"),
              "--domain", str(tmp_path / "domain.json"),
              "--initial", str(tmp_path / "initial.json"), "-T", "5"]
    assert main(common + ["--unsafe", str(tmp_path / "safe.json"),
                          "--out", str(tmp_path / "v1")]) == 0
    code = main(common + ["--unsafe", str(tmp_path / "unsafe.json"),
                          "--out", str(tmp_path / "v2")])
    assert code == 2
    report = json.loads((tmp_path / "v2" / "verdict.json").read_text())
    assert report["status"] == "unsafe"
    assert report["forward"]["witnesses"]


def test_verify_resolves_one_sided_unknown_to_safe(tmp_path):
    # backward route alone is inconclusive at nb=0, but the forward series
    # built from the narrow initial set proves safety; either condition is
    # sufficient, so the combined verdict is Safe.
    save_model(gate_system(), tmp_path / "model.json")
    box([0.0], [1.0]).save(tmp_path / "domain.json")
    box([0.8], [1.0]).save(tmp_path / "initial.json")
    box([0.05], [0.08]).save(tmp_path / "unsafe.json")
    code = main(["verify", "--model", str(tmp_path / "model.json"),
                 "--domain", str(tmp_path / "domain.json"),
                 "--initial", str(tmp_path / "initial.json"),
                 "--unsafe", str(tmp_path / "unsafe.json"),
                 "-T", "2", "--nb", "0", "--out", str(tmp_path / "v")])
    assert code == 0
    report = json.loads((tmp_path / "v" / "verdict.json").read_text())
    assert report["status"] == "safe"
    assert report["backward"]["status"] == "unknown"
    assert report["forward"]["status"] == "safe"


def test_verify_unknown_exit_code(planar_files, tmp_path):
    # relaxed over-approximation meets the unsafe box on both routes while no
    # trajectory confirms it (see test_verify.test_relaxed_margin_yields_unknown_forward)
    box([0.30, 0.02], [0.35, 0.06]).save(tmp_path / "unsafe.json")
    code = main(["verify", "--model", str(planar_files / "model.json"),
                 "--domain", str(planar_files / "domain.json"),
                 "--initial", str(planar_files / "initial.json"),
                 "--unsafe", str(tmp_path / "unsafe.json"),
                 "-T", "4", "--nb", "0", "--out", str(tmp_path / "v")])
    assert code == 3
    report = json.loads((tmp_path / "v" / "verdict.json").read_text())
    assert report["status"] == "unknown"


def _two_series_report(model, path, unsafe, T, nb, seed=0):
    """verdict.json of ``verify`` as the forward and the
    backward route give it on two series, each built from its own load of
    the set file at ``path`` (domain and initial set alike)."""
    X1, X = HybridZonotope.load(path), HybridZonotope.load(path)

    def series(dom):
        tbl = propagate_intervals(model, dom.interval_hull("generator_relaxed"), T)
        plan = rank_unstable(tbl, len(tbl.unstable_index()) if nb is None else nb)
        return state_pairs(model, dom, plan)

    fwd_series, bwd_series = series(X1), series(X)
    fwd = verify_forward(fwd_series, unsafe, seed=seed).to_json_dict()
    bwd = verify_backward(bwd_series, unsafe, X1, seed=seed).to_json_dict()
    statuses = (fwd["status"], bwd["status"])
    status = "unsafe" if "unsafe" in statuses else "safe" if "safe" in statuses else "unknown"
    return {
        "status": status, "forward": fwd, "backward": bwd,
        "complexity": {route: [{"t": t, "pair": list(s.pair_set(t).complexity.astuple())}
                               for t in range(2, T + 1)]
                       for route, s in (("forward", fwd_series), ("backward", bwd_series))},
        "binary_limit": fwd_series.plan.binary_limit, "horizon": T,
    }


def _verify_argv(tmp_path, model, domain, initial, unsafe, T) -> list:
    """``verify`` arguments on the given sets, written to tmp_path."""
    save_model(model, tmp_path / "model.json")
    for name, Z in (("domain", domain), ("initial", initial), ("unsafe", unsafe)):
        Z.save(tmp_path / f"{name}.json")
    return ["verify", "--model", str(tmp_path / "model.json"),
            "--domain", str(tmp_path / "domain.json"),
            "--initial", str(tmp_path / "initial.json"),
            "--unsafe", str(tmp_path / "unsafe.json"), "-T", str(T), "--out", str(tmp_path / "v")]


def _shared_verify_argv(tmp_path, model, lo, hi, unsafe, T) -> list:
    """``verify`` arguments with a domain file equal to the initial file,
    the box [lo, hi]."""
    return _verify_argv(tmp_path, model, box(lo, hi), box(lo, hi), unsafe, T)


def _counted_solves(monkeypatch) -> list:
    """Patch LpSession.solve to count its calls; the list it appends to."""
    solves = []
    solve = LpSession.solve

    def counted(self, *args, **kwargs):
        solves.append(1)
        return solve(self, *args, **kwargs)

    monkeypatch.setattr(LpSession, "solve", counted)
    return solves


def _demo_hit_box() -> HybridZonotope:
    """A box about the step-3 state of a demo trajectory from its initial box."""
    x3 = simulate(demo_system(), np.array([0.45, 0.4]), 3).states[2]
    return box(x3 - 0.01, x3 + 0.01)


@pytest.mark.parametrize("system, nb", [("half", None), ("half", 0), ("demo", None),
                                        ("demo", 2), ("margin", None), ("margin", 0)])
def test_verify_on_domain_equal_to_initial_matches_two_series(tmp_path, system, nb):
    # a domain file equal to the initial file gives one series, on which the
    # backward route would test the forward route's sets: the forward verdict
    # is reported for both unless it is unknown, when the backward route runs.
    # Statuses and evidence must be those of two separately built series.
    # "margin" is the box that only relaxed sets meet: safe exact, unknown at nb 0
    if system == "half":
        model, T, lo, hi, unsafe = half_system(), 5, [0.0], [1.0], box([0.2], [0.21])
    elif system == "demo":
        model, T, (lo, hi), unsafe = demo_system(), 3, demo_initial_box(), _demo_hit_box()
    else:
        model, T, (lo, hi) = demo_system(), 4, demo_initial_box()
        unsafe = box([0.30, 0.02], [0.35, 0.06])
    argv = _shared_verify_argv(tmp_path, model, lo, hi, unsafe, T)
    code = main(argv + ([] if nb is None else ["--nb", str(nb)]))
    report = json.loads((tmp_path / "v" / "verdict.json").read_text())
    expected = _two_series_report(model, tmp_path / "initial.json", unsafe, T, nb)
    fwd, bwd = report["forward"], report["backward"]
    for key in ("status", "evidence"):
        assert bwd[key] == expected["backward"][key]
    if fwd["status"] != "unknown":
        expected["backward"] = expected["forward"]  # one verdict, reported twice
    assert report == expected
    for w in fwd["witnesses"] + bwd["witnesses"]:
        assert box(lo, hi).contains_point(w["x1"])
        assert unsafe.contains_point(simulate(model, np.array(w["x1"]), w["t"]).states[-1])
    assert code == {"safe": 0, "unsafe": 2, "unknown": 3}[report["status"]]
    if system == "margin":
        assert report["status"] == ("safe" if nb is None else "unknown")
    elif nb is None:
        assert report["status"] == "unsafe"


def test_demo_hit_verify_shares_its_lps(tmp_path, monkeypatch):
    # on the demo box as domain and initial set, a box hit at step 3 costs
    # one series and one route: the forward route's Unsafe verdict is the
    # backward one too, since the backward route would test the same BRS_t.
    # 27 LPs, where running the backward route on the shared series took 33
    solves = _counted_solves(monkeypatch)
    argv = _shared_verify_argv(tmp_path, demo_system(), *demo_initial_box(), _demo_hit_box(), 5)
    assert main(argv) == 2
    assert len(solves) <= 27


def test_wide_hit_verify_branches_on_most_fractional_binaries(tmp_path, monkeypatch):
    # the demo model on the unit square from its upper band, a box hit at
    # step 3: the routes' leaf searches prove BRS_3 and FRS_3 sets empty or
    # not, and branching on the most fractional binary prunes near the root
    # where index order pruned only deep in the tree: 130 LPs, 231 in index
    # order.  113 of the 130 are the leaf searches' own; the other 17 are
    # witness draws, whose count follows the draw stream, not the branching
    import hzreach.sets as sets_mod
    solves = _counted_solves(monkeypatch)
    searched = []
    search = sets_mod.enumerate_binary_leaves

    def counted_search(*args, **kwargs):
        before = len(solves)
        leaves = search(*args, **kwargs)
        searched.append(len(solves) - before)
        return leaves

    monkeypatch.setattr(sets_mod, "enumerate_binary_leaves", counted_search)
    x3 = simulate(demo_system(0), np.array([0.5, 0.8]), 3).states[2]
    argv = _verify_argv(tmp_path, demo_system(0), box([0.0, 0.0], [1.0, 1.0]),
                        box([0.0, 0.6], [1.0, 1.0]), box(x3 - 0.02, x3 + 0.02), 3)
    assert main(argv) == 2
    assert sum(searched) <= 113
    assert len(solves) <= 130


@pytest.mark.parametrize("case", ["shared", "two_series"])
def test_verify_reruns_byte_for_byte(tmp_path, case):
    # the demo box as domain and initial set (one series), and the unit
    # square from its upper band (two series), each with a box hit at step 3
    if case == "shared":
        argv = _shared_verify_argv(tmp_path, demo_system(), *demo_initial_box(),
                                   _demo_hit_box(), 3)
    else:
        x3 = simulate(demo_system(0), np.array([0.5, 0.8]), 3).states[2]
        argv = _verify_argv(tmp_path, demo_system(0), box([0.0, 0.0], [1.0, 1.0]),
                            box([0.0, 0.6], [1.0, 1.0]), box(x3 - 0.02, x3 + 0.02), 3)
    runs = []
    for out in ("a", "b"):
        assert main(argv[:-1] + [str(tmp_path / out)]) == 2
        runs.append((tmp_path / out / "verdict.json").read_bytes())
    assert runs[0] == runs[1]


@pytest.mark.parametrize("command", ["forward", "verify"])
def test_exact_hull_runs_rerun_byte_for_byte(tmp_path, command):
    # stage sets share their LP sessions only under --hull exact: the demo
    # model on the unit square from its upper band, N_b=1, T=3, and for
    # verify a box hit at step 3, write the same files twice
    x3 = simulate(demo_system(0), np.array([0.5, 0.8]), 3).states[2]
    argv = _verify_argv(tmp_path, demo_system(0), box([0.0, 0.0], [1.0, 1.0]),
                        box([0.0, 0.6], [1.0, 1.0]), box(x3 - 0.02, x3 + 0.02), 3)
    argv = argv[:-2] + ["--hull", "exact", "--nb", "1", "--dirs", "16"]
    if command == "forward":
        unsafe = argv.index("--unsafe")
        argv = ["forward"] + argv[1:unsafe] + argv[unsafe + 2:]
    codes = [main(argv + ["--out", str(tmp_path / out)]) for out in ("a", "b")]
    assert codes[0] == codes[1] == (0 if command == "forward" else 2)
    names = sorted(p.name for p in (tmp_path / "a").iterdir())
    assert names == sorted(p.name for p in (tmp_path / "b").iterdir())
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()


def test_leaf_cap_is_a_cli_error(tmp_path, monkeypatch, capsys):
    # 2^14 feasible leaves in the domain: its emptiness test stops at the cap
    monkeypatch.setattr(hzreach.lp, "LEAF_LIMIT", 50)
    save_model(half_system(), tmp_path / "model.json")
    HybridZonotope(Gc=[[1.0]], Gb=np.ones((1, 14)), c=[0.0], Ac=[[1.0]],
                   Ab=np.zeros((1, 14)), b=[0.0]).save(tmp_path / "domain.json")
    code = main(["forward", "--model", str(tmp_path / "model.json"),
                 "--domain", str(tmp_path / "domain.json"),
                 "--initial", str(tmp_path / "domain.json"),
                 "-T", "3", "--out", str(tmp_path / "o")])
    assert code == 1
    assert capsys.readouterr().err == (
        "hzreach: error: HybridZonotope(dim=1, n_g=1, n_b=14, n_c=1): more than 50 "
        "feasible binary assignments (stopped at 51)\n")


def test_missing_file_exits_nonzero(tmp_path):
    code = main(["forward", "--model", str(tmp_path / "nope.json"),
                 "--domain", str(tmp_path / "nope.json"),
                 "--initial", str(tmp_path / "nope.json"),
                 "-T", "3", "--out", str(tmp_path / "o")])
    assert code == 1


def test_bad_horizon_exits_nonzero(tmp_path, half_files):
    code = main(["forward", "--model", str(half_files / "model.json"),
                 "--domain", str(half_files / "domain.json"),
                 "--initial", str(half_files / "initial.json"),
                 "-T", "1", "--out", str(tmp_path / "o")])
    assert code == 1


@pytest.mark.parametrize("dims", [["--dims", "0,5"], ["--dims=-1,0"], ["--dims", "1,1"]])
def test_bad_dims_exit_before_writing(planar_files, tmp_path, capsys, dims):
    # out of range, negative and repeated coordinates of the 2-D demo model
    out = tmp_path / "o"
    code = main(["forward", "--model", str(planar_files / "model.json"),
                 "--domain", str(planar_files / "domain.json"),
                 "--initial", str(planar_files / "initial.json"),
                 "-T", "3", "--out", str(out)] + dims)
    assert code == 1
    assert capsys.readouterr().err.startswith(
        "hzreach: error: --dims must name two distinct coordinates in [0, 2) "
        "of the 2-dimensional state")
    assert not out.exists()


def test_verify_rejects_dims(tmp_path, capsys):
    # verify draws no projection, so it has no --dims to check
    argv = _shared_verify_argv(tmp_path, demo_system(), *demo_initial_box(),
                               _demo_hit_box(), 3)
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--dims", "0,1"])
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert "hzreach: error: unrecognized arguments: --dims 0,1" in err
    assert not (tmp_path / "v").exists()


def test_parser_built_once_keeps_no_values_between_calls(tmp_path):
    # the second in-process call passes neither --nb nor --seed: its verdict
    # must be that of the same call made first in a fresh process
    assert build_parser() is build_parser()
    argv = _shared_verify_argv(tmp_path, demo_system(), *demo_initial_box(),
                               _demo_hit_box(), 3)[:-1]
    assert main(argv + [str(tmp_path / "first"), "--nb", "2", "--seed", "5"]) in (0, 2, 3)
    assert main(argv + [str(tmp_path / "second")]) in (0, 2, 3)
    assert _cli_process(argv + [str(tmp_path / "fresh")]).returncode in (0, 2, 3)
    first, second, fresh = ((tmp_path / run / "verdict.json").read_bytes()
                            for run in ("first", "second", "fresh"))
    assert second == fresh
    assert first != second


# -- output writers ------------------------------------------------------

def test_writers_match_per_value_reference(tmp_path):
    # the writers format whole arrays at once; their bytes must be those of
    # formatting one value at a time
    rng = np.random.default_rng(31)
    points = rng.normal(size=(40, 2)) * 10.0 ** rng.integers(-9, 4, size=(40, 1))
    polys = [rng.normal(size=(5, 2)), rng.normal(size=(1, 2)), rng.normal(size=(2, 2))]
    write_points_csv(tmp_path / "p.csv", points, (0, 1))
    rows = ["x0,x1"] + [",".join(repr(float(v)) for v in p) for p in points]
    assert (tmp_path / "p.csv").read_text() == "\n".join(rows) + "\n"

    write_svg(tmp_path / "p.svg", [("a", polys, points), ("b", polys[:1], None)], size=100)
    allp = np.vstack(polys + [points])
    lo, hi = allp.min(axis=0), allp.max(axis=0)
    pad = 0.05 * float(np.maximum(hi - lo, 1e-9).max())
    lo, hi = lo - pad, hi + pad
    scale = 100 / float((hi - lo).max())
    text = (tmp_path / "p.svg").read_text()
    for poly in (polys[0], polys[2]):
        coords = " ".join(f"{(x - lo[0]) * scale:.3f},{100 - (y - lo[1]) * scale:.3f}"
                          for x, y in poly)
        assert f'<polygon points="{coords}" ' in text
    for x, y in points:
        circle = f'<circle cx="{(x - lo[0]) * scale:.3f}" cy="{100 - (y - lo[1]) * scale:.3f}" '
        assert circle in text
    assert text.count("<polygon") == 3 and text.count("<circle") == len(points)

    Z = HybridZonotope(rng.normal(size=(2, 3)), rng.normal(size=(2, 1)), rng.normal(size=2),
                       rng.normal(size=(1, 3)), rng.normal(size=(1, 1)), rng.normal(size=1))
    Z.save(tmp_path / "z.json")
    with open(tmp_path / "ref.json", "w") as fh:
        json.dump(Z.to_json_dict(), fh)
    assert (tmp_path / "z.json").read_bytes() == (tmp_path / "ref.json").read_bytes()
