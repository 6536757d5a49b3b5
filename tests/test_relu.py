import json
from pathlib import Path

import numpy as np
import pytest

from hzreach import (ComplexityRecord, HybridZonotope, IntervalVector, NeuronInterval,
                     NotUnstableError, graph_interval, graph_triangle, relu_layer_graph)

from conftest import box, polygon_area, random_hz, unit_directions

E, R = False, True  # a unit's entry in a relaxed mask: exact or relaxed


def intervals(*bounds) -> IntervalVector:
    """The interval vector of the given (lower, upper) pairs."""
    lo, hi = zip(*bounds)
    return IntervalVector(lo, hi)


# -- oracles: the vector graph as a literal product of per-neuron graphs -----

def graph_for_label(iv: NeuronInterval, relaxed: bool) -> HybridZonotope:
    """Exact graph, or the triangle relaxation for relaxed unstable units."""
    if relaxed and iv.is_unstable:
        return graph_triangle(iv)
    return graph_interval(iv)


def inputs_first_permutation(m: int) -> np.ndarray:
    """Permutation matrix mapping (in1, out1, ..., inm, outm) to
    (in1, ..., inm, out1, ..., outm)."""
    P = np.zeros((2 * m, 2 * m))
    for j in range(m):
        P[j, 2 * j] = 1.0
        P[m + j, 2 * j + 1] = 1.0
    return P


def graph_vector(iv: IntervalVector, labels: list[bool]) -> HybridZonotope:
    """Graph of the vector-valued ReLU over a box, coordinates (inputs..., outputs...).

    Cartesian product of the per-neuron graphs, permuted so that all input
    coordinates come first; ``labels`` is the relaxed mask.
    """
    ivs = [NeuronInterval(lo, hi) for lo, hi in zip(iv.lower, iv.upper)]
    if len(ivs) != len(labels):
        raise ValueError("ivs and labels must have equal length")
    if not ivs:
        raise ValueError("need at least one neuron")
    g = graph_for_label(ivs[0], labels[0])
    for iv, label in zip(ivs[1:], labels[1:]):
        g = g.cartesian_product(graph_for_label(iv, label))
    return g.affine_map(inputs_first_permutation(len(ivs)))


def triangle_vertices_from_supports(H):
    """Independent oracle: intersect the three edge-support lines of the
    relaxation triangle to recover its vertices."""
    a = H.interval_hull("exact")
    alpha, beta = a.lower[0], a.upper[0]
    normals = np.array([
        [0.0, -1.0],                 # lower edge y = 0
        [1.0, -1.0],                 # edge y = x
        [-beta, beta - alpha],       # chord from (alpha, 0) to (beta, beta)
    ])
    normals /= np.linalg.norm(normals, axis=1, keepdims=True)
    h = np.array([H.support(d) for d in normals])
    verts = []
    for i in range(3):
        Dm = np.vstack([normals[i], normals[(i + 1) % 3]])
        verts.append(np.linalg.solve(Dm, [h[i], h[(i + 1) % 3]]))
    return np.array(verts)


# -- per-neuron graphs ---------------------------------------------------

def test_stable_positive_segment_formula():
    H = graph_interval(NeuronInterval(1, 3))
    assert np.array_equal(H.Gc, [[1.0], [1.0]])
    assert np.array_equal(H.c, [2.0, 2.0])
    assert H.complexity == ComplexityRecord(1, 0, 0)
    assert H.contains_point([1, 1]) and H.contains_point([3, 3])
    assert not H.contains_point([2, 1.5])


def test_stable_negative_segment_formula():
    H = graph_interval(NeuronInterval(-3, -1))
    assert np.array_equal(H.Gc, [[1.0], [0.0]])
    assert np.array_equal(H.c, [-2.0, 0.0])
    assert H.contains_point([-3, 0]) and H.contains_point([-1, 0])
    assert not H.contains_point([-2, 0.1])


def test_boundary_intervals_take_stable_branch():
    assert graph_interval(NeuronInterval(0, 2)).complexity == ComplexityRecord(1, 0, 0)
    assert graph_interval(NeuronInterval(-2, 0)).complexity == ComplexityRecord(1, 0, 0)
    point = graph_interval(NeuronInterval(0, 0))
    assert point.contains_point([0, 0]) and not point.contains_point([0.1, 0.1])


def test_unstable_graph_membership():
    H = graph_interval(NeuronInterval(-1, 1))
    assert H.complexity == ComplexityRecord(4, 1, 3)
    for pt in [(-1, 0), (-0.5, 0), (0, 0), (0.5, 0.5), (1, 1)]:
        assert H.contains_point(pt)
    assert not H.contains_point((-0.5, 0.3))


def test_unstable_graph_equals_relu_on_grid():
    H = graph_interval(NeuronInterval(-0.7, 1.3))
    for x in np.linspace(-0.7, 1.3, 41):
        assert H.contains_point([x, max(0.0, x)])
        assert not H.contains_point([x, max(0.0, x) + 0.05])


def test_triangle_contains_gap_point_graph_does_not():
    iv = NeuronInterval(-1, 1)
    tri, exact = graph_triangle(iv), graph_interval(iv)
    assert tri.contains_point((-0.5, 0.2))
    assert not exact.contains_point((-0.5, 0.2))


def test_triangle_complexity_and_structure():
    tri = graph_triangle(NeuronInterval(-2, 0.5))
    assert tri.complexity == ComplexityRecord(5, 0, 3)


def test_triangle_requires_unstable():
    with pytest.raises(NotUnstableError):
        graph_triangle(NeuronInterval(0.5, 1.0))
    with pytest.raises(NotUnstableError):
        graph_triangle(NeuronInterval(-1.0, 0.0))


def test_triangle_area_formula():
    for alpha, beta in [(-1.0, 1.0), (-2.0, 0.5), (-0.3, 2.0)]:
        tri = graph_triangle(NeuronInterval(alpha, beta))
        verts = triangle_vertices_from_supports(tri)
        assert polygon_area(verts) == pytest.approx(-alpha * beta / 2.0, abs=1e-9)


def test_triangle_contains_exact_graph_samples():
    iv = NeuronInterval(-1.5, 0.8)
    tri, exact = graph_triangle(iv), graph_interval(iv)
    for p in exact.sample_points(100, 0):
        assert tri.contains_point(p)


# -- vector graphs -------------------------------------------------------

def test_vector_graph_single_neuron_matches_individual():
    iv = NeuronInterval(-1, 2)
    gv = graph_vector(intervals((-1, 2)), [E])
    gi = graph_interval(iv)
    assert np.array_equal(inputs_first_permutation(1), np.eye(2))
    for d in unit_directions(16, 2, seed=1):
        assert gv.support(d) == pytest.approx(gi.support(d), abs=1e-9)


def test_vector_graph_two_stable_positive_is_diagonal():
    ivs = intervals((0.5, 2), (1, 3))
    gv = graph_vector(ivs, [E, E])
    assert gv.dim == 4
    for x1 in np.linspace(0.5, 2, 5):
        for x2 in np.linspace(1, 3, 5):
            assert gv.contains_point([x1, x2, x1, x2])
    assert not gv.contains_point([1, 2, 1, 2.5])


def test_vector_graph_projections_match_per_neuron_graphs():
    ivs = intervals((-1, 1), (0.5, 2), (-2, 0.7))
    labels = [E, E, R]
    gv = graph_vector(ivs, labels)
    m = 3
    for i in range(m):
        proj = gv.project([i, m + i])
        single = graph_vector(intervals((ivs.lower[i], ivs.upper[i])), [labels[i]])
        for d in unit_directions(16, 2, seed=10 + i):
            assert proj.support(d) == pytest.approx(single.support(d), abs=1e-8)


def test_vector_graph_complexity_increments():
    ivs = intervals((-1, 1), (0.5, 2), (-2, 0.7))
    gv = graph_vector(ivs, [E, E, E])
    assert gv.complexity == ComplexityRecord(4 + 1 + 4, 1 + 0 + 1, 3 + 0 + 3)
    gv = graph_vector(ivs, [R, R, R])
    assert gv.complexity == ComplexityRecord(5 + 1 + 5, 0, 3 + 0 + 3)


def test_vector_graph_length_mismatch():
    with pytest.raises(ValueError):
        graph_vector(intervals((-1, 1)), [E, E])


# -- layer graphs --------------------------------------------------------

def _enclosure(Z):
    return Z.interval_hull("generator_relaxed")


def test_layer_identity_on_positive_segment():
    Z = box([1], [2])
    _, out = relu_layer_graph(Z, intervals((1, 2)), [E])
    assert out.support([1.0]) == pytest.approx(2.0, abs=1e-9)
    assert -out.support([-1.0]) == pytest.approx(1.0, abs=1e-9)


def test_layer_clamps_negative_segment():
    Z = box([-2], [-1])
    _, out = relu_layer_graph(Z, intervals((-2, -1)), [E])
    assert out.support([1.0]) == pytest.approx(0.0, abs=1e-12)
    assert out.support([-1.0]) == pytest.approx(0.0, abs=1e-12)


def test_layer_exact_on_grid():
    Z = box([-1, -1], [1, 1])
    ivs = intervals((-1, 1), (-1, 1))
    graph, out = relu_layer_graph(Z, ivs, [E, E])
    for x1 in np.linspace(-1, 1, 21):
        for x2 in np.linspace(-1, 1, 21):
            y = np.maximum([x1, x2], 0.0)
            assert out.contains_point(y)
            assert graph.contains_point([x1, x2, *y])
    assert not out.contains_point([0.5, -0.05])


def test_layer_exactness_with_witnesses():
    rng = np.random.default_rng(5)
    for trial in range(5):
        dim = int(rng.integers(1, 4))
        Z = random_hz(rng, dim=dim, n_g=dim + 1, n_b=1, n_c=1)
        graph, out = relu_layer_graph(Z, _enclosure(Z), [E] * dim)
        for p in graph.sample_points(20, trial):
            x, y = p[:dim], p[dim:]
            assert np.max(np.abs(y - np.maximum(x, 0.0))) <= 1e-7
            assert Z.contains_point(x)
        for x in Z.sample_points(20, 100 + trial):
            assert out.contains_point(np.maximum(x, 0.0))


def test_layer_sound_under_any_labels():
    rng = np.random.default_rng(6)
    Z = random_hz(rng, dim=2, n_g=3, n_b=1, n_c=1)
    for labels in ([R, R], [E, R], [R, E]):
        _, out = relu_layer_graph(Z, _enclosure(Z), labels)
        for x in Z.sample_points(40, 3):
            assert out.contains_point(np.maximum(x, 0.0))


def test_layer_matches_literal_intersection():
    rng = np.random.default_rng(7)
    for trial in range(4):
        dim = int(rng.integers(1, 4))
        Z = random_hz(rng, dim=dim, n_g=dim + 1, n_b=1, n_c=1)
        ivs = _enclosure(Z)
        labels = [E if rng.random() < 0.5 else R for _ in range(dim)]
        graph, _ = relu_layer_graph(Z, ivs, labels)
        sel = np.hstack([np.eye(dim), np.zeros((dim, dim))])
        literal = graph_vector(ivs, labels).generalized_intersect(Z, sel)
        for d in unit_directions(16, 2 * dim, seed=20 + trial):
            assert graph.support(d) == pytest.approx(literal.support(d), abs=1e-7)


def test_layer_complexity_per_unstable_unit():
    Z = box([-1, 0.5, -2], [1, 2, -0.5])
    ivs = intervals((-1, 1), (0.5, 2), (-2, -0.5))
    graph, out = relu_layer_graph(Z, ivs, [E] * 3)
    assert graph.complexity == ComplexityRecord(3 + 4, 0 + 1, 0 + 3)
    graph, _ = relu_layer_graph(Z, ivs, [R] * 3)
    assert graph.complexity == ComplexityRecord(3 + 5, 0, 0 + 3)


def test_layer_output_insensitive_to_enclosure_when_exact():
    rng = np.random.default_rng(8)
    Z = random_hz(rng, dim=2, n_g=4, n_b=1, n_c=2)
    tight = Z.interval_hull("exact")
    loose = Z.interval_hull("generator_relaxed")
    _, out_tight = relu_layer_graph(Z, tight, [E, E])
    _, out_loose = relu_layer_graph(Z, IntervalVector(loose.lower - 0.5, loose.upper + 0.5),
                                    [E, E])
    for d in unit_directions(32, 2, seed=9):
        assert out_tight.support(d) == pytest.approx(out_loose.support(d), abs=1e-6)


_BLOCKS = ("Gc", "Gb", "c", "Ac", "Ab", "b")


def _blocks(d: dict) -> list[np.ndarray]:
    return [np.array(d[k]["data"], dtype=float).reshape(d[k]["shape"]) for k in _BLOCKS]


def test_layer_blocks_bitwise_locked():
    # Inputs and blocks recorded from the earlier builder, which placed every
    # coefficient by hand: demo stage sets (exact plan capped at 5 and 8
    # binaries, so some layers mix labels), all-relaxed and all-exact
    # layers, stable-only and [0, b] / [a, 0] units, seeded random_hz sets.
    # Inputs are stored as they were, so no matrix product enters the check.
    cases = json.loads((Path(__file__).parent / "data" / "relu_layers.json").read_text())
    assert len(cases["cases"]) == 34
    for case in cases["cases"]:
        Z = HybridZonotope(*_blocks(case["Z"]))
        ivs = intervals(*case["ivs"])
        relaxed = [name == "relaxed" for name in case["labels"]]
        graph, out = relu_layer_graph(Z, ivs, relaxed)
        for got, key in ((graph, "graph"), (out, "output")):
            for name, want in zip(_BLOCKS, _blocks(case[key])):
                block = getattr(got, name)
                assert block.shape == want.shape and block.tobytes() == want.tobytes(), \
                    (case["name"], key, name)
