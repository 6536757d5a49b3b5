"""Hybrid-zonotope encodings of ReLU graphs over intervals.

For a scalar input range [alpha, beta], the graph {(x, max(0, x))} is a line
segment when the range is sign-stable and a two-segment union when the range
straddles zero.  The unstable case is encoded as a binary-gated combination
of the two segments: continuous factors (p, q, s1, s2) and one binary sigma
with

    x = alpha*(1+p)/2 + beta*(1+q)/2,   y = beta*(1+q)/2,
    p + sigma - s1 = -1   (left-segment gate: sigma=+1 forces p=-1)
    q - sigma - s2 = -1   (right-segment gate: sigma=-1 forces q=-1)

plus the sum of the two gates as a third row, giving the fixed size of
4 continuous generators, 1 binary generator and 3 constraints per unstable
unit.  Relaxing sigma to [-1, 1] turns the gated pair of segments into the
convex triangle with vertices (alpha,0), (0,0), (beta,beta).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotUnstableError
from .sets import HybridZonotope


class ReluLabel(Enum):
    EXACT = 0
    RELAXED = 1


@dataclass(frozen=True)
class NeuronInterval:
    """Scalar pre-activation bounds alpha <= beta for one ReLU unit."""

    alpha: float
    beta: float

    def __post_init__(self):
        a, b = float(self.alpha), float(self.beta)
        if not (np.isfinite(a) and np.isfinite(b)):
            raise ValueError("interval bounds must be finite")
        if a > b:
            raise ValueError(f"alpha={a} exceeds beta={b}")
        object.__setattr__(self, "alpha", a)
        object.__setattr__(self, "beta", b)

    @property
    def is_stable_positive(self) -> bool:
        return self.alpha >= 0.0

    @property
    def is_stable_negative(self) -> bool:
        return not self.is_stable_positive and self.beta <= 0.0

    @property
    def is_unstable(self) -> bool:
        return self.alpha < 0.0 < self.beta


def _unstable_blocks(iv: NeuronInterval):
    """Generator/constraint blocks of the gated two-segment encoding."""
    a, b = iv.alpha, iv.beta
    Gc = np.array([[a / 2.0, b / 2.0, 0.0, 0.0],
                   [0.0, b / 2.0, 0.0, 0.0]])
    Gb = np.array([[0.0], [0.0]])
    c = np.array([(a + b) / 2.0, b / 2.0])
    Ac = np.array([[1.0, 0.0, -1.0, 0.0],
                   [0.0, 1.0, 0.0, -1.0],
                   [1.0, 1.0, -1.0, -1.0]])
    Ab = np.array([[1.0], [-1.0], [0.0]])
    rhs = np.array([-1.0, -1.0, -2.0])
    return Gc, Gb, c, Ac, Ab, rhs


def graph_interval(iv: NeuronInterval) -> HybridZonotope:
    """Exact graph of max(0, x) over [alpha, beta] as a 2-D set (input, output).

    Stable ranges give a single segment; an unstable range gives the
    two-segment encoding with exactly (4, 1, 3) added complexity.
    """
    a, b = iv.alpha, iv.beta
    if iv.is_stable_positive:
        return HybridZonotope(Gc=[[(b - a) / 2.0], [(b - a) / 2.0]],
                              c=[(a + b) / 2.0, (a + b) / 2.0])
    if iv.is_stable_negative:
        return HybridZonotope(Gc=[[(b - a) / 2.0], [0.0]],
                              c=[(a + b) / 2.0, 0.0])
    Gc, Gb, c, Ac, Ab, rhs = _unstable_blocks(iv)
    return HybridZonotope(Gc, Gb, c, Ac, Ab, rhs)


def graph_triangle(iv: NeuronInterval) -> HybridZonotope:
    """Convex-hull relaxation of an unstable ReLU graph.

    The binary generator of the exact encoding is reclassified as continuous,
    which yields the triangle with vertices (alpha,0), (0,0), (beta,beta) and
    no binary generators.

    Raises:
        NotUnstableError: if the interval does not straddle zero.
    """
    if not iv.is_unstable:
        raise NotUnstableError(f"triangle relaxation needs alpha < 0 < beta, "
                               f"got [{iv.alpha}, {iv.beta}]")
    Gc, Gb, c, Ac, Ab, rhs = _unstable_blocks(iv)
    return HybridZonotope(np.hstack([Gc, Gb]), None, c,
                          np.hstack([Ac, Ab]), None, rhs)


def relu_layer_graph(Z: HybridZonotope, ivs: list[NeuronInterval],
                     labels: list[ReluLabel]):
    """Graph and image of the ReLU layer over an input set.

    ``ivs`` must be a sound enclosure of Z's coordinate ranges.  The returned
    graph lives in R^(2m) with coordinates (inputs..., outputs...) and equals,
    as a set, the generalized intersection of the vector graph with Z under
    the input selector; the output is its projection onto the output block
    (``relu_layer_output``).  When every label is exact the output equals the
    elementwise ReLU image of Z exactly.

    Returns:
        (graph, output) as hybrid zonotopes sharing Z's leading factors.
    """
    Gc, Gb, c, Ac, Ab, rhs = _output_blocks(Z, ivs, labels)
    graph = HybridZonotope(
        np.vstack([np.hstack([Z.Gc, np.zeros((Z.dim, Gc.shape[1] - Z.n_g))]), Gc]),
        np.vstack([np.hstack([Z.Gb, np.zeros((Z.dim, Gb.shape[1] - Z.n_b))]), Gb]),
        np.concatenate([Z.c, c]), Ac, Ab, rhs)
    return graph, HybridZonotope(Gc, Gb, c, Ac, Ab, rhs)


def relu_layer_output(Z: HybridZonotope, ivs: list[NeuronInterval],
                      labels: list[ReluLabel]) -> HybridZonotope:
    """The output of ``relu_layer_graph(Z, ivs, labels)``, built without the
    graph: the ReLU image of Z, exact when every label is exact."""
    return HybridZonotope(*_output_blocks(Z, ivs, labels))


def _output_blocks(Z: HybridZonotope, ivs: list[NeuronInterval], labels: list[ReluLabel]):
    """Blocks (Gc, Gb, c, Ac, Ab, b) of the ReLU layer's output over Z.

    The output extends Z's factor space in place of forming the block
    intersection: stable coordinates pass through affinely and each
    unstable unit appends 4 continuous factors, 1 binary (or a 5th continuous
    factor when relaxed) and 3 constraint rows (two gates plus the row tying
    the unit's input parameterization to Z's coordinate expression), so the
    added complexity is exactly (4, 1, 3) per exact and (5, 0, 3) per relaxed
    unstable unit.
    """
    m = Z.dim
    if len(ivs) != m or len(labels) != m:
        raise ValueError(f"expected {m} intervals and labels")
    unstable = [(i, ivs[i], labels[i]) for i in range(m) if ivs[i].is_unstable]
    n_relaxed = sum(1 for _, _, lab in unstable if lab is ReluLabel.RELAXED)
    n_exact = len(unstable) - n_relaxed
    ng, nb, nc = Z.n_g, Z.n_b, Z.n_c
    new_g = 4 * len(unstable) + n_relaxed
    new_b = n_exact

    Gc = np.zeros((m, ng + new_g))
    Gb = np.zeros((m, nb + new_b))
    c = np.zeros(m)

    # Column offsets of each unstable unit's new factors.
    cont_col = ng
    bin_col = nb
    cols = []
    for _, _, lab in unstable:
        width = 5 if lab is ReluLabel.RELAXED else 4
        sigma = (cont_col + 4) if lab is ReluLabel.RELAXED else bin_col
        cols.append((cont_col, sigma))
        cont_col += width
        if lab is ReluLabel.EXACT:
            bin_col += 1

    Ac = np.zeros((nc + 3 * len(unstable), ng + new_g))
    Ab = np.zeros((nc + 3 * len(unstable), nb + new_b))
    rhs = np.zeros(nc + 3 * len(unstable))
    Ac[:nc, :ng] = Z.Ac
    Ab[:nc, :nb] = Z.Ab
    rhs[:nc] = Z.b

    # Output rows for stable coordinates.
    for i in range(m):
        if ivs[i].is_stable_positive:
            Gc[i, :ng] = Z.Gc[i]
            Gb[i, :nb] = Z.Gb[i]
            c[i] = Z.c[i]
        # stable negative: output row stays zero

    # Gating rows first (two per unit, in unit order), then the tie rows,
    # mirroring the block layout of the full intersection identity.
    row = nc
    for (i, iv, lab), (p0, sig) in zip(unstable, cols):
        p, q, s1, s2 = p0, p0 + 1, p0 + 2, p0 + 3
        Gc[i, q] = iv.beta / 2.0
        c[i] = iv.beta / 2.0
        Ac[row, p], Ac[row, s1] = 1.0, -1.0
        Ac[row + 1, q], Ac[row + 1, s2] = 1.0, -1.0
        if lab is ReluLabel.RELAXED:
            Ac[row, sig] = 1.0
            Ac[row + 1, sig] = -1.0
        else:
            Ab[row, sig] = 1.0
            Ab[row + 1, sig] = -1.0
        rhs[row] = rhs[row + 1] = -1.0
        row += 2
    tie = row
    for (i, iv, _), (p0, _) in zip(unstable, cols):
        Ac[tie, :ng] = -Z.Gc[i]
        Ab[tie, :nb] = -Z.Gb[i]
        Ac[tie, p0] = iv.alpha / 2.0
        Ac[tie, p0 + 1] = iv.beta / 2.0
        rhs[tie] = Z.c[i] - (iv.alpha + iv.beta) / 2.0
        tie += 1
    return Gc, Gb, c, Ac, Ab, rhs
