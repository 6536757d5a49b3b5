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

A ReLU layer over a set Z is assembled from this one unit encoding: each
unstable unit brings its factors, its output row and its two gate rows, and
a tie row, equating the unit's input row with Z's coordinate, takes the
place of the summed-gates row.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .errors import NotUnstableError
from .intervals import IntervalVector
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


def _unstable_blocks(alpha, beta, relaxed):
    """Generator/constraint blocks (Gc, Gb, c, Ac, Ab, b) of the gated
    two-segment encoding over [alpha, beta] and the factors
    (p, q, s1, s2, sigma); ``relaxed`` makes sigma a fifth continuous
    factor.  Rows of Gc/Gb/c: input, output; rows of Ac/Ab/b: the two
    gates, then their sum."""
    a, b = alpha, beta
    G = np.array([[a / 2.0, b / 2.0, 0.0, 0.0, 0.0],
                  [0.0, b / 2.0, 0.0, 0.0, 0.0]])
    A = np.array([[1.0, 0.0, -1.0, 0.0, 1.0],
                  [0.0, 1.0, 0.0, -1.0, -1.0],
                  [1.0, 1.0, -1.0, -1.0, 0.0]])
    n = 5 if relaxed else 4
    return (G[:, :n], G[:, n:], np.array([(a + b) / 2.0, b / 2.0]),
            A[:, :n], A[:, n:], np.array([-1.0, -1.0, -2.0]))


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
    return HybridZonotope(*_unstable_blocks(iv.alpha, iv.beta, False))


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
    return HybridZonotope(*_unstable_blocks(iv.alpha, iv.beta, True))


def relu_layer_graph(Z: HybridZonotope, iv: IntervalVector, relaxed):
    """Graph and image of the ReLU layer over an input set.

    ``iv`` must be a sound enclosure of Z's coordinate ranges, and
    ``relaxed[i]`` says whether unit i, if ``iv`` leaves it unstable, takes
    its triangle in place of its exact encoding.  The returned graph lives
    in R^(2m) with coordinates (inputs..., outputs...) and equals, as a set,
    the generalized intersection of the vector graph with Z under the input
    selector.  It is the constrained product of Z with the output
    (``relu_layer_output``), whose leading factors and rows are Z's.  When
    no unstable unit is relaxed the output equals the elementwise ReLU image
    of Z exactly.

    Returns:
        (graph, output) as hybrid zonotopes sharing Z's leading factors.
    """
    out = relu_layer_output(Z, iv, relaxed)
    return Z.constrained_product(out), out


def relu_layer_output(Z: HybridZonotope, iv: IntervalVector, relaxed) -> HybridZonotope:
    """The ReLU image of Z, exact when no unstable unit is relaxed.

    The output extends Z's factor space in place of forming the block
    intersection: stable coordinates pass through affinely (or to zero), and
    each unit that ``iv`` leaves unstable appends the factors of its
    encoding (``_unstable_blocks``, relaxed where ``relaxed`` says so), its
    output row and its two gate rows.  In place of the encoding's
    summed-gates row, a tie row equates the unit's input row with Z's
    coordinate expression.  Gate rows come first, two per unit in unit
    order, then the tie rows.  The added complexity is thus exactly
    (4, 1, 3) per exact and (5, 0, 3) per relaxed unstable unit.  A layer
    without unstable units adds no rows, and its output is on Z's rows
    (``HybridZonotope._on_rows``).
    """
    m = Z.dim
    if iv.dim != m or len(relaxed) != m:
        raise ValueError(f"expected {m} intervals and relaxed flags")
    lower, upper = iv.lower.tolist(), iv.upper.tolist()  # Python floats: faster per unit
    units = [(i, _unstable_blocks(lower[i], upper[i], relaxed[i]))
             for i in np.flatnonzero(iv.straddles_zero()).tolist()]
    ng, nb, nc = Z.n_g, Z.n_b, Z.n_c
    n_g = ng + sum(blocks[0].shape[1] for _, blocks in units)
    n_b = nb + sum(blocks[1].shape[1] for _, blocks in units)
    rows = nc + 3 * len(units)
    Gc, Gb, c = np.zeros((m, n_g)), np.zeros((m, n_b)), np.zeros(m)
    Ac, Ab, rhs = np.zeros((rows, n_g)), np.zeros((rows, n_b)), np.zeros(rows)
    Ac[:nc, :ng], Ab[:nc, :nb], rhs[:nc] = Z.Ac, Z.Ab, Z.b
    for i in np.flatnonzero(iv.lower >= 0.0):  # a stable negative output row stays zero
        Gc[i, :ng], Gb[i, :nb], c[i] = Z.Gc[i], Z.Gb[i], Z.c[i]
    next_c, next_b = ng, nb  # first free continuous and binary columns
    for k, (i, (Gu, Gbu, cu, Au, Abu, ru)) in enumerate(units):
        xc = slice(next_c, next_c + Gu.shape[1])
        xb = slice(next_b, next_b + Gbu.shape[1])
        next_c, next_b = xc.stop, xb.stop
        gates = slice(nc + 2 * k, nc + 2 * k + 2)
        tie = nc + 2 * len(units) + k
        Gc[i, xc], Gb[i, xb], c[i] = Gu[1], Gbu[1], cu[1]
        Ac[gates, xc], Ab[gates, xb], rhs[gates] = Au[:2], Abu[:2], ru[:2]
        Ac[tie, :ng], Ab[tie, :nb] = -Z.Gc[i], -Z.Gb[i]
        Ac[tie, xc], Ab[tie, xb], rhs[tie] = Gu[0], Gbu[0], Z.c[i] - cu[0]
    if not units:
        return HybridZonotope._on_rows(Gc, Gb, c, Z)
    return HybridZonotope(Gc, Gb, c, Ac, Ab, rhs)
