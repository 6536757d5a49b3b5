"""Hybrid zonotope data type and its algebraic operations.

A hybrid zonotope <Gc, Gb, c, Ac, Ab, b> represents the set

    { Gc @ xc + Gb @ xb + c :  xc in [-1,1]^ng,  xb in {-1,+1}^nb,
                               Ac @ xc + Ab @ xb = b }.

All values are immutable after construction; every operation is a pure
function of its inputs.  The set is the union of its binary fibers, one per
feasible {-1,+1} assignment of xb (a leaf).  The leaves depend on the rows
(Ac, Ab, b) alone: ``hzreach.lp`` enumerates them once per row system, with
every row allowed FEAS_TOL of slack, into a record that every set built on
those rows unchanged shares (``affine_map``, ``project``,
``constrained_product``, a ReLU layer without unstable units).  Emptiness,
support, exact interval hulls and sampling are answered from that cache:
support and hull values are the max/min over member points of the leaves'
fibers, whose factors ``FiberLp`` solves per row system, holding the rows
exactly in a fiber that allows it.  HiGHS solves each fiber LP; a batch of
costs over one fiber takes a solved LP's vertex wherever that LP's basis is
certified optimal, and once bases stop repeating a numpy simplex pass from
the last basis proposes one basis per open cost, whose answer is kept only
with the same certificate.  A set without binaries has one fiber,
which support and hulls solve without a leaf search.  Membership of a point
is emptiness of the set's intersection with the point, at the same
FEAS_TOL, searched among the set's cached leaves once it has them.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .errors import EmptySetError, LeafLimitError, PrefixMismatchError
from .intervals import IntervalVector
from .lp import (_HIGHS_OPTIONS, LpProblem, LpSession, MilpProblem, SolveResult,
                 enumerate_binary_leaves, pinned_bounds)
from .model import json_floats

# Equality constraints are deemed satisfied within this infinity-norm slack in
# all feasibility decisions (emptiness, membership, leaf enumeration); the
# fiber points behind support, exact hulls, sampling and projections use it
# only in a leaf whose fiber is infeasible with exact rows.
FEAS_TOL = 1e-7

# The simplex pass of ``FiberLp.minimizers`` runs once certification stops
# with at least PASS_MIN costs open: each pivot costs the pass a few numpy
# calls however many costs it carries, so below that one HiGHS re-solve per
# cost is cheaper.  It pivots at most PASS_CHUNK costs at a time, which bounds
# its memory, and each for at most PASS_PIVOTS pivots and bound flips.
PASS_MIN = 32
PASS_CHUNK = 64
PASS_PIVOTS = 100
# Entries of an entering column this small are no pivot in the ratio test.
_PIVOT_TOL = 1e-9
# The rows and bounds of an answer from the pass hold within the solver's own
# primal feasibility tolerance.
_PRIMAL_TOL = _HIGHS_OPTIONS["primal_feasibility_tolerance"]


@dataclass(frozen=True)
class ComplexityRecord:
    """Representation sizes (continuous generators, binary generators, constraints)."""

    n_g: int
    n_b: int
    n_c: int

    def astuple(self) -> tuple[int, int, int]:
        return (self.n_g, self.n_b, self.n_c)

    def __add__(self, other: "ComplexityRecord") -> "ComplexityRecord":
        return ComplexityRecord(self.n_g + other.n_g, self.n_b + other.n_b,
                                self.n_c + other.n_c)


def _matrix(M, rows: int | None, cols: int | None, name: str) -> np.ndarray:
    if M is None:
        M = np.zeros((rows if rows is not None else 0, cols if cols is not None else 0))
    M = np.array(M, dtype=float)  # copy: the stored block is frozen below
    if M.ndim != 2:
        raise ValueError(f"{name} must be a 2-D matrix, got ndim={M.ndim}")
    if rows is not None and M.shape[0] != rows:
        raise ValueError(f"{name} has {M.shape[0]} rows, expected {rows}")
    if cols is not None and M.shape[1] != cols:
        raise ValueError(f"{name} has {M.shape[1]} columns, expected {cols}")
    return M


def _coupled(y_rows: np.ndarray, z_rows: np.ndarray, y_gens: np.ndarray,
             z_gens: np.ndarray) -> np.ndarray:
    """The block matrix [[y_rows, 0], [0, z_rows], [-y_gens, z_gens]], its
    blocks written into one preallocated array."""
    (ry, cy), rz = y_rows.shape, z_rows.shape[0]
    M = np.zeros((ry + rz + y_gens.shape[0], cy + z_rows.shape[1]))
    M[:ry, :cy] = y_rows
    M[ry:ry + rz, cy:] = z_rows
    M[ry + rz:, :cy] = -y_gens
    M[ry + rz:, cy:] = z_gens
    return M


class _Rows:
    """One constraint system Ac @ xc + Ab @ xb = b and what is known of it:
    its cached leaves, and candidates: disjoint partial assignments of its
    binaries (0 = free) whose completions include all of its leaves, as
    ``generalized_intersect`` and ``state_pairs`` record them.  Every set
    built on these rows unchanged shares this record
    (``HybridZonotope._on_rows``)."""

    __slots__ = ("Ac", "Ab", "b", "leaves", "candidates")

    def __init__(self, Ac: np.ndarray, Ab: np.ndarray, b: np.ndarray):
        self.Ac, self.Ab, self.b = Ac, Ab, b
        self.leaves = self.candidates = None

    def milp(self, slack: float = 0.0) -> MilpProblem:
        """The factor-space feasibility MILP (zero cost) of these rows.

        Variables are [xc, xb] plus, when ``slack`` > 0, one bounded residual
        variable per equality row so that rows only need to hold within the
        requested infinity-norm slack.
        """
        (n_c, n_g), n_b = self.Ac.shape, self.Ab.shape[1]
        A = np.hstack([self.Ac, self.Ab])
        nv = n_g + n_b
        lb = -np.ones(nv)
        ub = np.ones(nv)
        if slack > 0.0 and n_c:
            A = np.hstack([A, np.eye(n_c)])
            lb = np.concatenate([lb, -slack * np.ones(n_c)])
            ub = np.concatenate([ub, slack * np.ones(n_c)])
        binaries = tuple(range(n_g, nv))
        return MilpProblem(LpProblem(np.zeros(lb.size), A, self.b, lb, ub), binaries)


class HybridZonotope:
    """Immutable hybrid zonotope in R^n.

    Args:
        Gc: continuous generator matrix, shape (n, n_g).  None means n_g = 0.
        Gb: binary generator matrix, shape (n, n_b).  None means n_b = 0.
        c: center vector, length n.
        Ac, Ab, b: equality constraints Ac @ xc + Ab @ xb = b, with n_c rows.
            None for all three means an unconstrained set.
    """

    __slots__ = ("Gc", "Gb", "c", "Ac", "Ab", "b", "_rows")

    def __init__(self, Gc=None, Gb=None, c=None, Ac=None, Ab=None, b=None):
        c = np.array(c, dtype=float).reshape(-1)
        if c.size == 0:
            raise ValueError("center must have at least one coordinate")
        n = c.size
        Gc = _matrix(Gc, n, None, "Gc")
        Gb = _matrix(Gb, n, None, "Gb")
        b = np.zeros(0) if b is None else np.array(b, dtype=float).reshape(-1)
        Ac = _matrix(Ac, b.size, Gc.shape[1], "Ac")
        Ab = _matrix(Ab, b.size, Gb.shape[1], "Ab")
        for name, arr in (("Gc", Gc), ("Gb", Gb), ("c", c), ("Ac", Ac), ("Ab", Ab), ("b", b)):
            if not np.isfinite(arr).all():
                raise ValueError(f"{name} contains non-finite entries")
            arr.setflags(write=False)
        object.__setattr__(self, "Gc", Gc)
        object.__setattr__(self, "Gb", Gb)
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "Ac", Ac)
        object.__setattr__(self, "Ab", Ab)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "_rows", _Rows(Ac, Ab, b))

    def __setattr__(self, name, value):
        raise AttributeError("HybridZonotope is immutable")

    # -- basic descriptors -------------------------------------------------

    @property
    def dim(self) -> int:
        return self.c.size

    @property
    def n_g(self) -> int:
        return self.Gc.shape[1]

    @property
    def n_b(self) -> int:
        return self.Gb.shape[1]

    @property
    def n_c(self) -> int:
        return self.b.size

    @property
    def complexity(self) -> ComplexityRecord:
        return ComplexityRecord(self.n_g, self.n_b, self.n_c)

    def __repr__(self):
        return (f"HybridZonotope(dim={self.dim}, n_g={self.n_g}, "
                f"n_b={self.n_b}, n_c={self.n_c})")

    # -- constructors ------------------------------------------------------

    @classmethod
    def from_box(cls, lower, upper) -> "HybridZonotope":
        """Axis-aligned box as a zonotope (zero-width coordinates allowed)."""
        lower = np.asarray(lower, dtype=float).reshape(-1)
        upper = np.asarray(upper, dtype=float).reshape(-1)
        if lower.size != upper.size or np.any(lower > upper):
            raise ValueError("invalid box bounds")
        return cls(Gc=np.diag(0.5 * (upper - lower)), c=0.5 * (upper + lower))

    @classmethod
    def from_point(cls, x) -> "HybridZonotope":
        x = np.asarray(x, dtype=float).reshape(-1)
        return cls(c=x)

    @classmethod
    def _on_rows(cls, Gc, Gb, c, rows: "HybridZonotope") -> "HybridZonotope":
        """The set of generator map (Gc, Gb, c) on the rows of ``rows``,
        sharing their arrays and their record; Gc and Gb must have the rows'
        factor counts (else ValueError)."""
        out = cls(Gc, Gb, c)
        if (out.n_g, out.n_b) != (rows.n_g, rows.n_b):
            raise ValueError(f"{out!r} cannot take the rows of {rows!r}: "
                             "their factor counts differ")
        for name in ("Ac", "Ab", "b", "_rows"):
            object.__setattr__(out, name, getattr(rows, name))
        return out

    # -- affine operations ---------------------------------------------

    def affine_map(self, R, t=None) -> "HybridZonotope":
        """The set {R @ x + t : x in self}, on this set's rows (``_on_rows``)."""
        R = np.asarray(R, dtype=float)
        if R.ndim != 2 or R.shape[1] != self.dim:
            raise ValueError(f"map matrix must have {self.dim} columns")
        t = np.zeros(R.shape[0]) if t is None else np.asarray(t, dtype=float).reshape(-1)
        if t.size != R.shape[0]:
            raise ValueError("offset length must match the map's row count")
        return HybridZonotope._on_rows(R @ self.Gc, R @ self.Gb, R @ self.c + t, self)

    def project(self, dims) -> "HybridZonotope":
        """Coordinate projection onto the given dimension indices, each in
        [0, dim) (else ValueError)."""
        dims = list(dims)
        if not all(0 <= d < self.dim for d in dims):
            raise ValueError(f"projection coordinates must lie in [0, {self.dim}), got {dims}")
        R = np.zeros((len(dims), self.dim))
        for row, d in enumerate(dims):
            R[row, d] = 1.0
        return self.affine_map(R)

    # -- set combinations --------------------------------------------------

    def generalized_intersect(self, other: "HybridZonotope", R=None) -> "HybridZonotope":
        """The set {x in self : R @ x in other}.

        The result follows the fixed block layout: the second operand's
        constraints are stacked on top, then this set's constraints, then the
        coupling rows; factors of the second operand come first.  This
        ordering is what keeps later constrained products well defined.

        The result's binaries are the other operand's, then this set's, in
        order, and its rows include this set's, so each of its leaves
        extends one of this set's on them.  When those are cached, or this
        set's record has candidates (``state_pairs`` records the binaries
        its symbolic pass pins), the result's record takes them as its
        candidates, with the other operand's binaries free: its leaf
        enumeration searches only below them.
        """
        if R is None:
            R = np.eye(self.dim)
        R = np.asarray(R, dtype=float)
        if R.shape != (other.dim, self.dim):
            raise ValueError(f"map must have shape ({other.dim}, {self.dim})")
        z, y = self, other
        Gc = np.zeros((z.dim, y.n_g + z.n_g))
        Gc[:, y.n_g:] = z.Gc
        Gb = np.zeros((z.dim, y.n_b + z.n_b))
        Gb[:, y.n_b:] = z.Gb
        Ac = _coupled(y.Ac, z.Ac, y.Gc, R @ z.Gc)
        Ab = _coupled(y.Ab, z.Ab, y.Gb, R @ z.Gb)
        b = np.concatenate([y.b, z.b, y.c - R @ z.c])
        out = HybridZonotope(Gc, Gb, z.c, Ac, Ab, b)
        known = z._rows.candidates if z._rows.leaves is None else z._rows.leaves
        if known is not None and y.n_b:
            known = tuple(np.concatenate([np.zeros(y.n_b), xb]) for xb in known)
        out._rows.candidates = known
        return out

    def cartesian_product(self, other: "HybridZonotope") -> "HybridZonotope":
        """Block-diagonal stacking: {(z, y) : z in self, y in other}."""
        z, y = self, other
        Gc = np.block([
            [z.Gc, np.zeros((z.dim, y.n_g))],
            [np.zeros((y.dim, z.n_g)), y.Gc],
        ])
        Gb = np.block([
            [z.Gb, np.zeros((z.dim, y.n_b))],
            [np.zeros((y.dim, z.n_b)), y.Gb],
        ])
        Ac = np.block([
            [z.Ac, np.zeros((z.n_c, y.n_g))],
            [np.zeros((y.n_c, z.n_g)), y.Ac],
        ])
        Ab = np.block([
            [z.Ab, np.zeros((z.n_c, y.n_b))],
            [np.zeros((y.n_c, z.n_b)), y.Ab],
        ])
        return HybridZonotope(Gc, Gb, np.concatenate([z.c, y.c]),
                              Ac, Ab, np.concatenate([z.b, y.b]))

    def constrained_product(self, other: "HybridZonotope") -> "HybridZonotope":
        """Factor-sharing product of self with a set derived from it.

        Requires this set's constraints to be an exact leading prefix of the
        other's (matrix prefix equality, tolerance zero): the other set's
        first n_g/n_b factor columns are then identified with this set's
        factors, so paired coordinates are generated by the same factors.
        The result is a subset of the plain Cartesian product, on the other
        set's rows (``_on_rows``).

        Raises:
            PrefixMismatchError: if the partition condition fails.
        """
        z, y = self, other
        if y.n_g < z.n_g or y.n_b < z.n_b or y.n_c < z.n_c:
            raise PrefixMismatchError("second operand has fewer factors or constraints")
        ok = (np.array_equal(y.Ac[:z.n_c, :z.n_g], z.Ac)
              and not y.Ac[:z.n_c, z.n_g:].any()
              and np.array_equal(y.Ab[:z.n_c, :z.n_b], z.Ab)
              and not y.Ab[:z.n_c, z.n_b:].any()
              and np.array_equal(y.b[:z.n_c], z.b))
        if not ok:
            raise PrefixMismatchError("constraints of the first operand are not a "
                                      "leading prefix of the second operand's")
        Gc = np.vstack([
            np.hstack([z.Gc, np.zeros((z.dim, y.n_g - z.n_g))]),
            y.Gc,
        ])
        Gb = np.vstack([
            np.hstack([z.Gb, np.zeros((z.dim, y.n_b - z.n_b))]),
            y.Gb,
        ])
        return HybridZonotope._on_rows(Gc, Gb, np.concatenate([z.c, y.c]), y)

    # -- optimization-backed queries -----------------------------------

    def is_empty(self) -> bool:
        """True iff no feasible factor assignment exists (within FEAS_TOL slack)."""
        return self.n_c > 0 and not self.feasible_binary_assignments()

    def contains_point(self, x) -> bool:
        """Membership of a point: is the set's intersection with the point
        nonempty (``is_empty``, every row within FEAS_TOL)?  The point adds
        rows but no binaries, so a set whose leaves are cached has the
        intersection test only those (``generalized_intersect``).

        Raises:
            ValueError: if the point has the wrong dimension or a non-finite
                coordinate.
        """
        x = np.asarray(x, dtype=float).reshape(-1)
        if x.size != self.dim:
            raise ValueError("point dimension mismatch")
        return not self.generalized_intersect(HybridZonotope.from_point(x)).is_empty()

    def support(self, d) -> float:
        """max over the set of d @ x: the largest over the cached leaves of
        d @ x at the fiber's maximizer (``_leaf_maximizers``).  A set without
        rows has the closed form d @ c + |d @ Gc|_1 + |d @ Gb|_1.

        Raises:
            EmptySetError: if the set is empty.
        """
        d = np.asarray(d, dtype=float).reshape(-1)
        if d.size != self.dim:
            raise ValueError("direction dimension mismatch")
        if self.n_c == 0:
            return float(d @ self.c + np.abs(d @ self.Gc).sum() + np.abs(d @ self.Gb).sum())
        return float((self._leaf_maximizers(d[None], "support") @ d).max())

    def interval_hull(self, mode: str = "exact", scope: dict | None = None) -> IntervalVector:
        """Smallest axis-aligned box containing the set.

        ``exact`` is the box of the fiber maximizers of the 2*dim coordinate
        directions over the leaves (``_leaf_maximizers``, warm in ``scope``
        when given); ``generator_relaxed`` ignores the constraints and
        returns c +/- (|Gc| @ 1 + |Gb| @ 1), a sound superset and, for a set
        without rows, the exact hull.
        """
        if mode not in ("exact", "generator_relaxed"):
            raise ValueError(f"unknown hull mode: {mode!r}")
        if mode == "generator_relaxed" or self.n_c == 0:
            rad = np.abs(self.Gc) @ np.ones(self.n_g) + np.abs(self.Gb) @ np.ones(self.n_b)
            return IntervalVector(self.c - rad, self.c + rad)
        eye = np.eye(self.dim)
        points = self._leaf_maximizers(np.vstack([-eye, eye]), "interval hull", scope)
        return IntervalVector(points.min(axis=0), points.max(axis=0))

    def _fibers(self, scope: dict | None) -> "FiberLp":
        """The FiberLp of this set's rows in ``scope``, a dict from row
        record to FiberLp; a new one, its LPs cold, without a scope."""
        return FiberLp(self) if scope is None else scope.setdefault(self._rows, FiberLp(self))

    def _points(self, xb: np.ndarray, costs: np.ndarray, fibers: "FiberLp") -> np.ndarray:
        """Member points of fiber ``xb``, row i at the factors minimizing
        costs[i] @ xc (``FiberLp.minimizers``)."""
        return fibers.minimizers(xb, costs) @ self.Gc.T + self.Gb @ xb + self.c

    def _leaf_maximizers(self, dirs: np.ndarray, query: str,
                         scope: dict | None = None) -> np.ndarray:
        """The fiber maximizers of every direction in ``dirs`` over every
        leaf, stacked, solved by the FiberLp of this set's rows in ``scope``
        (``_fibers``).

        A binary-free set with continuous factors has one fiber, and its
        LPs tell whether it is empty: it is solved directly, without a
        leaf search and its feasibility LP first.

        Raises:
            EmptySetError: if the set is empty, naming the ``query``.
        """
        fibers, costs = self._fibers(scope), -(dirs @ self.Gc)
        if self.n_b == 0 and self.n_g:
            try:
                return self._points(np.zeros(0), costs, fibers)
            except EmptySetError as err:
                raise EmptySetError(f"{query} of an empty set") from err
        leaves = self.feasible_binary_assignments()
        if not leaves:
            raise EmptySetError(f"{query} of an empty set")
        return np.vstack([self._points(xb, costs, fibers) for xb in leaves])

    def feasible_binary_assignments(self) -> list[np.ndarray]:
        """All {-1,+1} assignments of the binary factors admitting feasible xc.

        The enumeration runs once per row system; later calls, by this set
        or any other on the same rows, return the cached, read-only
        assignments.  A record with candidates searches only below them.

        Raises:
            LeafLimitError: if the set has more than ``hzreach.lp.LEAF_LIMIT``
                leaves.
        """
        rows = self._rows
        if rows.leaves is None:
            try:  # errors name the set
                leaves = enumerate_binary_leaves(rows.milp(slack=FEAS_TOL), rows.candidates)
            except LeafLimitError as err:
                raise LeafLimitError(f"{self!r}: {err}") from err
            except RuntimeError as err:
                raise RuntimeError(f"{self!r}: {err}") from err
            for xb in leaves:
                xb.setflags(write=False)
            rows.leaves = tuple(leaves)
        return list(rows.leaves)

    def sample_points(self, k: int, seed: int, scope: dict | None = None) -> np.ndarray:
        """k member points, deterministic for a fixed seed, shape (k, dim).

        Each draw picks one of the cached leaves at random, and the
        continuous factors solve that fiber's LP with a random objective, so
        samples land on vertices of the chosen fiber.  All draws are made
        first, and each leaf's draws are solved as one batch in draw order
        (``FiberLp.minimizers``, warm in ``scope`` when given); row j is
        still the j-th draw's point.  A fiber with many vertices, whose
        draws rarely share an optimal basis, has most of its draws answered
        by the simplex pass of that batch, not by one LP each.  A set with
        one leaf draws all costs in one call, which yields the same stream
        as the per-draw loop, since choosing among one leaf consumes no
        random bits.

        Raises:
            EmptySetError: if the set is empty.
        """
        leaves = self.feasible_binary_assignments()
        if not leaves:
            raise EmptySetError("cannot sample an empty set")
        rng = np.random.default_rng(seed)
        if len(leaves) == 1:  # rng.integers(1) draws nothing from the stream
            leaf = np.zeros(k, dtype=int)
            costs = rng.standard_normal((k, self.n_g))
        else:
            leaf = np.empty(k, dtype=int)
            costs = np.empty((k, self.n_g))
            for j in range(k):
                leaf[j] = rng.integers(len(leaves))
                costs[j] = rng.standard_normal(self.n_g)
        fibers = self._fibers(scope)
        out = np.empty((k, self.dim))
        for i, xb in enumerate(leaves):
            rows = np.flatnonzero(leaf == i)
            out[rows] = self._points(xb, costs[rows], fibers)
        return out

    # -- serialization -------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON object with row-major nested arrays; empty blocks are omitted."""
        d: dict = {"c": self.c.tolist()}
        if self.n_g:
            d["Gc"] = self.Gc.tolist()
        if self.n_b:
            d["Gb"] = self.Gb.tolist()
        if self.n_c:
            d["Ac"] = self.Ac.tolist()
            d["Ab"] = self.Ab.tolist()
            d["b"] = self.b.tolist()
        return d

    @classmethod
    def from_json_dict(cls, d: dict) -> "HybridZonotope":
        if not isinstance(d, dict) or "c" not in d:
            raise ValueError("hybrid zonotope JSON must be an object with key 'c'")

        def numbers(key):
            return json_floats(d.get(key, []), f"hybrid zonotope JSON key '{key}'")

        c = numbers("c").reshape(-1)
        n = c.size
        b = numbers("b").reshape(-1)
        nc = b.size

        def block(key, rows, default_cols):
            if key in d:
                arr = numbers(key)
                return arr.reshape(rows, -1) if arr.size else arr.reshape(rows, 0)
            return np.zeros((rows, default_cols))

        Gc = block("Gc", n, 0)
        Gb = block("Gb", n, 0)
        Ac = block("Ac", nc, Gc.shape[1])
        Ab = block("Ab", nc, Gb.shape[1])
        return cls(Gc, Gb, c, Ac, Ab, b)

    def save(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(json.dumps(self.to_json_dict()))  # one string, by the C encoder

    @classmethod
    def load(cls, path) -> "HybridZonotope":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


class FiberLp:
    """Cost minimization over the factors of one binary fiber at a time.

    The fiber of a binary assignment xb is the constrained zonotope left when
    the binaries are fixed to xb.  Its minimizing factors depend on the rows
    alone, so a FiberLp serves every set on one row record, each mapping the
    factors through its own Gc, Gb, c.  One LpSession per row slack serves
    every fiber and cost of the queries made through one instance: a fiber's
    binaries are pinned through column bounds, which change only when the
    fiber does.  The session with the FEAS_TOL residual columns is built only
    for rows with a fiber that needs it.  A batch of costs over one fiber
    (``minimizers``) pays one LP per distinct optimal basis while bases
    repeat; once they stop repeating, one vectorized simplex pass from the
    last LP's basis answers the batch's open costs, and HiGHS only those the
    pass cannot certify.  Each query makes its own instance, unless its
    caller passes a scope that holds one per row record
    (``HybridZonotope._fibers``).
    """

    def __init__(self, hz: HybridZonotope):
        self._rows = hz._rows
        self._sessions: dict = {}  # row slack -> (LpSession, MilpProblem)
        self._pinned: dict = {}  # row slack -> (pinned fiber, its column bounds lb, ub)
        self._movable: dict = {}  # row slack -> columns of the pinned fiber that can move

    def minimizers(self, xb: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Factors xc of fiber ``xb``, one row per row of ``costs``: row i
        minimizes costs[i] @ xc.

        The costs are solved in order.  After each LP, one reduced-cost test
        over the costs not yet answered gives every cost for which that LP's
        optimal basis is optimal too the LP's vertex; the test is one solve
        with that basis over the columns it tests, not one per cost
        (``_certified``).  Certification stops for the rest of the batch
        once it has answered fewer costs than the tests it ran.  If at least
        PASS_MIN costs are then open, the simplex pass pivots them all from
        that LP's basis at once (``_pivoted``); a cost it answers carries the
        same certificate, checked on its own basis.  Every other cost gets
        its own LP.  Rows are held exactly first, per fiber: only once this
        fiber's exact LP is infeasible does the rest of the batch run with
        FEAS_TOL slack, so a fiber nonempty with exact rows gets exact
        factors whatever the other fibers of the rows need.

        Raises:
            EmptySetError: if the fiber is empty even within FEAS_TOL.
        """
        costs = np.asarray(costs, dtype=float)
        n_g = self._rows.Ac.shape[1]
        if self._rows.b.size == 0 or n_g == 0:
            xc = np.where(costs > 0, -1.0, 1.0)
        else:
            xc = np.empty_like(costs)
            todo = np.ones(len(costs), dtype=bool)
            slack, tests, certified = 0.0, 0, 0
            for i in range(len(costs)):
                if not todo[i]:
                    continue
                todo[i] = False
                res = self._solve(slack, xb, costs[i])
                if not res.is_optimal and slack == 0.0:
                    slack = FEAS_TOL
                    res = self._solve(slack, xb, costs[i])
                if not res.is_optimal:
                    raise EmptySetError("enumerated assignment lost feasibility")
                xc[i] = res.x[:n_g]
                if certified >= tests and todo.any():
                    rest = np.flatnonzero(todo)
                    hits = rest[self._certified(slack, res.x, costs[rest])]
                    xc[hits] = res.x[:n_g]
                    todo[hits] = False
                    tests += 1
                    certified += hits.size
                    if certified < tests and todo.sum() >= PASS_MIN:
                        rest = np.flatnonzero(todo)
                        done, x = self._pivoted(slack, res.x, costs[rest])
                        xc[rest[done]] = x[done, :n_g]
                        todo[rest[done]] = False
        return xc

    def _solve(self, slack: float, xb: np.ndarray, cost: np.ndarray) -> SolveResult:
        """The LP of fiber ``xb`` at row ``slack`` under ``cost`` over its
        leading factors (xc, or [xc, xb])."""
        if slack not in self._sessions:
            p = self._rows.milp(slack=slack)
            self._sessions[slack] = (LpSession(p.lp), p)
        session, p = self._sessions[slack]
        c = np.concatenate([cost, np.zeros(p.lp.num_vars - cost.size)])
        pinned = self._pinned.get(slack)
        if pinned is not None and np.array_equal(pinned[0], xb):
            return session.solve(c)
        lb, ub = pinned_bounds(p, xb)
        self._pinned[slack] = (np.array(xb), lb, ub)  # copied: callers may reuse xb
        self._movable.pop(slack, None)
        return session.solve(c, lb, ub)

    def _movable_columns(self, slack: float) -> np.ndarray:
        """The columns of the pinned fiber at ``slack`` that can move: not
        the pinned binaries, and no column of a forcing row, whose
        right-hand side equals its least or greatest activity over the
        fiber's box (Andersen & Andersen 1995)."""
        if slack not in self._movable:
            _, p = self._sessions[slack]
            _, lb, ub = self._pinned[slack]
            A = p.lp.A
            low, high = np.minimum(A * lb, A * ub), np.maximum(A * lb, A * ub)
            forcing = (p.lp.b == low.sum(axis=1)) | (p.lp.b == high.sum(axis=1))
            self._movable[slack] = (lb < ub) & ~A[forcing].any(axis=0)
        return self._movable[slack]

    def _certified(self, slack: float, x: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Which rows of ``costs`` (over xc) the optimal basis of the last LP
        at ``slack``, whose solution is x, is optimal for.

        A basis is optimal for every cost whose reduced costs keep their
        signs (``_keeps_signs``).  The reduced costs
        d = c - (B^-1 @ A).T @ c_B are linear in the cost (Bertsimas &
        Tsitsiklis 1997, section 3.1), so one solve B @ W = A[:, test] over
        the tested columns serves every cost of the batch.  Only columns
        that can move are tested (``_movable_columns``).
        """
        session, p = self._sessions[slack]
        basic = session.basic_variables()
        if basic is None:
            return np.zeros(len(costs), dtype=bool)
        A = p.lp.A
        _, lb, ub = self._pinned[slack]
        logical = basic < 0
        columns = basic[~logical]
        test = self._movable_columns(slack).copy()
        test[columns] = False
        B = np.zeros((A.shape[0], A.shape[0]))  # a logical's column is +/-e_r, its cost 0
        B[:, ~logical] = A[:, columns]
        B[-1 - basic[logical], logical] = 1.0
        try:
            W = np.linalg.solve(B, A[:, test])
        except np.linalg.LinAlgError:
            return np.zeros(len(costs), dtype=bool)
        C = np.zeros((A.shape[1], len(costs)))
        C[:costs.shape[1]] = costs.T
        d = C[test] - W[~logical].T @ C[columns]
        xt = x[test]
        return _keeps_signs(d.T, xt == lb[test], xt == ub[test])

    def _pivoted(self, slack: float, x: np.ndarray,
                 costs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which rows of ``costs`` (over xc) the simplex pass answers, and
        for each of those its optimal columns (the other rows are unset).

        Every cost starts from the optimal basis of the last LP at
        ``slack``, whose solution is x (``_BoundedSimplex``).
        """
        session, p = self._sessions[slack]
        basic = session.basic_variables()
        if basic is None:
            return np.zeros(len(costs), dtype=bool), np.empty((len(costs), p.lp.num_vars))
        _, lb, ub = self._pinned[slack]
        simplex = _BoundedSimplex(p.lp.A, p.lp.b, lb, ub, self._movable_columns(slack))
        C = np.zeros((len(costs), p.lp.num_vars))
        C[:, :costs.shape[1]] = costs
        return simplex.solve(basic, x, C)


def _keeps_signs(d: np.ndarray, at_lb: np.ndarray, at_ub: np.ndarray) -> np.ndarray:
    """Is a basis optimal for each cost, given the reduced costs d of its
    tested nonbasic columns (one row per cost) and whether each such column
    sits at its lower or upper bound?  It is when every d is >= 0 at a lower
    bound and <= 0 at an upper one (Bertsimas & Tsitsiklis 1997, section
    5.1), tested without tolerance."""
    return ~((d < 0) & ~at_ub | (d > 0) & ~at_lb).any(axis=-1)


class _BoundedSimplex:
    """The primal simplex with bounded variables (Bertsimas & Tsitsiklis
    1997, chapter 3, and section 5.1 for the bounds), run on many costs at
    once in numpy over one fiber LP: minimize c @ x subject to A @ x = b,
    lb <= x <= ub.

    Row r's logical is column n + r of [A, I], fixed at 0, as HiGHS reports
    its basis (``LpSession.basic_variables``).  Every cost starts from one
    primal feasible basis and keeps its own basis and explicit inverse.
    Pricing is Dantzig's, over the movable columns only (the others never
    enter); the ratio test is the textbook one, with bound flips; the
    inverse takes a product-form update, in place and only for the costs
    still pivoting.  A cost stops once no reduced cost has a sign that
    improves it, or after PASS_PIVOTS pivots and flips.

    The pass only proposes bases.  A cost's answer is accepted only if a
    fresh solve with its final basis, not the updated inverse, gives
    columns within the session's primal tolerance of every row and bound and
    reduced costs that keep their signs (``_keeps_signs``).
    """

    def __init__(self, A: np.ndarray, b: np.ndarray, lb: np.ndarray, ub: np.ndarray,
                 movable: np.ndarray):
        m, n = A.shape
        self.n = n
        self.A = np.hstack([A, np.eye(m)])
        self.b = b
        self.lb = np.concatenate([lb, np.zeros(m)])
        self.ub = np.concatenate([ub, np.zeros(m)])
        self.movable = np.concatenate([movable, np.zeros(m, dtype=bool)])

    def solve(self, basic: np.ndarray, x: np.ndarray,
              C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Which costs (rows of C, over the n columns) the pass answers, and
        their optimal columns (the other rows are unset), from the basis
        ``basic`` in the form of ``LpSession.basic_variables`` whose solution
        is x.  At most PASS_CHUNK costs pivot at a time."""
        (k, n), m = C.shape, self.A.shape[0]
        answered, x_out = np.zeros(k, dtype=bool), np.empty((k, n))
        basis = np.where(basic >= 0, basic, n - 1 - basic)
        x = np.concatenate([x, np.zeros(m)])
        nonbasic = np.ones(x.size, dtype=bool)
        nonbasic[basis] = False
        if not ((x == self.lb) | (x == self.ub))[nonbasic].all():
            return answered, x_out
        try:
            inverse = np.linalg.inv(self.A[:, basis])
        except np.linalg.LinAlgError:
            return answered, x_out
        x[basis] = inverse @ (self.b - self.A[:, nonbasic] @ x[nonbasic])
        C = np.hstack([C, np.zeros((k, m))])
        for start in range(0, k, PASS_CHUNK):
            chunk = np.arange(start, min(start + PASS_CHUNK, k))
            stopped, bases, xs = self._pivot(basis, inverse, x, C[chunk])
            if not stopped.any():
                continue
            ok, cols = self._check(bases[stopped], xs[stopped], C[chunk[stopped]])
            kept = chunk[stopped][ok]
            answered[kept], x_out[kept] = True, cols[ok]
        return answered, x_out

    def _pivot(self, basis: np.ndarray, inverse: np.ndarray, x: np.ndarray,
               C: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Pivot every cost from one basis, its inverse and solution x; for
        each cost whether it stopped at a basis whose updated reduced costs
        keep their signs, and its final basis and columns."""
        k, (m, n) = len(C), self.A.shape
        stopped = np.zeros(k, dtype=bool)
        bases, xs = np.empty((k, m), dtype=basis.dtype), np.empty((k, n))
        # the working state of the costs still pivoting, original indices in act
        act, B_inv = np.arange(k), np.repeat(inverse[None], k, axis=0)
        basis, x = np.repeat(basis[None], k, axis=0), np.repeat(x[None], k, axis=0)
        is_basic = np.zeros((k, n), dtype=bool)
        is_basic[:, basis[0]] = True
        for pivots in range(PASS_PIVOTS + 1):
            y = np.einsum("ki,kij->kj", np.take_along_axis(C, basis, axis=1), B_inv)
            d = C - y @ self.A
            at_lb = x == self.lb
            gain = np.where(self.movable & ~is_basic, np.where(at_lb, -d, d), 0.0)
            q = gain.argmax(axis=1)
            done = np.take_along_axis(gain, q[:, None], axis=1)[:, 0] <= 0.0
            stopped[act[done]] = True
            bases[act[done]], xs[act[done]] = basis[done], x[done]
            if done.all() or pivots == PASS_PIVOTS:
                break
            if done.any():
                keep = ~done
                act, B_inv, basis, x, is_basic, C, q, at_lb = (
                    act[keep], B_inv[keep], basis[keep], x[keep], is_basic[keep], C[keep],
                    q[keep], at_lb[keep])
            # the ratio test: x[q] moves by t in its improving direction and
            # the basic columns by t * delta, until one of them reaches a
            # bound (it leaves the basis) or x[q] its other bound (a flip)
            rows = np.arange(len(act))
            up = at_lb[rows, q]
            w = np.einsum("kij,jk->ki", B_inv, self.A[:, q])
            delta = np.where(up, -1.0, 1.0)[:, None] * w
            x_basic = np.take_along_axis(x, basis, axis=1)
            room = np.maximum(np.where(delta < 0, x_basic - self.lb[basis],
                                       self.ub[basis] - x_basic), 0.0)
            steps = np.full(delta.shape, np.inf)
            np.divide(room, np.abs(delta), out=steps, where=np.abs(delta) > _PIVOT_TOL)
            r = steps.argmin(axis=1)
            t = steps[rows, r]
            span = self.ub[q] - self.lb[q]
            flip = span <= t
            t = np.where(flip, span, t)
            np.put_along_axis(x, basis, x_basic + t[:, None] * delta, axis=1)
            x[rows, q] = np.where(up, self.lb[q] + t, self.ub[q] - t)
            x[rows[flip], q[flip]] = np.where(up, self.ub[q], self.lb[q])[flip]
            p = rows[~flip]
            leaving = basis[p, r[p]]
            x[p, leaving] = np.where(delta[p, r[p]] < 0, self.lb[leaving], self.ub[leaving])
            is_basic[p, leaving], is_basic[p, q[p]] = False, True
            basis[p, r[p]] = q[p]
            # product-form update of each inverse; a flip's is the identity
            w[flip] = 0.0
            pivot_row = B_inv[rows, r] / np.where(flip, 1.0, w[rows, r])[:, None]
            B_inv -= w[:, :, None] * pivot_row[:, None, :]
            B_inv[rows, r] = pivot_row
        return stopped, bases, xs

    def _check(self, basis: np.ndarray, x: np.ndarray,
               C: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """For each cost, does a fresh solve with its basis, its nonbasic
        columns at their values in x, hold every row and bound within the
        session's primal tolerance and keep the reduced costs' signs?  And
        its columns over the n structural variables, clipped to their bounds."""
        k = len(C)
        nonbasic = np.ones(x.shape, dtype=bool)
        np.put_along_axis(nonbasic, basis, False, axis=1)
        B = np.swapaxes(self.A.T[basis], 1, 2)  # (k, m, m): B[i] = A[:, basis[i]]
        rhs = self.b - np.where(nonbasic, x, 0.0) @ self.A.T
        c_basic = np.take_along_axis(C, basis, axis=1)
        try:
            x_basic = np.linalg.solve(B, rhs[:, :, None])[:, :, 0]
            y = np.linalg.solve(np.swapaxes(B, 1, 2), c_basic[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # a singular basis in the chunk
            return np.zeros(k, dtype=bool), np.empty((k, self.n))
        lb, ub = self.lb[basis], self.ub[basis]
        ok = ((x_basic >= lb - _PRIMAL_TOL) & (x_basic <= ub + _PRIMAL_TOL)).all(axis=1)
        x = x.copy()
        np.put_along_axis(x, basis, x_basic, axis=1)
        cols = np.clip(x[:, :self.n], self.lb[:self.n], self.ub[:self.n])
        ok &= (np.abs(cols @ self.A[:, :self.n].T - self.b) <= _PRIMAL_TOL).all(axis=1)
        d = C - y @ self.A
        tested = self.movable & nonbasic
        ok &= _keeps_signs(np.where(tested, d, 0.0), x == self.lb, x == self.ub)
        return ok, cols
