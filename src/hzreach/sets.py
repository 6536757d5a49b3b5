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
exactly in a fiber that allows it.  A set without binaries has one fiber,
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
from .lp import (LpProblem, LpSession, MilpProblem, SolveResult, enumerate_binary_leaves,
                 pinned_bounds)

# Equality constraints are deemed satisfied within this infinity-norm slack in
# all feasibility decisions (emptiness, membership, leaf enumeration); the
# fiber points behind support, exact hulls, sampling and projections use it
# only in a leaf whose fiber is infeasible with exact rows.
FEAS_TOL = 1e-7


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
    its cached leaves, and the candidate leaves ``generalized_intersect``
    recorded (cached leaves of another set that include all of its leaves).
    Every set built on these rows unchanged shares this record
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

        When ``other`` has no binaries, the result's binaries are this set's,
        in order, and its rows include this set's, so each of its leaves is
        one of this set's; when those are cached, the result's leaf
        enumeration tests only them (its record's candidates).
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
        if y.n_b == 0:
            out._rows.candidates = z._rows.leaves
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
        assignments.  A set from ``generalized_intersect`` with a binary-free
        operand tests only the cached leaves of the other one.

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
        still the j-th draw's point.  A set with one leaf draws all costs in
        one call, which yields the same stream as the per-draw loop, since
        choosing among one leaf consumes no random bits.

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
        if "c" not in d:
            raise ValueError("hybrid zonotope JSON requires key 'c'")
        c = np.asarray(d["c"], dtype=float).reshape(-1)
        n = c.size
        b = np.asarray(d.get("b", []), dtype=float).reshape(-1)
        nc = b.size

        def block(key, rows, default_cols):
            if key in d:
                arr = np.asarray(d[key], dtype=float)
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
    (``minimizers``) pays one LP per distinct optimal basis, not one per
    cost.  Each query makes its own instance, unless its caller passes a
    scope that holds one per row record (``HybridZonotope._fibers``).
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
        once it has answered fewer costs than the tests it ran.  Rows are
        held exactly first, per fiber: only once this fiber's exact LP is
        infeasible does the rest of the batch run with FEAS_TOL slack, so a
        fiber nonempty with exact rows gets exact factors whatever the other
        fibers of the rows need.

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

    def _certified(self, slack: float, x: np.ndarray, costs: np.ndarray) -> np.ndarray:
        """Which rows of ``costs`` (over xc) the optimal basis of the last LP
        at ``slack``, whose solution is x, is optimal for.

        A basis is optimal for every cost whose reduced costs keep their
        signs (Bertsimas & Tsitsiklis 1997, section 5.1): d must be >= 0 on
        each nonbasic column at its lower bound and <= 0 at its upper, tested
        without tolerance.  The reduced costs d = c - (B^-1 @ A).T @ c_B are
        linear in the cost (ibid., section 3.1), so one solve
        B @ W = A[:, test] over the tested columns serves every cost of the
        batch.  Columns that cannot move are skipped: the pinned binaries and
        every column of a forcing row, whose right-hand side equals its least
        or greatest activity over the fiber's box (Andersen & Andersen 1995).
        """
        session, p = self._sessions[slack]
        basic = session.basic_variables()
        if basic is None:
            return np.zeros(len(costs), dtype=bool)
        A = p.lp.A
        _, lb, ub = self._pinned[slack]
        if slack not in self._movable:
            low, high = np.minimum(A * lb, A * ub), np.maximum(A * lb, A * ub)
            forcing = (p.lp.b == low.sum(axis=1)) | (p.lp.b == high.sum(axis=1))
            self._movable[slack] = (lb < ub) & ~A[forcing].any(axis=0)
        logical = basic < 0
        columns = basic[~logical]
        test = self._movable[slack].copy()
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
        at_lb, at_ub = (xt == lb[test])[:, None], (xt == ub[test])[:, None]
        return ~((d < 0) & ~at_ub | (d > 0) & ~at_lb).any(axis=0)
