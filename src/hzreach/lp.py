"""Bounded-variable LP solving and enumeration of {-1,+1} binary leaves.

This is the engine behind emptiness, membership, support and exact interval
hull queries on hybrid zonotopes.  Linear programs are equality-constrained
with finite box bounds on every variable; binaries are variables restricted
to the two values -1 and +1.  The LPs are delegated to HiGHS via scipy,
which returns vertex-optimal basic solutions deterministically.

``enumerate_binary_leaves`` is the one search over binaries: it lists every
complete assignment whose pinned LP is feasible.  It branches on the most
fractional free binary, lets a child that its parent's LP solution already
satisfies skip its own LP, and returns the leaves in lexicographic order
(-1 first) whatever order it found them in.  A MILP is then the best pinned
LP over those leaves (``milp_solve``).

Within one query the constraint rows never change, only the costs (samples,
support and projection directions) or the column bounds (search nodes,
pinned binaries).  ``LpSession`` therefore passes the model to HiGHS
once and re-solves it warm from the last basis, with the simplex variant
that keeps that basis feasible: primal after a change of costs only, dual
after a change of bounds.  ``lp_solve`` is the one-shot solver through
``scipy.optimize.linprog`` and the reference that sessions are tested
against.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass
from enum import Enum

import numpy as np
from scipy.optimize import linprog

from .errors import LeafLimitError

try:
    from scipy.optimize._highspy import _core as _highs
except ImportError as err:  # scipy < 1.15 has no Python binding of HiGHS
    raise ImportError("hzreach needs scipy >= 1.15: LpSession drives HiGHS through "
                      "scipy.optimize._highspy._core, which this scipy lacks") from err

_HIGHS_OPTIONS = {
    "presolve": True,
    "primal_feasibility_tolerance": 1e-9,
    "dual_feasibility_tolerance": 1e-9,
}

# Most feasible leaves one enumeration lists before it gives up, so work on a
# set with exponentially many leaves stays bounded.
LEAF_LIMIT = 100_000


class SolveStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class SolveResult:
    status: SolveStatus
    x: np.ndarray | None = None
    objective: float | None = None

    @property
    def is_optimal(self) -> bool:
        return self.status is SolveStatus.OPTIMAL


@dataclass(frozen=True)
class LpProblem:
    """minimize c @ x  subject to  A @ x = b,  lb <= x <= ub."""

    c: np.ndarray
    A: np.ndarray
    b: np.ndarray
    lb: np.ndarray
    ub: np.ndarray

    def __post_init__(self):
        c = np.asarray(self.c, dtype=float).reshape(-1)
        A = np.asarray(self.A, dtype=float)
        if A.ndim != 2:
            A = A.reshape(-1, c.size)
        b = np.asarray(self.b, dtype=float).reshape(-1)
        lb = np.asarray(self.lb, dtype=float).reshape(-1)
        ub = np.asarray(self.ub, dtype=float).reshape(-1)
        if A.shape != (b.size, c.size):
            raise ValueError(f"A has shape {A.shape}, expected ({b.size}, {c.size})")
        if lb.size != c.size or ub.size != c.size:
            raise ValueError("bound vectors must match the number of variables")
        if np.any(lb > ub):
            raise ValueError("lower bounds exceed upper bounds")
        if not (np.all(np.isfinite(lb)) and np.all(np.isfinite(ub))):
            raise ValueError("all variable bounds must be finite")
        object.__setattr__(self, "c", c)
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "lb", lb)
        object.__setattr__(self, "ub", ub)

    @property
    def num_vars(self) -> int:
        return self.c.size


@dataclass(frozen=True)
class MilpProblem:
    """An LpProblem plus the indices of variables restricted to {-1, +1}."""

    lp: LpProblem
    binary_index: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.binary_index)
        if len(set(idx)) != len(idx):
            raise ValueError("binary_index contains duplicates")
        for i in idx:
            if not 0 <= i < self.lp.num_vars:
                raise ValueError(f"binary index {i} out of range")
        object.__setattr__(self, "binary_index", idx)


def _no_variables(p: LpProblem) -> SolveResult:
    """The LP without variables: feasible iff every right-hand side is zero."""
    if p.b.size and np.max(np.abs(p.b)) > 1e-12:
        return SolveResult(SolveStatus.INFEASIBLE)
    return SolveResult(SolveStatus.OPTIMAL, np.zeros(0), 0.0)


def lp_solve(p: LpProblem) -> SolveResult:
    """Solve a bounded-variable equality-constrained LP.

    Returns a vertex-optimal solution when feasible.  Deterministic: the same
    problem data always yields the same result.
    """
    if p.num_vars == 0:
        return _no_variables(p)
    A_eq = p.A if p.b.size else None
    b_eq = p.b if p.b.size else None
    res = linprog(p.c, A_eq=A_eq, b_eq=b_eq, bounds=np.column_stack([p.lb, p.ub]),
                  method="highs", options=_HIGHS_OPTIONS)
    if res.status == 0:
        x = np.clip(res.x, p.lb, p.ub)
        return SolveResult(SolveStatus.OPTIMAL, x, float(p.c @ x))
    if res.status == 2:
        return SolveResult(SolveStatus.INFEASIBLE)
    if res.status == 3:
        # Cannot happen with finite bounds on every variable.
        raise RuntimeError("LP reported unbounded despite finite variable bounds")
    raise RuntimeError(f"LP solver failure (HiGHS status {res.status}): {res.message}")


def column_wise(A: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The nonzeros of a dense matrix in compressed column form: column j's
    row indices are ``index[start[j]:start[j+1]]``, ascending, and its
    entries the same slice of ``value`` (the arrays of scipy's ``csc_array``)."""
    cols, rows = np.nonzero(A.T)
    return np.searchsorted(cols, np.arange(A.shape[1] + 1)), rows, A[rows, cols]


_DUAL_SIMPLEX, _PRIMAL_SIMPLEX = 1, 4  # HiGHS simplex_strategy values
_COLWISE, _MINIMIZE = int(_highs.MatrixFormat.kColwise), int(_highs.ObjSense.kMinimize)
_SETTLED = (_highs.HighsModelStatus.kOptimal, _highs.HighsModelStatus.kInfeasible)


class LpSession:
    """One LP held in HiGHS and re-solved warm as its costs or bounds change.

    The model is passed to HiGHS once, in one array call: the rows
    ``A @ x = b`` as a sparse column-wise matrix, the costs and column
    bounds, and every column continuous.  Each ``solve`` changes only the
    costs and column bounds it is given, and HiGHS restarts the simplex from
    the previous basis.  A solve that changed no bound after an optimal run
    uses primal simplex, since the old basis is still primal feasible; every
    other solve uses dual simplex, as ``lp_solve`` does, since a bound
    change leaves the basis dual feasible.  A primal re-solve that ends
    neither optimal nor infeasible (HiGHS can stall on degenerate fibers) is
    run again by dual simplex from a cold start.  Options and the clipping
    of solutions to the bounds are those of ``lp_solve``; two sessions given
    the same sequence of solves return identical results.  A session is not
    thread-safe: use one per query.
    """

    def __init__(self, p: LpProblem):
        self._p = p
        self._c, self._lb, self._ub = p.c, p.lb, p.ub
        self._highs = None
        self._strategy = _DUAL_SIMPLEX
        self._optimal = False  # did the last run end optimal?
        n = p.num_vars
        if n == 0:
            return
        self._cols = np.arange(n, dtype=np.int32)
        start, index, value = column_wise(p.A)
        self._factored = value.size > 0
        h = _highs._Highs()
        options = dict(_HIGHS_OPTIONS, presolve="on" if _HIGHS_OPTIONS["presolve"] else "off",
                       output_flag=False, simplex_strategy=self._strategy)
        for key, setting in options.items():
            if h.setOptionValue(key, setting) != _highs.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option {key}={setting!r}")
        continuous = np.zeros(n, dtype=np.int32)  # HighsVarType.kContinuous
        status = h.passModel(n, p.b.size, value.size, _COLWISE, _MINIMIZE, 0.0,
                             p.c, p.lb, p.ub, p.b, p.b, start, index, value, continuous)
        if status == _highs.HighsStatus.kError:
            raise RuntimeError("HiGHS rejected the LP model")
        self._highs = h

    def solve(self, c=None, lb=None, ub=None) -> SolveResult:
        """Minimize under the given costs and bounds; None keeps the last ones."""
        h = self._highs
        if c is not None:
            c = np.array(c, dtype=float)  # copied: callers may reuse their arrays
            if h is not None and not np.array_equal(c, self._c):
                h.changeColsCost(c.size, self._cols, c)
            self._c = c
        bounds_changed = False
        if lb is not None or ub is not None:
            lb = self._lb if lb is None else np.array(lb, dtype=float)
            ub = self._ub if ub is None else np.array(ub, dtype=float)
            bounds_changed = not (np.array_equal(lb, self._lb) and np.array_equal(ub, self._ub))
            if h is not None and bounds_changed:
                h.changeColsBounds(lb.size, self._cols, lb, ub)
            self._lb, self._ub = lb, ub
        if h is None:
            return _no_variables(self._p)
        primal = self._optimal and not bounds_changed
        status = self._run(_PRIMAL_SIMPLEX if primal else _DUAL_SIMPLEX)
        if primal and status not in _SETTLED:  # a stalled primal re-solve is redone by dual
            h.clearSolver()
            status = self._run(_DUAL_SIMPLEX)
        self._optimal = status == _highs.HighsModelStatus.kOptimal
        if self._optimal:
            x = np.clip(np.asarray(h.getSolution().col_value), self._lb, self._ub)
            return SolveResult(SolveStatus.OPTIMAL, x, float(self._c @ x))
        if status == _highs.HighsModelStatus.kInfeasible:
            return SolveResult(SolveStatus.INFEASIBLE)
        raise RuntimeError(f"LP solver failure (HiGHS model status "
                           f"{h.modelStatusToString(status)})")

    def basic_variables(self) -> np.ndarray | None:
        """The basis of the last solve, which must have been optimal: entry i
        is the variable basic in position i, column j as j and the logical of
        row r as -1 - r.  None when the rows have no nonzero, since HiGHS then
        solves without a factorization and has no basis to report."""
        if self._highs is None or not self._factored:
            return None
        status, basic = self._highs.getBasicVariables()
        return np.asarray(basic) if status == _highs.HighsStatus.kOk else None

    def _run(self, strategy: int):
        """Run HiGHS with the given simplex variant; its model status."""
        h = self._highs
        if strategy != self._strategy:
            if h.setOptionValue("simplex_strategy", strategy) != _highs.HighsStatus.kOk:
                raise RuntimeError(f"HiGHS rejected option simplex_strategy={strategy}")
            self._strategy = strategy
        if h.run() == _highs.HighsStatus.kError:
            raise RuntimeError("LP solver failure (HiGHS run error)")
        return h.getModelStatus()


def milp_solve(p: MilpProblem) -> SolveResult:
    """Exact minimization over {-1,+1} binaries: the least pinned LP over the
    feasible leaves of ``enumerate_binary_leaves``, solved warm in one session.

    The solution (if any) has every binary entry exactly at -1 or +1 and
    satisfies the constraints to LP tolerance.
    """
    session = LpSession(p.lp)
    solved = (session.solve(p.lp.c, *pinned_bounds(p, xb)) for xb in enumerate_binary_leaves(p))
    return min((res for res in solved if res.is_optimal), key=lambda res: res.objective,
               default=SolveResult(SolveStatus.INFEASIBLE))


def pinned_bounds(p: MilpProblem, xb: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column bounds of ``p`` with its binaries fixed to the values ``xb``;
    an entry 0 leaves its binary free."""
    lb, ub = p.lp.lb.copy(), p.lp.ub.copy()
    pinned = xb != 0
    columns = np.asarray(p.binary_index, dtype=int)[pinned]
    lb[columns] = ub[columns] = xb[pinned]
    return lb, ub


def enumerate_binary_leaves(p: MilpProblem,
                            candidates: Sequence[np.ndarray] | None = None
                            ) -> list[np.ndarray]:
    """All complete {-1,+1} assignments whose fixed-binary LP is feasible,
    in lexicographic order with -1 first, whatever order they were found in.

    Depth-first, pruning subtrees whose LP relaxation is infeasible.  Each
    feasible node branches on the free binary whose LP value is nearest 0
    (most fractional; the lowest index on ties), the -1 branch first.  A
    child inherits its parent's LP solution as a witness when that solution
    already takes the child's pinned value exactly; such a child, a leaf
    included, is feasible without an LP of its own.  The objective of ``p``
    is ignored.  Given ``candidates``, disjoint partial assignments (0 marks
    a free binary) whose completions include every feasible assignment, the
    search starts below each of them instead of at the root: a complete
    candidate costs one pinned LP.

    Raises:
        LeafLimitError: once more than ``LEAF_LIMIT`` leaves are found.
    """
    binaries = np.array(p.binary_index, dtype=int)
    leaves: list[np.ndarray] = []
    if candidates is None:
        stack = [(p.lp.lb.copy(), p.lp.ub.copy(), None)]
    else:
        stack = [(*pinned_bounds(p, xb), None) for xb in reversed(candidates)]
    if not stack:  # no candidate: no leaf, and no LP to pass to the solver
        return leaves
    session = LpSession(LpProblem(np.zeros(p.lp.num_vars), p.lp.A, p.lp.b,
                                  p.lp.lb, p.lp.ub))
    while stack:
        lb, ub, x = stack.pop()
        if x is None:
            res = session.solve(lb=lb, ub=ub)
            if not res.is_optimal:
                continue
            x = res.x
        free = binaries[lb[binaries] != ub[binaries]]
        if not free.size:
            leaves.append(lb[binaries])
            if len(leaves) > LEAF_LIMIT:
                raise LeafLimitError(f"more than {LEAF_LIMIT} feasible binary "
                                     f"assignments (stopped at {len(leaves)})")
            continue
        i = free[np.argmin(np.abs(x[free]))]
        for v in (1.0, -1.0):
            lb2, ub2 = lb.copy(), ub.copy()
            lb2[i] = ub2[i] = v
            stack.append((lb2, ub2, x if x[i] == v else None))
    leaves.sort(key=lambda xb: xb.tolist())
    return leaves
