"""A fixed reference task, timed next to the program to correct for host speed.

The shared 2-vCPU virtual machine of the reference figures changes speed by
up to about 45 % between stretches of a few seconds, and for minutes at a
time; the same ``backward`` call in one process took 1.33 s and 2.08 s.
The program's wall times follow the host, so a run's median says as much
about the hour it ran in as about the program.  The reference task moves
with the host in the same way (back-to-back timings of it and of
``backward`` rise and fall together), but it runs nothing of hzreach, so no
change to the program changes it.

It is the kind of work the program spends its time on: small
equality-constrained LPs with box bounds, handed to scipy's HiGHS through
``scipy.optimize.linprog`` with the program's options.  The batch is fixed:
it depends on no seed.

A time ``raw`` measured between reference timings ``a`` and ``b`` is
reported as ``raw * NOMINAL_S / ((a + b) / 2)``: the time the call would
take on a host where the batch takes ``NOMINAL_S``.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np
from scipy.optimize import linprog

# Median time of one batch on the reference machine in its usual (slower)
# state; it fixes the scale of the normalised times, nothing else.
NOMINAL_S = 0.27
LP_COUNT = 96
HIGHS_OPTIONS = {"presolve": True, "primal_feasibility_tolerance": 1e-9,
                 "dual_feasibility_tolerance": 1e-9}


def _problems() -> list:
    """(c, A, b, bounds) of each LP: feasible and bounded by construction."""
    rng = np.random.default_rng(20_260_318)
    out = []
    for k in range(LP_COUNT):
        n, m = 16 + 2 * (k % 12), 6 + k % 10
        A = rng.normal(size=(m, n))
        x0 = rng.uniform(-0.5, 0.5, n)
        bounds = np.column_stack([-np.ones(n), np.ones(n)])
        out.append((rng.normal(size=n), A, A @ x0, bounds))
    return out


class Reference:
    def __init__(self):
        self.problems = _problems()
        self.time()  # the first batch pays for lazy imports inside scipy

    def time(self) -> float:
        """Wall seconds of one batch; raises if HiGHS misses an optimum."""
        start = perf_counter()
        for c, A, b, bounds in self.problems:
            res = linprog(c, A_eq=A, b_eq=b, bounds=bounds, method="highs",
                          options=HIGHS_OPTIONS)
            if res.status != 0:
                raise RuntimeError(f"reference LP not solved: {res.message}")
        return perf_counter() - start
