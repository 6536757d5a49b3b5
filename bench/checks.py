"""Output checks made apart from the program.

Every check reads the files the CLI wrote and compares them against one of
three references that share no code with hzreach: closed-loop simulation
(``workloads.simulate``), box arithmetic, and the closed-form complexity
formula.  Set membership, sampling and interval hulls of the written hybrid
zonotopes are decided here with scipy's own MILP solver, not with the
program's branch-and-bound.  No check compares against stored outputs.

Each check appends a message to ``failures`` when it does not hold.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np
from scipy.optimize import Bounds, LinearConstraint, linprog, milp

from workloads import simulate, unstable_units

TOL = 1e-6          # membership and simulation agreement
SOUND_POINTS = 6    # simulated initial states checked for FRS membership
PAIR_SAMPLES = 3    # samples per pair set / seed set on exact plans


class Hz:
    """A hybrid zonotope read from the program's JSON set format."""

    def __init__(self, d: dict):
        self.c = np.asarray(d["c"], float)
        self.b = np.asarray(d.get("b", []), float)
        self.Gc = np.asarray(d.get("Gc", []), float).reshape(self.c.size, -1)
        self.Gb = np.asarray(d.get("Gb", []), float).reshape(self.c.size, -1)
        self.Ac = np.asarray(d.get("Ac", []), float).reshape(self.b.size, self.ng)
        self.Ab = np.asarray(d.get("Ab", []), float).reshape(self.b.size, self.nb)

    @classmethod
    def load(cls, path) -> "Hz":
        with open(path) as fh:
            return cls(json.load(fh))

    @property
    def ng(self) -> int:
        return self.Gc.shape[1]

    @property
    def nb(self) -> int:
        return self.Gb.shape[1]

    @property
    def complexity(self) -> tuple:
        return (self.ng, self.nb, self.b.size)

    def _milp(self, cost_c, cost_b, rows_c=None, rows_b=None, rhs=None, tol=0.0):
        """Factors (xc, xb) minimizing cost over the set, binaries as xb = 2z - 1.

        Constraint rows (the set's own plus optional extra rows) hold within
        +/- tol.  Returns None when infeasible.
        """
        Ac, Ab, b = self.Ac, self.Ab, self.b
        if rows_c is not None:
            Ac, Ab, b = np.vstack([Ac, rows_c]), np.vstack([Ab, rows_b]), np.concatenate([b, rhs])
        ones = np.ones(self.nb)
        cost = np.concatenate([cost_c, 2.0 * np.asarray(cost_b, float)])
        cons = None
        if b.size:
            r = b + Ab @ ones
            cons = LinearConstraint(np.hstack([Ac, 2.0 * Ab]), r - tol, r + tol)
        res = milp(cost, integrality=np.r_[np.zeros(self.ng), np.ones(self.nb)],
                   bounds=Bounds(np.r_[-np.ones(self.ng), np.zeros(self.nb)],
                                 np.ones(self.ng + self.nb)), constraints=cons)
        if res.status != 0:
            return None
        xb = 2.0 * np.round(res.x[self.ng:]) - 1.0
        return res.x[:self.ng], xb

    def point(self, xc, xb) -> np.ndarray:
        return self.Gc @ xc + self.Gb @ xb + self.c

    def contains(self, p, tol=TOL) -> bool:
        found = self._milp(np.zeros(self.ng), np.zeros(self.nb), self.Gc, self.Gb,
                           np.asarray(p, float) - self.c, tol)
        return found is not None

    def hull(self):
        """Exact interval hull (lower, upper), or None for an empty set."""
        lo, hi = np.empty(self.c.size), np.empty(self.c.size)
        for i in range(self.c.size):
            for sign, out in ((1.0, lo), (-1.0, hi)):
                found = self._milp(sign * self.Gc[i], sign * self.Gb[i])
                if found is None:
                    return None
                out[i] = self.point(*found)[i]
        return lo, hi

    def sample(self, k: int, rng) -> np.ndarray:
        """k member points: MILP vertices for random costs, each re-solved as
        an LP with its binaries fixed so that the rows hold to 1e-10."""
        out = []
        for _ in range(k):
            cost_c, cost_b = rng.standard_normal(self.ng), rng.standard_normal(self.nb)
            found = self._milp(cost_c, cost_b)
            if found is None:
                return np.zeros((0, self.c.size))
            xc, xb = found
            if self.b.size and self.ng:
                res = linprog(cost_c, A_eq=self.Ac, b_eq=self.b - self.Ab @ xb,
                              bounds=(-1.0, 1.0), method="highs",
                              options={"primal_feasibility_tolerance": 1e-10})
                if res.status == 0:
                    xc = res.x
            out.append(self.point(xc, xb))
        return np.array(out)


def in_box(p, lo, hi, tol=0.0) -> np.ndarray:
    """Row-wise membership of points in the box [lo, hi] widened by tol."""
    p = np.atleast_2d(p)
    return np.all((p >= np.asarray(lo) - tol) & (p <= np.asarray(hi) + tol), axis=-1)


def read_points(path) -> np.ndarray:
    with open(path) as fh:
        rows = list(csv.reader(fh))[1:]
    return np.array([[float(v) for v in r] for r in rows])


def _expected_rows(manifest: dict, model: dict, other: tuple, dom: tuple) -> dict:
    """Paper formula per step: pair set (n_g + 5 n_t - e, n_b + e, n_c + 3 n_t),
    plus the initial or target set and n coupling rows."""
    units = unstable_units(model, *manifest["domain"], manifest["T"])
    nb = manifest["nb"]
    ranked = sorted(units, key=lambda u: (u[3] * u[4] / 2.0, u[0], u[1], u[2]))
    exact = ranked if nb is None else ranked[:nb]
    n = len(manifest["initial"][0])
    rows = {}
    for t in range(2, manifest["T"] + 1):
        n_t = sum(1 for u in units if u[0] <= t - 1)
        e = sum(1 for u in exact if u[0] <= t - 1)
        rows[t] = {"n_unstable": n_t, "n_exact": e,
                   "predicted": [dom[0] + 5 * n_t - e + other[0], dom[1] + e + other[1],
                                 dom[2] + 3 * n_t + n + other[2]]}
    return rows


def check_complexity(failures: list, rows: list, sets: dict, manifest: dict, model: dict,
                     other: tuple, dom: tuple, label: str) -> None:
    """complexity.json against the closed form and the sizes of the written sets."""
    expected = _expected_rows(manifest, model, other, dom)
    if sorted(r["t"] for r in rows) != sorted(expected):
        failures.append(f"{label}: complexity rows cover steps {[r['t'] for r in rows]}")
        return
    for r in rows:
        t, exp = r["t"], expected[r["t"]]
        for key in ("n_unstable", "n_exact", "predicted"):
            if r[key] != exp[key]:
                failures.append(f"{label} t={t}: {key} {r[key]} != recomputed {exp[key]}")
        if list(sets[t].complexity) != list(r["measured"]):
            failures.append(f"{label} t={t}: measured {r['measured']} != written set "
                            f"{list(sets[t].complexity)}")
        if manifest["hull"] == "table":
            if r["measured"] != r["predicted"]:
                failures.append(f"{label} t={t}: measured {r['measured']} != "
                                f"predicted {r['predicted']} in table mode")
        elif any(m > p for m, p in zip(r["measured"], r["predicted"])):
            failures.append(f"{label} t={t}: measured {r['measured']} exceeds "
                            f"predicted {r['predicted']}")


def check_soundness(failures: list, frs_sets: dict, model: dict, manifest: dict) -> None:
    """Simulated endpoints from seeded initial states are FRS members within TOL."""
    states = simulate(model, np.asarray(manifest["sim_points"])[:SOUND_POINTS], manifest["T"])
    for t, hz in frs_sets.items():
        for xt in states[t - 1]:
            if not hz.contains(xt):
                failures.append(f"frs_t{t}: simulated state {xt.tolist()} is not a member")


def frs_hulls(failures: list, frs_sets: dict, frs_points: dict, model: dict,
              manifest: dict) -> float:
    """Exact interval hull of every FRS; returns the summed width.

    Every simulated endpoint and every sampled CSV point must lie in its hull.
    """
    states = simulate(model, np.asarray(manifest["sim_points"]), manifest["T"])
    width = 0.0
    for t, hz in frs_sets.items():
        hull = hz.hull()
        if hull is None:
            failures.append(f"frs_t{t}: empty, but simulation reaches it")
            continue
        lo, hi = hull
        width += float(np.sum(hi - lo))
        if not in_box(states[t - 1], lo, hi, TOL).all():
            failures.append(f"frs_t{t}: a simulated state lies outside its hull")
        if t in frs_points and not in_box(frs_points[t], lo, hi, TOL).all():
            failures.append(f"frs_t{t}: a sampled CSV point lies outside its hull")
    return width


def check_pairs(failures: list, series: dict, model: dict, manifest: dict, rng) -> None:
    """Exact plans: pair samples reproduce their second block by simulation."""
    n = len(manifest["initial"][0])
    dlo, dhi = manifest["domain"]
    for key, entry in series["pairs"].items():
        t = int(key)
        pts = Hz(entry["set"]).sample(PAIR_SAMPLES, rng)
        if len(pts) == 0:
            failures.append(f"series t={t}: pair set is empty")
        for p in pts:
            x1, xt = p[:n], p[n:]
            sim = simulate(model, x1, t)[-1, 0]
            if not in_box(x1, dlo, dhi, TOL)[0] or np.max(np.abs(sim - xt)) > TOL:
                failures.append(f"series t={t}: pair ({x1.tolist()}, {xt.tolist()}) "
                                f"does not simulate; x_t = {sim.tolist()}")


def check_brs_points(failures: list, brs_points: dict, model: dict, manifest: dict) -> None:
    """Exact plans: every sampled BRS point simulates into the target."""
    tlo, thi = manifest["target"]
    for t, pts in brs_points.items():
        ends = simulate(model, pts, t)[-1]
        bad = ~in_box(ends, tlo, thi, TOL)
        if bad.any():
            failures.append(f"brs_t{t}: {int(bad.sum())} sampled points miss the target, "
                            f"e.g. {pts[np.argmax(bad)].tolist()}")


def check_seed_sets(failures: list, summary: list, seeds: dict, model: dict,
                    manifest: dict, rng) -> None:
    """seed_set_empty is false wherever a simulated trajectory hits the target;
    on exact plans, seed-set samples start in the initial set and hit it."""
    ilo, ihi = manifest["initial"]
    tlo, thi = manifest["target"]
    pts = np.vstack([manifest["sim_points"], [manifest["target_source"]]])
    states = simulate(model, pts, manifest["T"])
    by_t = {r["t"]: r["seed_set_empty"] for r in summary}
    if sorted(by_t) != list(range(2, manifest["T"] + 1)):
        failures.append(f"backward_summary covers steps {sorted(by_t)}")
        return
    for t, empty in by_t.items():
        if empty and in_box(states[t - 1], tlo, thi).any():
            failures.append(f"seed set t={t} reported empty but a simulated "
                            f"trajectory hits the target")
        if not empty and t not in seeds:
            failures.append(f"seed set t={t} is nonempty but seed_t{t}.json is missing")
    if manifest["nb"] is not None:
        return
    for t, hz in seeds.items():
        for x1 in hz.sample(PAIR_SAMPLES, rng):
            end = simulate(model, x1, t)[-1, 0]
            if not (in_box(x1, ilo, ihi, TOL)[0] and in_box(end, tlo, thi, TOL)[0]):
                failures.append(f"seed_t{t}: sample {x1.tolist()} does not reach the target")


def check_verdict(failures: list, box: dict, rc: int, verdict: dict | None,
                  model: dict, manifest: dict) -> None:
    """Verdict of one verify call against simulation and box arithmetic."""
    label = f"verify {box['file']} ({box['kind']})"
    status = {0: "safe", 2: "unsafe", 3: "unknown"}.get(rc)
    if status is None or verdict is None or verdict.get("status") != status:
        failures.append(f"{label}: exit code {rc} and verdict "
                        f"{None if verdict is None else verdict.get('status')} disagree")
        return
    ilo, ihi = manifest["initial"]
    lo, hi = box["lo"], box["hi"]
    pts = np.asarray(manifest["sim_points"])
    if box["kind"] == "hit":
        pts = np.vstack([pts, [box["source"]]])
    states = simulate(model, pts, manifest["T"])
    hit = bool(in_box(states, lo, hi).any())
    if box["kind"] == "hit" and not hit:
        failures.append(f"{label}: the box misses the state it was built around")
    routes = [("verdict", verdict)] + [(r, verdict[r]) for r in ("forward", "backward")]
    for route, v in routes:
        if hit and v["status"] == "safe":
            failures.append(f"{label}: {route} says safe but simulation hits the box")
        if manifest["nb"] is None and v["status"] == "unknown":
            failures.append(f"{label}: {route} is unknown on an exact plan")
    witnesses = verdict["forward"]["witnesses"] + verdict["backward"]["witnesses"]
    for route in ("forward", "backward"):
        if verdict[route]["status"] == "unsafe" and not verdict[route]["witnesses"]:
            failures.append(f"{label}: {route} is unsafe without a witness")
    if status == "unsafe" and not witnesses:
        failures.append(f"{label}: unsafe without a witness")
    for w in witnesses:
        x1, t = np.asarray(w["x1"], float), int(w["t"])
        end = simulate(model, x1, t)[-1, 0]
        if not in_box(x1, ilo, ihi, TOL)[0]:
            failures.append(f"{label}: witness {x1.tolist()} lies outside the initial set")
        elif not in_box(end, lo, hi, TOL)[0]:
            failures.append(f"{label}: witness {x1.tolist()} reaches {end.tolist()} at "
                            f"step {t}, outside the unsafe box")


def load_forward(out: Path, T: int) -> dict:
    data = {"frs": {}, "points": {}}
    for t in range(2, T + 1):
        data["frs"][t] = Hz.load(out / f"frs_t{t}.json")
        if (out / f"frs_t{t}_points.csv").exists():
            data["points"][t] = read_points(out / f"frs_t{t}_points.csv")
    with open(out / "complexity.json") as fh:
        data["complexity"] = json.load(fh)
    with open(out / "series.json") as fh:
        data["series"] = json.load(fh)
    return data


def load_backward(out: Path, T: int) -> dict:
    data = {"brs": {}, "points": {}, "seeds": {}}
    for t in range(2, T + 1):
        data["brs"][t] = Hz.load(out / f"brs_t{t}.json")
        if (out / f"brs_t{t}_points.csv").exists():
            data["points"][t] = read_points(out / f"brs_t{t}_points.csv")
        if (out / f"seed_t{t}.json").exists():
            data["seeds"][t] = Hz.load(out / f"seed_t{t}.json")
    with open(out / "complexity.json") as fh:
        data["complexity"] = json.load(fh)
    with open(out / "backward_summary.json") as fh:
        data["summary"] = json.load(fh)
    return data


def check_round(fwd: dict | None, bwd: dict | None, verdicts: list, model: dict,
                manifest: dict, sets: dict, seed: int) -> tuple[list, float | None]:
    """Every check on one round's outputs; returns (failures, frs hull width).

    ``verdicts`` holds (box, exit code, verdict dict or None) per verify call
    that did not fail; failed calls are counted by the caller.  ``sets`` holds
    the domain, initial and target sets read back from the input files.
    """
    failures: list = []
    rng = np.random.default_rng(seed)
    exact = manifest["nb"] is None
    dom = sets["domain"].complexity
    width = None
    if fwd is not None:
        check_complexity(failures, fwd["complexity"], fwd["frs"], manifest, model,
                         sets["initial"].complexity, dom, "forward")
        check_soundness(failures, fwd["frs"], model, manifest)
        width = frs_hulls(failures, fwd["frs"], fwd["points"], model, manifest)
        if exact:
            check_pairs(failures, fwd["series"], model, manifest, rng)
    if bwd is not None:
        check_complexity(failures, bwd["complexity"], bwd["brs"], manifest, model,
                         sets["target"].complexity, dom, "backward")
        if exact:
            check_brs_points(failures, bwd["points"], model, manifest)
        check_seed_sets(failures, bwd["summary"], bwd["seeds"], model, manifest, rng)
    for box, rc, verdict in verdicts:
        check_verdict(failures, box, rc, verdict, model, manifest)
    return failures, width


def self_test(fwd: dict, verdicts: list, model: dict, manifest: dict,
              sets: dict) -> list:
    """Corrupt one output three ways; each must make the checks fail.

    Returns the names of the corruptions that the checks did not catch.
    """
    missed = []
    found: list = []
    shifted = {t: p + np.eye(p.shape[1])[0] for t, p in fwd["points"].items()}
    frs_hulls(found, fwd["frs"], shifted, model, manifest)
    if not found:
        missed.append("shifted sample")
    rows = json.loads(json.dumps(fwd["complexity"]))
    rows[-1]["predicted"][0] += 1
    found = []
    check_complexity(found, rows, fwd["frs"], manifest, model, sets["initial"].complexity,
                     sets["domain"].complexity, "forward")
    if not found:
        missed.append("wrong complexity triple")
    box, _, v = next((b, rc, v) for b, rc, v in verdicts if b["kind"] == "hit")
    bad = json.loads(json.dumps(v))
    bad["status"] = bad["forward"]["status"] = "unsafe"
    bad["forward"]["witnesses"] = [{"t": box["step"],
                                    "x1": (np.asarray(manifest["initial"][1]) + 0.5).tolist()}]
    found = []
    check_verdict(found, box, 2, bad, model, manifest)
    if not found:
        missed.append("witness outside the box")
    return missed
