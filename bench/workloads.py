"""Workload definitions and seeded input generation.

Run as a script, this module is the benchmark's set-up step: it imports
hzreach, numpy, scipy and HiGHS, then writes one workload's model, domain,
initial, target and unsafe-set files plus a manifest describing them:

    python3 bench/workloads.py --workload demo --seed 1 --out bench/out/demo/inputs

It imports hzreach from the ``src`` directory next to the benchmark's own.

The same seed always gives the same files.  The model, the domain and the
initial set are fixed per workload; the seed places the backward target and
the unsafe boxes of the verify sweep.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Largest x_0 over the step-5 forward reachable set of the demo run, from an
# LP over the exact set (an independent scipy MILP agrees to 1e-15).
# The grazing box starts 5e-8 beyond it: inside the 1e-7 feasibility slack of
# emptiness checks, outside the fiber LP that sampling solves with no slack.
DEMO_FRS5_MAX_X0 = 0.21032977241594486
GRAZE_GAP = 5e-8


@dataclass(frozen=True)
class Workload:
    name: str
    domain: tuple          # ((lo0, lo1), (hi0, hi1))
    initial: tuple
    T: int
    hull: str              # --hull of the CLI
    dirs: int              # --dirs of the CLI
    relax_fraction: float | None  # --nb as a share of the unstable units; None = exact
    target_source: tuple   # initial state whose step-T state centres the target
    target_halfwidth: float
    hit_sources: tuple     # (step, initial state): its step-t state centres a hit box
    hit_halfwidth: float
    misses: tuple = (4, 2)  # near and far misses in the sweep
    graze: bool = False


DEMO_BOX = ((0.35, 0.3), (0.55, 0.5))
UNIT_BOX = ((0.0, 0.0), (1.0, 1.0))
# The upper band of the unit square: its step-2 and later states lie below
# x_1 = 0.57, so boxes around them never meet the initial set, while the
# forward sets still carry 7 to 10 binary leaves each.
UPPER_BAND = ((0.0, 0.6), (1.0, 1.0))

# Sources of the target and hit boxes are fixed points that the seed moves by
# up to JITTER per coordinate: how much work a box costs depends strongly on
# where it sits, and free placement made the run time follow the seed.
WORKLOADS = {
    "demo": Workload("demo", DEMO_BOX, DEMO_BOX, T=5, hull="table", dirs=64,
                     relax_fraction=None, target_source=(0.45, 0.4), target_halfwidth=0.01,
                     hit_sources=((2, (0.36, 0.31)), (3, (0.45, 0.4)), (4, (0.45, 0.4)),
                                  (5, (0.45, 0.4))),
                     hit_halfwidth=0.01, graze=True),
    "wide": Workload("wide", UNIT_BOX, UPPER_BAND, T=3, hull="table", dirs=16,
                     relax_fraction=None, target_source=(0.5, 0.8), target_halfwidth=0.05,
                     hit_sources=((2, (0.5, 0.8)), (3, (0.5, 0.8))), hit_halfwidth=0.02),
    "tight-relaxed": Workload("tight-relaxed", UNIT_BOX, UPPER_BAND, T=3, hull="exact",
                              dirs=16, relax_fraction=1 / 3, target_source=(0.5, 0.8),
                              target_halfwidth=0.05,
                              hit_sources=((2, (0.5, 0.8)), (3, (0.5, 0.8))),
                              hit_halfwidth=0.02, misses=(2, 1)),
}

SIM_POINTS = 1024  # seeded initial states simulated to place and check boxes
EDGE_POINTS = 64   # states per edge of the initial box, where extremes tend to start
JITTER = 0.01
NEAR_MARGIN, FAR_MARGIN, MISS_HALFWIDTH = 0.01, 0.2, 0.02


def box_json(lo, hi) -> dict:
    """A box in the program's set format (a zonotope with diagonal generators)."""
    lo, hi = np.asarray(lo, float), np.asarray(hi, float)
    return {"c": (0.5 * (lo + hi)).tolist(), "Gc": np.diag(0.5 * (hi - lo)).tolist()}


def simulate(model: dict, x1: np.ndarray, T: int) -> np.ndarray:
    """States x_1..x_T of the closed loop for each row of x1: shape (T, k, n).

    Written from the model equations, apart from the program:
    h_t^l = relu(Wh h_{t-1}^l + Wx h_t^{l-1} + vh), x_{t+1} = relu(Wy h_t^L + vy),
    with zero initial hidden states.
    """
    x = np.atleast_2d(np.asarray(x1, float))
    layers = [(np.asarray(L["Wh"]), np.asarray(L["Wx"]), np.asarray(L["vh"]))
              for L in model["layers"]]
    Wy, vy = np.asarray(model["Wy"]), np.asarray(model["vy"])
    hidden = [np.zeros((x.shape[0], vh.size)) for _, _, vh in layers]
    states = [x]
    for _ in range(T - 1):
        inp = x
        for k, (Wh, Wx, vh) in enumerate(layers):
            hidden[k] = np.maximum(hidden[k] @ Wh.T + inp @ Wx.T + vh, 0.0)
            inp = hidden[k]
        x = np.maximum(inp @ Wy.T + vy, 0.0)
        states.append(x)
    return np.array(states)


def boxes_meet(lo_a, hi_a, lo_b, hi_b) -> bool:
    return bool(np.all(np.asarray(lo_a) <= hi_b) and np.all(np.asarray(lo_b) <= hi_a))


def _box_beyond(points: np.ndarray, direction: np.ndarray, margin: float, hw: float):
    """Box of half-width hw whose every point y has d @ (y - p) >= margin for
    every row p of points, so it keeps at least that distance from each."""
    top = points[int(np.argmax(points @ direction))]
    centre = top + (margin + hw * np.abs(direction).sum()) * direction
    return centre - hw, centre + hw


def make_inputs(w: Workload, seed: int, model: dict) -> dict:
    """Seeded target and unsafe sweep for workload w, as a JSON manifest."""
    rng = np.random.default_rng(seed)
    ilo, ihi = (np.asarray(v, float) for v in w.initial)
    s = np.linspace(0.0, 1.0, EDGE_POINTS)[:, None]
    edges = [ilo + s * [ihi[0] - ilo[0], 0.0], ilo + s * [0.0, ihi[1] - ilo[1]],
             ihi - s * [ihi[0] - ilo[0], 0.0], ihi - s * [0.0, ihi[1] - ilo[1]]]
    pts = np.vstack([rng.uniform(ilo, ihi, size=(SIM_POINTS, ilo.size))] + edges)
    states = simulate(model, pts, w.T)

    def jitter(point):
        return np.clip(np.asarray(point, float) + rng.uniform(-JITTER, JITTER, ilo.size), ilo, ihi)

    star = jitter(w.target_source)
    end = simulate(model, star, w.T)[-1, 0]
    target = (end - w.target_halfwidth, end + w.target_halfwidth)

    sweep = []
    for t, source in w.hit_sources:
        x1 = jitter(source)
        s = simulate(model, x1, t)[-1, 0]
        lo, hi = s - w.hit_halfwidth, s + w.hit_halfwidth
        if boxes_meet(lo, hi, ilo, ihi):
            raise ValueError(f"{w.name}: the step-{t} hit box meets the initial set")
        sweep.append({"kind": "hit", "step": t, "source": x1.tolist(),
                      "lo": lo.tolist(), "hi": hi.tolist()})
    # Later-step states plus the initial box's corners: a miss hugs the
    # reachable states where it can and clears the initial set everywhere.
    corners = np.array([[ilo[0], ilo[1]], [ihi[0], ilo[1]], [ilo[0], ihi[1]], [ihi[0], ihi[1]]])
    cloud = np.vstack([corners, states[1:].reshape(-1, ilo.size)])
    # Misses come in evenly spaced directions under one seeded rotation, so
    # that their summed cost depends little on where the seed points them.
    for kind, margin, count in zip(("near", "far"), (NEAR_MARGIN, FAR_MARGIN), w.misses):
        turn = rng.uniform(0.0, 2.0 * np.pi)
        for k in range(count):
            angle = turn + 2.0 * np.pi * k / count
            d = np.array([np.cos(angle), np.sin(angle)])
            lo, hi = _box_beyond(cloud, d, margin, MISS_HALFWIDTH)
            sweep.append({"kind": kind, "margin": margin, "lo": lo.tolist(), "hi": hi.tolist()})
    if w.graze:
        sweep.append({"kind": "graze",
                      "lo": [DEMO_FRS5_MAX_X0 + GRAZE_GAP, -0.02],
                      "hi": [DEMO_FRS5_MAX_X0 + 0.05, 0.02]})
    return {"workload": w.name, "seed": seed, "T": w.T, "hull": w.hull, "dirs": w.dirs,
            "domain": [list(v) for v in w.domain], "initial": [list(v) for v in w.initial],
            "target": [target[0].tolist(), target[1].tolist()],
            "target_source": star.tolist(), "sim_points": pts.tolist(), "sweep": sweep}


def unstable_units(model: dict, lo, hi, T: int) -> list:
    """(t, layer, i, alpha, beta) of every pre-activation interval straddling
    zero, by interval propagation from the box [lo, hi] (output stage = L+1)."""
    def affine(W, mid, rad, bias=None):
        m, r = W @ mid, np.abs(W) @ rad
        return m if bias is None else m + bias, r

    layers = [(np.asarray(L["Wh"]), np.asarray(L["Wx"]), np.asarray(L["vh"]))
              for L in model["layers"]]
    Wy, vy = np.asarray(model["Wy"]), np.asarray(model["vy"])
    h_prev = [(np.zeros(vh.size), np.zeros(vh.size)) for _, _, vh in layers]
    s_lo, s_hi = np.asarray(lo, float), np.asarray(hi, float)
    units = []
    for t in range(1, T):
        cur = []
        i_lo, i_hi = s_lo, s_hi
        stages = []
        for k, (Wh, Wx, vh) in enumerate(layers):
            pl, ph = h_prev[k]
            m1, r1 = affine(Wh, 0.5 * (pl + ph), 0.5 * (ph - pl))
            m2, r2 = affine(Wx, 0.5 * (i_lo + i_hi), 0.5 * (i_hi - i_lo), vh)
            pre_lo, pre_hi = (m1 - r1) + (m2 - r2), (m1 + r1) + (m2 + r2)
            stages.append((k + 1, pre_lo, pre_hi))
            i_lo, i_hi = np.maximum(pre_lo, 0.0), np.maximum(pre_hi, 0.0)
            cur.append((i_lo, i_hi))
        m, r = affine(Wy, 0.5 * (i_lo + i_hi), 0.5 * (i_hi - i_lo), vy)
        stages.append((len(layers) + 1, m - r, m + r))
        s_lo, s_hi = np.maximum(m - r, 0.0), np.maximum(m + r, 0.0)
        for layer, pre_lo, pre_hi in stages:
            units += [(t, layer, i, float(a), float(b))
                      for i, (a, b) in enumerate(zip(pre_lo, pre_hi)) if a < 0.0 < b]
        h_prev = cur
    return units


def binary_limit(w: Workload, model: dict) -> int | None:
    """--nb for the workload: None (exact plan) or the set share of unstable units."""
    if w.relax_fraction is None:
        return None
    n = len(unstable_units(model, *w.domain, w.T))
    return int(round(w.relax_fraction * n))


def write_inputs(name: str, seed: int, out: Path) -> None:
    """Generate and write every input file of one workload."""
    from scipy.optimize import linprog

    from hzreach import save_model
    from hzreach.systems import demo_system

    linprog([1.0], bounds=[(0.0, 1.0)], method="highs")  # loads HiGHS
    w = WORKLOADS[name]
    out.mkdir(parents=True, exist_ok=True)
    save_model(demo_system(0), out / "model.json")
    with open(out / "model.json") as fh:
        model = json.load(fh)
    manifest = make_inputs(w, seed, model)
    manifest["nb"] = binary_limit(w, model)
    files = {"domain": box_json(*w.domain), "initial": box_json(*w.initial),
             "target": box_json(*manifest["target"])}
    for k, box in enumerate(manifest["sweep"]):
        box["file"] = f"unsafe_{k}.json"
        files[f"unsafe_{k}"] = box_json(box["lo"], box["hi"])
    for stem, obj in files.items():
        with open(out / f"{stem}.json", "w") as fh:
            json.dump(obj, fh)
    with open(out / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=1)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", type=Path, required=True)
    args = p.parse_args(argv)
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))
    write_inputs(args.workload, args.seed, args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
