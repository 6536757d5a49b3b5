"""Benchmark of hzreach's forward, backward and verify runs.

    python3 bench/run.py --workload demo --seed 1 --seconds 35 --trace 0

Drives the three CLI subcommands in-process through ``hzreach.cli.main`` on
one workload (see workloads.py), in whole rounds of forward, backward and the
verify sweep, until the next round would overrun ``--seconds``.  Every round's
outputs are checked apart from the program (see checks.py).  Times are
corrected for the host's speed by a reference task timed around each
subcommand (see reference.py).  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  Details go to
``bench/out/<workload>/``.  Exits 1 when a check fails, 2 when the benchmark
cannot run.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from reference import NOMINAL_S, Reference
from spans import Tracer, summarize, unit
from workloads import WORKLOADS

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
# The 2-vCPU virtual machine of the reference figures runs its processor
# slowly after idling and needs a few seconds of load to reach full speed;
# without a warm-up the first round read about 20 % slower than the rest.
WARMUP_S = 3.0
SUBCOMMANDS = ("forward", "backward", "verify")
E2E_UNITS = {"setup_s": "s", "forward_s": "s", "backward_s": "s", "verify_s": "s",
             "frs_hull_width": "state", "peak_rss_mb": "MB"}


def warm_up(seconds: float) -> None:
    """Keep the processor busy for the given time before anything is timed."""
    end = perf_counter() + seconds
    while perf_counter() < end:
        sum(i * i for i in range(10_000))


def measure_setup(name: str, seed: int, inputs: Path, reference: Reference) -> dict:
    """Wall times of fresh processes that import hzreach, numpy, scipy and
    HiGHS and write the workload's input files, with the reference task
    timed before and after each."""
    walls, refs = [], [reference.time()]
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run([sys.executable, str(BENCH / "workloads.py"), "--workload", name,
                        "--seed", str(seed), "--out", str(inputs)],
                       cwd=ROOT, check=True, timeout=120)
        walls.append(perf_counter() - start)
        refs.append(reference.time())
    norm = [w * NOMINAL_S / (0.5 * (a + b)) for w, a, b in zip(walls, refs, refs[1:])]
    return {"wall_s": walls, "ref_s": refs, "norm_s": norm}


def call_cli(cli, argv: list) -> tuple[int, float, str]:
    """One in-process CLI call: (exit code, wall seconds, captured stderr).

    An exception escaping ``main`` counts as exit code -1.
    """
    out, err = io.StringIO(), io.StringIO()
    gc.collect()
    start = perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except Exception:  # a crash is a failed operation, not a benchmark error
            traceback.print_exc()
            rc = -1
    return rc, perf_counter() - start, err.getvalue()


class Round:
    """One forward call, one backward call and the verify sweep."""

    def __init__(self, inputs: Path, manifest: dict, out: Path):
        self.inputs, self.manifest, self.out = inputs, manifest, out
        m = manifest
        self.common = ["--model", str(inputs / "model.json"), "--domain",
                       str(inputs / "domain.json"), "-T", str(m["T"]), "--hull", m["hull"],
                       "--dirs", str(m["dirs"]), "--seed", str(m["seed"])]
        if m["nb"] is not None:
            self.common += ["--nb", str(m["nb"])]

    def ops(self):
        """(label, subcommand, extra args, output dir) of every operation."""
        ini = ["--initial", str(self.inputs / "initial.json")]
        yield "forward", "forward", ini, self.out / "forward"
        yield "backward", "backward", ini + ["--target", str(self.inputs / "target.json")], \
            self.out / "backward"
        for k, box in enumerate(self.manifest["sweep"]):
            yield f"verify_{k}", "verify", ini + ["--unsafe", str(self.inputs / box["file"])], \
                self.out / f"verify_{k}"

    def run(self, cli, reference: Reference) -> dict:
        """Run every operation once; time the reference task before the round
        and after each subcommand's calls, and normalise each subcommand's
        wall time by the mean of the two reference timings around it."""
        record = {"ops": [], "ref_s": [reference.time()]}
        raw = dict.fromkeys(SUBCOMMANDS, 0.0)
        ops = list(self.ops())
        for i, (label, sub, extra, out) in enumerate(ops):
            shutil.rmtree(out, ignore_errors=True)
            rc, wall, err = call_cli(cli, [sub] + self.common + extra + ["--out", str(out)])
            ok = rc == 0 if sub != "verify" else rc in (0, 2, 3)
            record["ops"].append({"op": label, "rc": rc, "s": wall, "ok": ok,
                                  "error": None if ok else err.strip().splitlines()[-1:]})
            raw[sub] += wall
            if i + 1 == len(ops) or ops[i + 1][1] != sub:  # the subcommand's last call
                record["ref_s"].append(reference.time())
                host = 0.5 * (record["ref_s"][-2] + record["ref_s"][-1])
                record[f"{sub}_s"] = raw[sub] * NOMINAL_S / host
                record[f"{sub}_wall_s"] = raw[sub]
        record["total_s"] = sum(record[f"{sub}_s"] for sub in SUBCOMMANDS)
        return record


def check(record: dict, rnd: Round, model: dict, sets: dict, first: bool):
    """Check one round's outputs; on the first round also run the self-test."""
    m = rnd.manifest
    ok = {op["op"]: op for op in record["ops"]}
    fwd = checks.load_forward(rnd.out / "forward", m["T"]) if ok["forward"]["ok"] else None
    bwd = checks.load_backward(rnd.out / "backward", m["T"]) if ok["backward"]["ok"] else None
    verdicts = []
    for k, box in enumerate(m["sweep"]):
        op = ok[f"verify_{k}"]
        if op["ok"]:
            path = rnd.out / f"verify_{k}" / "verdict.json"
            verdict = json.loads(path.read_text()) if path.exists() else None
            verdicts.append((box, op["rc"], verdict))
    failures, width = checks.check_round(fwd, bwd, verdicts, model, m, sets, m["seed"])
    if first:
        if fwd is None or not any(b["kind"] == "hit" for b, _, _ in verdicts):
            failures.append("self-test: no forward output or hit verdict to corrupt")
        else:
            missed = checks.self_test(fwd, verdicts, model, m, sets)
            failures += [f"self-test: corruption not caught: {name}" for name in missed]
    record["failures"] = failures
    record["frs_hull_width"] = width


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="hzreach end-to-end and per-layer benchmark")
    p.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (SRC / "hzreach" / "__init__.py").is_file():
        print(f"bench: no hzreach sources under {SRC}", file=sys.stderr)
        return 2
    os.environ["HZREACH_THREADS"] = "1"
    out = BENCH / "out" / args.workload
    inputs = out / "inputs"
    shutil.rmtree(out, ignore_errors=True)
    warm_up(WARMUP_S)
    reference = Reference()
    setup = measure_setup(args.workload, args.seed, inputs, reference)
    setup_s = statistics.median(setup["norm_s"])

    sys.path.insert(0, str(SRC))
    import hzreach.cli as cli
    from hzreach import HybridZonotope

    manifest = json.loads((inputs / "manifest.json").read_text())
    model = json.loads((inputs / "model.json").read_text())
    sets = {k: checks.Hz.load(inputs / f"{k}.json") for k in ("domain", "initial", "target")}
    # Load scipy's lazily imported solver modules before anything is timed.
    HybridZonotope.from_box([0.0, 0.0], [1.0, 1.0]).support(np.array([1.0, 0.0]))

    rnd = Round(inputs, manifest, out / "round")
    tracer = Tracer()
    plain, traced = [], []
    start = perf_counter()
    while True:
        use_trace = bool(args.trace) and len(plain) > len(traced)
        began = perf_counter()
        with tracer.installed() if use_trace else contextlib.nullcontext():
            record = rnd.run(cli, reference)
        check(record, rnd, model, sets, first=not (plain or traced))
        record["wall_s"] = perf_counter() - began
        (traced if use_trace else plain).append(record)
        longest = max(r["wall_s"] for r in plain + traced)
        if args.trace and not traced:
            continue
        if perf_counter() - start + longest > args.seconds:
            break

    done = plain + traced
    failures = [f for r in done for f in r["failures"]]
    attempted = sum(len(r["ops"]) for r in done)
    failed = sum(1 for r in done for op in r["ops"] if not op["ok"])
    if args.trace:
        metrics = summarize(tracer.spans, tracer.sizes, len(traced))
        metrics["trace.overhead_s"] = (statistics.median(r["total_s"] for r in traced)
                                       - statistics.median(r["total_s"] for r in plain))
        for sub in SUBCOMMANDS:
            metrics[f"wall.{sub}_s"] = statistics.median(r[f"{sub}_wall_s"] for r in plain)
        metrics["host.reference_s"] = statistics.median(t for r in plain for t in r["ref_s"])
        units = {k: unit(k) for k in metrics}
        t0 = tracer.spans[0][1] if tracer.spans else 0.0
        (out / "trace.json").write_text(json.dumps(
            [[n, s - t0, e - t0, par] for n, s, e, par in tracer.spans]))
        (out / "layers.json").write_text(json.dumps(metrics, indent=1, sort_keys=True))
    else:
        metrics = {"setup_s": setup_s}
        for key in ("forward_s", "backward_s", "verify_s"):
            metrics[key] = statistics.median(r[key] for r in plain)
        widths = [r["frs_hull_width"] for r in plain if r["frs_hull_width"] is not None]
        if not widths:
            failures.append("no forward output to measure frs_hull_width on")
        metrics["frs_hull_width"] = statistics.median(widths) if widths else 0.0
        metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        units = E2E_UNITS
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()}}
    (out / "result.json").write_text(json.dumps(
        dict(result, workload=args.workload, seed=args.seed, failures=failures, setup=setup,
             rounds=[{k: v for k, v in r.items() if k != "failures"} for r in done]),
        indent=1))
    for f in failures[:20]:
        print(f"bench: check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0 if not failures else 1


if __name__ == "__main__":
    sys.exit(main())
