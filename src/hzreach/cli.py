"""Command-line front end: reachability runs, safety verification, figure data.

Subcommands:
    forward    FRS per step from a domain + initial set; emits HZ JSON,
               a complexity table and SVG/CSV projections.
    backward   BRS per step for a target set; symmetric outputs.
    verify     forward + backward safety check against an unsafe set;
               exit code 0 = Safe, 2 = Unsafe, 3 = Unknown.

Outputs are deterministic for a fixed seed and configuration (the verify
report's timing field excepted).
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from pathlib import Path

from . import sets as _sets
from .bounds import count_unstable, propagate_intervals
from .errors import HzReachError
from .model import load_model
from .projection import emit_projection, write_points_csv, write_svg
from .reach import brs, frs, predicted_for_step, rank_unstable, state_pairs
from .sets import HybridZonotope
from .verify import Safety, verify_backward, verify_forward

_EXIT_BY_STATUS = {Safety.SAFE: 0, Safety.UNSAFE: 2, Safety.UNKNOWN: 3}
_SAMPLES_PER_SET = 500


@dataclass
class RunConfig:
    model: Path
    out: Path
    T: int
    domain: Path | None = None
    initial: Path | None = None
    target: Path | None = None
    unsafe: Path | None = None
    nb: int | None = None
    hull: str = "table"
    dims: tuple[int, int] = (0, 1)
    dirs: int = 64
    seed: int = 0
    tol: float | None = None


def _build_series(model, domain_hz, cfg: RunConfig):
    tbl = propagate_intervals(model, domain_hz.interval_hull("generator_relaxed"), cfg.T)
    n_unstable = len(tbl.unstable_index())
    nb = n_unstable if cfg.nb is None else cfg.nb
    plan = rank_unstable(tbl, nb)
    series = state_pairs(model, domain_hz, cfg.T, plan, hull_mode=cfg.hull, table=tbl)
    return series


def _dump(path: Path, obj) -> None:
    with open(path, "w") as fh:
        json.dump(obj, fh, indent=2, sort_keys=True)


def _emit_set(out_dir: Path, stem: str, hz: HybridZonotope, cfg: RunConfig,
              seed: int):
    """Write the set itself plus its figure data; empty and 1-D sets get no
    polygons."""
    hz.save(out_dir / f"{stem}.json")
    if hz.is_empty():
        return [], None
    samples = hz.sample_points(_SAMPLES_PER_SET, seed)
    if hz.dim < 2:
        with open(out_dir / f"{stem}_points.csv", "w") as fh:
            fh.write("x0\n")
            fh.writelines(f"{float(p[0])!r}\n" for p in samples)
        return [], None
    polygons = emit_projection(hz, cfg.dims, cfg.dirs)
    points = samples[:, list(cfg.dims)]
    write_points_csv(out_dir / f"{stem}_points.csv", points, cfg.dims)
    write_svg(out_dir / f"{stem}.svg", [(stem, polygons, points)])
    return polygons, points


def cmd_forward(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    domain = HybridZonotope.load(cfg.domain)
    initial = HybridZonotope.load(cfg.initial)
    series = _build_series(model, domain, cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    table_rows = []
    overlay = []
    for t in range(2, cfg.T + 1):
        reach_t = frs(series, initial, t)
        polygons, points = _emit_set(cfg.out, f"frs_t{t}", reach_t, cfg, cfg.seed + t)
        if polygons:
            overlay.append((f"t={t}", polygons, points))
        predicted = predicted_for_step(series, t, initial.complexity,
                                       initial.complexity).frs
        table_rows.append({
            "t": t,
            "n_unstable": count_unstable(series.table, t),
            "n_exact": series.plan.exact_through(t),
            "measured": list(reach_t.complexity.astuple()),
            "predicted": list(predicted.astuple()),
        })
    if overlay:
        write_svg(cfg.out / "frs_overlay.svg", overlay)
    _dump(cfg.out / "complexity.json", table_rows)
    _dump(cfg.out / "series.json", series.to_json_dict())
    return 0


def cmd_backward(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    domain = HybridZonotope.load(cfg.domain)
    target = HybridZonotope.load(cfg.target)
    initial = HybridZonotope.load(cfg.initial) if cfg.initial else None
    series = _build_series(model, domain, cfg)
    cfg.out.mkdir(parents=True, exist_ok=True)
    table_rows = []
    overlay = []
    summary = []
    tgt_rec = target.complexity
    for t in range(2, cfg.T + 1):
        back_t = brs(series, target, t)
        polygons, points = _emit_set(cfg.out, f"brs_t{t}", back_t, cfg, cfg.seed + t)
        if polygons:
            overlay.append((f"t={t}", polygons, points))
        predicted = predicted_for_step(series, t, tgt_rec, tgt_rec).brs
        table_rows.append({
            "t": t,
            "n_unstable": count_unstable(series.table, t),
            "n_exact": series.plan.exact_through(t),
            "measured": list(back_t.complexity.astuple()),
            "predicted": list(predicted.astuple()),
        })
        if initial is not None:
            seed_t = back_t.generalized_intersect(initial)
            empty = seed_t.is_empty()
            summary.append({"t": t, "seed_set_empty": empty})
            if not empty:
                seed_t.save(cfg.out / f"seed_t{t}.json")
    if overlay:
        write_svg(cfg.out / "brs_overlay.svg", overlay)
    _dump(cfg.out / "complexity.json", table_rows)
    _dump(cfg.out / "series.json", series.to_json_dict())
    if initial is not None:
        _dump(cfg.out / "backward_summary.json", summary)
    return 0


def cmd_verify(cfg: RunConfig) -> int:
    model = load_model(cfg.model)
    domain = HybridZonotope.load(cfg.domain)
    initial = HybridZonotope.load(cfg.initial)
    unsafe = HybridZonotope.load(cfg.unsafe)
    cfg.out.mkdir(parents=True, exist_ok=True)

    fwd_series = _build_series(model, initial, cfg)
    fwd = verify_forward(fwd_series, unsafe, seed=cfg.seed)
    bwd_series = _build_series(model, domain, cfg)
    bwd = verify_backward(bwd_series, unsafe, initial, seed=cfg.seed)

    if Safety.UNSAFE in (fwd.status, bwd.status):
        status = Safety.UNSAFE
    elif Safety.SAFE in (fwd.status, bwd.status):
        status = Safety.SAFE
    else:
        status = Safety.UNKNOWN
    report = {
        "status": status.value,
        "forward": fwd.to_json_dict(),
        "backward": bwd.to_json_dict(),
        "complexity": {
            route: [{"t": t, "pair": list(s.pair_set(t).hz.complexity.astuple())}
                    for t in range(2, cfg.T + 1)]
            for route, s in (("forward", fwd_series), ("backward", bwd_series))
        },
        "binary_limit": fwd_series.plan.binary_limit,
        "horizon": cfg.T,
    }
    _dump(cfg.out / "verdict.json", report)
    print(f"verdict: {status.value}")
    return _EXIT_BY_STATUS[status]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dims(text: str) -> tuple[int, int]:
    try:
        i, j = (int(part) for part in text.split(","))
    except ValueError as err:
        raise argparse.ArgumentTypeError("dims must look like '0,1'") from err
    return (i, j)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hzreach",
                     description="Hybrid-zonotope reachability and safety "
                                 "verification of closed-loop ReLU RNNs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, domain=False, initial=False, target=False, unsafe=False):
        p.add_argument("--model", type=Path, required=True, help="model JSON")
        if domain:
            p.add_argument("--domain", type=Path, required=True,
                           help="state domain HZ JSON")
        if initial:
            p.add_argument("--initial", type=Path, required=initial == "req",
                           help="initial set HZ JSON")
        if target:
            p.add_argument("--target", type=Path, required=True,
                           help="target set HZ JSON")
        if unsafe:
            p.add_argument("--unsafe", type=Path, required=True,
                           help="unsafe set HZ JSON")
        p.add_argument("-T", type=int, required=True, help="horizon (>= 2)")
        p.add_argument("--nb", type=int, default=None,
                       help="binary limit (default: no relaxation)")
        p.add_argument("--hull", choices=("table", "relaxed", "exact"),
                       default="table", help="interval source for ReLU stages")
        p.add_argument("--dims", type=_dims, default=(0, 1),
                       help="coordinate pair for projections, e.g. 0,1")
        p.add_argument("--dirs", type=int, default=64,
                       help="support directions per projection polygon")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--tol", type=float, default=None,
                       help="override the feasibility tolerance (default 1e-7)")
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_fwd = sub.add_parser("forward", help="compute forward reachable sets")
    add_common(p_fwd, domain=True, initial="req")
    p_bwd = sub.add_parser("backward", help="compute backward reachable sets")
    add_common(p_bwd, domain=True, initial=True, target=True)
    p_ver = sub.add_parser("verify", help="verify safety against an unsafe set")
    add_common(p_ver, domain=True, initial="req", unsafe=True)
    return parser


def _to_config(args) -> RunConfig:
    cfg = RunConfig(model=args.model, out=args.out, T=args.T,
                    domain=getattr(args, "domain", None),
                    initial=getattr(args, "initial", None),
                    target=getattr(args, "target", None),
                    unsafe=getattr(args, "unsafe", None),
                    nb=args.nb, hull=args.hull, dims=args.dims,
                    dirs=args.dirs, seed=args.seed, tol=args.tol)
    if cfg.T < 2:
        raise ValueError("horizon -T must be at least 2")
    if cfg.nb is not None and cfg.nb < 0:
        raise ValueError("--nb must be nonnegative")
    return cfg


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    previous_tol = _sets.FEAS_TOL
    try:
        cfg = _to_config(args)
        if cfg.tol is not None:
            if cfg.tol <= 0:
                raise ValueError("--tol must be positive")
            _sets.FEAS_TOL = cfg.tol
        if args.command == "forward":
            return cmd_forward(cfg)
        if args.command == "backward":
            return cmd_backward(cfg)
        return cmd_verify(cfg)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, HzReachError) as err:
        print(f"hzreach: error: {err}", file=sys.stderr)
        return 1
    finally:
        _sets.FEAS_TOL = previous_tol


if __name__ == "__main__":
    sys.exit(main())
