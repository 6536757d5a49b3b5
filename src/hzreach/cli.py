"""Command-line front end: reachability runs, safety verification, figure data.

Subcommands:
    forward    FRS per step from a domain + initial set; emits HZ JSON,
               a complexity table and SVG/CSV projections.
    backward   BRS per step for a target set; symmetric outputs.
    verify     safety check against an unsafe set: the forward route
               decides, and the backward route runs only after an Unknown
               forward verdict; exit code 0 = Safe, 2 = Unsafe, 3 = Unknown.

Outputs are deterministic for a fixed seed and configuration.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from pathlib import Path

from .bounds import propagate_intervals
from .errors import HzReachError
from .model import load_model
from .projection import emit_projection, write_points_csv, write_svg
from .reach import brs, frs, predicted_for_step, rank_unstable, state_pairs
from .sets import HybridZonotope
from .verify import Safety, verify_backward, verify_forward

_EXIT_BY_STATUS = {Safety.SAFE: 0, Safety.UNSAFE: 2, Safety.UNKNOWN: 3}
_SAMPLES_PER_SET = 500
# verdict.json's block for the backward route when it did not run
_NOT_RUN = {"status": "not_run", "evidence": [], "witnesses": []}


def _load_model(args):
    """The model of ``args``, with ``--dims`` checked against its state
    dimension n: for n >= 2 it must name two distinct coordinates in
    [0, n); a model with one coordinate ignores it."""
    model = load_model(args.model)
    n, (i, j) = model.state_dim, args.dims
    if n >= 2 and not (i != j and 0 <= i < n and 0 <= j < n):
        raise ValueError(f"--dims must name two distinct coordinates in [0, {n}) "
                         f"of the {n}-dimensional state, got {i},{j}")
    return model


def _build_series(model, domain_hz, args):
    tbl = propagate_intervals(model, domain_hz.interval_hull("generator_relaxed"), args.T)
    nb = len(tbl.unstable_index()) if args.nb is None else args.nb
    return state_pairs(model, domain_hz, rank_unstable(tbl, nb), args.hull)


def _same_data(a: HybridZonotope, b: HybridZonotope) -> bool:
    """Do the two sets hold the same blocks, shape and bytes alike?"""
    return all(x.shape == y.shape and x.tobytes() == y.tobytes()
               for x, y in zip((a.Gc, a.Gb, a.c, a.Ac, a.Ab, a.b),
                               (b.Gc, b.Gb, b.c, b.Ac, b.Ab, b.b)))


def _dump(path: Path, obj) -> None:
    with open(path, "w") as fh:
        fh.write(json.dumps(obj, sort_keys=True))  # one string, by the C encoder


def _emit_set(args, stem: str, hz: HybridZonotope, seed: int):
    """Write the set itself plus its figure data; empty and 1-D sets get no
    polygons."""
    hz.save(args.out / f"{stem}.json")
    if hz.is_empty():
        return [], None
    scope: dict = {}  # one set of LP sessions for the draws and the polygons
    samples = hz.sample_points(_SAMPLES_PER_SET, seed, scope)
    dims = args.dims if hz.dim >= 2 else (0,)
    points = samples[:, list(dims)]
    write_points_csv(args.out / f"{stem}_points.csv", points, dims)
    if hz.dim < 2:
        return [], None
    polygons = emit_projection(hz, args.dims, args.dirs, scope)
    write_svg(args.out / f"{stem}.svg", [(stem, polygons, points)])
    return polygons, points


def _reach_run(args, route: str, source: HybridZonotope) -> dict:
    """Reachable sets of ``source`` for steps 2..T on a series built over the
    domain: ``route`` "frs" pins the pair sets' first block to the source,
    "brs" their second.  Writes each set with its figure data, the overlay,
    the complexity table and the series; returns the sets by step."""
    series = _build_series(_load_model(args), HybridZonotope.load(args.domain), args)
    args.out.mkdir(parents=True, exist_ok=True)
    reach = frs if route == "frs" else brs
    reached = {}
    table_rows = []
    overlay = []
    for t in range(2, args.T + 1):
        reached[t] = reach(series, source, t)
        polygons, points = _emit_set(args, f"{route}_t{t}", reached[t], args.seed + t)
        if polygons:
            overlay.append((f"t={t}", polygons, points))
        n_unstable, n_exact = series.plan.counts(t)
        _, predicted = predicted_for_step(series, t, source.complexity)
        table_rows.append({
            "t": t,
            "n_unstable": n_unstable,
            "n_exact": n_exact,
            "measured": list(reached[t].complexity.astuple()),
            "predicted": list(predicted.astuple()),
        })
    if overlay:
        write_svg(args.out / f"{route}_overlay.svg", overlay)
    _dump(args.out / "complexity.json", table_rows)
    _dump(args.out / "series.json", series.to_json_dict())
    return reached


def cmd_forward(args) -> int:
    _reach_run(args, "frs", HybridZonotope.load(args.initial))
    return 0


def cmd_backward(args) -> int:
    initial = HybridZonotope.load(args.initial) if args.initial else None
    reached = _reach_run(args, "brs", HybridZonotope.load(args.target))
    if initial is None:
        return 0
    summary = []
    for t, back_t in reached.items():
        seed_t = back_t.generalized_intersect(initial)
        empty = seed_t.is_empty()
        summary.append({"t": t, "seed_set_empty": empty})
        if not empty:
            seed_t.save(args.out / f"seed_t{t}.json")
    _dump(args.out / "backward_summary.json", summary)
    return 0


def cmd_verify(args) -> int:
    model = load_model(args.model)
    domain = HybridZonotope.load(args.domain)
    initial = HybridZonotope.load(args.initial)
    unsafe = HybridZonotope.load(args.unsafe)
    args.out.mkdir(parents=True, exist_ok=True)

    fwd_series = _build_series(model, initial, args)
    fwd = verify_forward(fwd_series, unsafe, seed=args.seed)
    # Either condition is sufficient and an Unsafe one carries a simulated
    # witness, so a decided forward verdict is the verdict.  Only an Unknown
    # one sends the backward route's own witness search over the domain's
    # series, which is the forward one when the domain is the initial set.
    status, backward, bwd_series = fwd.status, _NOT_RUN, None
    if fwd.status is Safety.UNKNOWN:
        bwd_series = (fwd_series if _same_data(domain, initial)
                      else _build_series(model, domain, args))
        bwd = verify_backward(bwd_series, unsafe, initial, seed=args.seed)
        status, backward = bwd.status, bwd.to_json_dict()
    report = {
        "status": status.value,
        "forward": fwd.to_json_dict(),
        "backward": backward,
        "complexity": {
            route: [] if s is None else
            [{"t": t, "pair": list(s.pair_set(t).complexity.astuple())}
             for t in range(2, args.T + 1)]
            for route, s in (("forward", fwd_series), ("backward", bwd_series))
        },
        "binary_limit": fwd_series.plan.binary_limit,
        "horizon": args.T,
    }
    _dump(args.out / "verdict.json", report)
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


@functools.cache  # built once per process: parsing leaves the parser unchanged
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="hzreach",
                     description="Hybrid-zonotope reachability and safety "
                                 "verification of closed-loop ReLU RNNs")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, *, domain=False, initial=False, target=False, unsafe=False,
                   dims=False):
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
        p.add_argument("--hull", choices=("table", "exact"),
                       default="table", help="interval source for ReLU stages")
        if dims:
            p.add_argument("--dims", type=_dims, default=(0, 1),
                           help="coordinate pair for projections, e.g. 0,1")
        # verify draws no polygons but accepts --dirs, so one command line of
        # shared options serves all three subcommands
        p.add_argument("--dirs", type=int, default=64,
                       help="starting directions of each projection polygon")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--out", type=Path, required=True, help="output directory")

    p_fwd = sub.add_parser("forward", help="compute forward reachable sets")
    add_common(p_fwd, domain=True, initial="req", dims=True)
    p_bwd = sub.add_parser("backward", help="compute backward reachable sets")
    add_common(p_bwd, domain=True, initial=True, target=True, dims=True)
    p_ver = sub.add_parser("verify", help="verify safety against an unsafe set")
    add_common(p_ver, domain=True, initial="req", unsafe=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.T < 2:
            raise ValueError("horizon -T must be at least 2")
        if args.nb is not None and args.nb < 0:
            raise ValueError("--nb must be nonnegative")
        if args.dirs < 3:
            raise ValueError("--dirs must be at least 3")
        if args.command == "forward":
            return cmd_forward(args)
        if args.command == "backward":
            return cmd_backward(args)
        return cmd_verify(args)
    except (OSError, ValueError, KeyError, json.JSONDecodeError, HzReachError) as err:
        print(f"hzreach: error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
