"""Batch front door: parse graphs, color, audit, report.

Output is line-delimited JSON on stdout; anything meant for humans
goes to stderr.  Exit codes are the contract: 0 success, 2 bad input
or IO, 3 a validity or falsification failure (the offending graph is
dumped so the failure can be replayed).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import sys
from pathlib import Path
from typing import Optional

from .conflict import Coloring, validate
from .errors import (
    AnomalyNoConfiguration,
    EngineError,
    InvalidColoring,
    NoAvailableColor,
)
from .exact_solver import DEFAULT_BUDGET, UNKNOWN, chi2_exact
from .generators import NAMED_GRAPHS, named, random_plane
from .plane_graph import PlaneGraph, from_rotation_text
# reducer, configurations and discharging are imported inside the handlers
# that use them, so that gen, chi2 and validate never compile the engine

log = logging.getLogger("planecolor")

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_FALSIFIED = 3


def _read_graph(path: str) -> PlaneGraph:
    text = sys.stdin.read() if path == "-" else Path(path).read_text()
    if text.lstrip()[:1] == "{":
        return PlaneGraph.from_json(json.loads(text))
    return from_rotation_text(text)


def _emit(obj: dict, fmt: str) -> None:
    if fmt == "json":
        sys.stdout.write(json.dumps(obj, sort_keys=True) + "\n")
    else:
        parts = [f"{k}={json.dumps(obj[k], sort_keys=True)}" for k in sorted(obj)]
        sys.stdout.write(" ".join(parts) + "\n")
    sys.stdout.flush()


def _dump_graph(g: PlaneGraph, dump_dir: str, tag: str) -> str:
    text = g.to_rotation_text()
    digest = hashlib.sha1(text.encode()).hexdigest()[:12]
    directory = Path(dump_dir)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{tag}_{g.n}v_{digest}.rot"
    path.write_text(text)
    log.error("offending graph dumped to %s", path)
    return str(path)


def _cmd_validate(args) -> int:
    g = _read_graph(args.infile)
    out = {
        "n": g.n,
        "m": g.m,
        "faces": g.num_faces,
        "max_degree": max(g.deg),
        "plane": True,
    }
    if args.colors is not None:
        text = Path(args.colors).read_text()
        coloring = Coloring.from_json(json.loads(text))
        report = validate(g, coloring)
        out["coloring"] = report.to_json()
        _emit(out, args.format)
        if not report.valid:
            _dump_graph(g, args.dump, "invalid-coloring")
            return EXIT_FALSIFIED
        return EXIT_OK
    _emit(out, args.format)
    return EXIT_OK


def _cmd_color(args) -> int:
    from .reducer import color16

    g = _read_graph(args.infile)
    try:
        coloring, traces = color16(g, budget=args.budget)
    except (NoAvailableColor, AnomalyNoConfiguration, InvalidColoring) as exc:
        log.error("coloring failed: %s", exc)
        _dump_graph(g, args.dump, "uncolorable")
        return EXIT_FALSIFIED
    out = coloring.to_json()
    out["valid"] = True  # color16 validated it
    out["steps"] = len(traces)
    out["colors_used"] = len(set(coloring.colors.values()))
    if args.trace:
        out["trace"] = [t.to_json() for t in traces]
    _emit(out, args.format)
    return EXIT_OK


def _cmd_chi2(args) -> int:
    g = _read_graph(args.infile)
    value = chi2_exact(g, budget=args.budget)
    _emit({"chi2": "unknown" if value is UNKNOWN else value}, args.format)
    return EXIT_OK


def _cmd_detect(args) -> int:
    from .configurations import detect

    g = _read_graph(args.infile)
    match = detect(g)
    _emit({"configuration": match.to_json() if match else None}, args.format)
    return EXIT_OK


def _cmd_discharge(args) -> int:
    from . import discharging

    g = _read_graph(args.infile)
    # one transfer pass gives both the audit and the transfer list
    after, records = discharging.apply_rules(g)
    report = discharging._report(g, after, len(records))
    if args.transfers:
        report["transfer_list"] = [r.to_json() for r in records]
    _emit(report, args.format)
    if report["falsification"]:
        _dump_graph(g, args.dump, "falsification")
        return EXIT_FALSIFIED
    return EXIT_OK


def _cmd_gen(args) -> int:
    if args.name is not None:
        g = named(args.name)
    else:
        g = random_plane(args.n, seed=args.seed)
    text = g.to_rotation_text()
    if args.out is None or args.out == "-":
        sys.stdout.write(text)
    else:
        Path(args.out).write_text(text)
        log.info("wrote %s (n=%d m=%d)", args.out, g.n, g.m)
    return EXIT_OK


def _batch_one(g: PlaneGraph, index: int, seed: Optional[int], budget: int) -> dict:
    from .discharging import audit
    from .reducer import color16

    row: dict = {"index": index, "n": g.n, "m": g.m}
    if seed is not None:
        row["seed"] = seed
    try:
        coloring, traces = color16(g, budget=budget)
        row["valid"] = True  # color16 validated it
        row["steps"] = len(traces)
        row["colors_used"] = len(set(coloring.colors.values()))
        row["anomaly"] = any(t.rule == "anomaly-exact-fallback" for t in traces)
    except (NoAvailableColor, AnomalyNoConfiguration, InvalidColoring) as exc:
        row["valid"] = False
        row["steps"] = 0
        row["colors_used"] = 0
        row["anomaly"] = True
        row["error"] = str(exc)
    aud = audit(g)
    row["conservation"] = aud["conservation"]
    row["configuration_found"] = aud["configuration"] is not None
    row["falsification"] = aud["falsification"]
    row["ok"] = (
        row["valid"]
        and not row["anomaly"]
        and row["conservation"] == "-8"
        and not row["falsification"]
    )
    return row


def _batch_graphs(args):
    """The graphs of a batch with their seeds, in row order.  Each is
    made when the loop asks for it, so memory does not grow with
    --count."""
    if args.corpus:
        for name in NAMED_GRAPHS:
            yield named(name), None
    for seed in range(args.seed, args.seed + args.count):
        yield random_plane(args.n, seed=seed), seed


def _cmd_batch(args) -> int:
    failures = 0
    graphs = 0
    reductions = 0
    anomalies = 0
    max_colors = 0
    for index, (g, seed) in enumerate(_batch_graphs(args)):
        row = _batch_one(g, index, seed, args.budget)
        _emit(row, args.format)
        graphs += 1
        reductions += row["steps"]
        anomalies += 1 if row["anomaly"] else 0
        max_colors = max(max_colors, row["colors_used"])
        if not row["ok"]:
            failures += 1
            _dump_graph(g, args.dump, f"batch{index}")
    _emit(
        {
            "summary": True,
            "graphs": graphs,
            "reductions": reductions,
            "anomalies": anomalies,
            "max_colors_used": max_colors,
            "failures": failures,
        },
        args.format,
    )
    return EXIT_FALSIFIED if failures else EXIT_OK


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="planecolor",
        description="plane-graph distance-two coloring engine",
    )
    sub = p.add_subparsers(dest="command", required=True)

    shared = {
        "--in": dict(dest="infile", default="-",
                     help="rotation or JSON graph file, - for stdin"),
        "--format": dict(choices=("json", "text"), default="json"),
        "--dump": dict(default="falsifications",
                       help="directory for offending-graph dumps"),
        "--budget": dict(type=int, default=DEFAULT_BUDGET,
                         help="node budget for the exact oracle"),
    }

    def common(sp, *flags):
        for flag in flags:
            sp.add_argument(flag, **shared[flag])

    sp = sub.add_parser("validate", help="check a graph (and optional coloring)")
    common(sp, "--in", "--format", "--dump")
    sp.add_argument("--colors", default=None, help="coloring JSON file")
    sp.set_defaults(fn=_cmd_validate)

    sp = sub.add_parser("color", help="construct a 16-coloring")
    common(sp, "--in", "--format", "--dump", "--budget")
    sp.add_argument("--trace", action="store_true", help="include reduction trace")
    sp.set_defaults(fn=_cmd_color)

    sp = sub.add_parser("chi2", help="exact distance-two chromatic number")
    common(sp, "--in", "--format", "--budget")
    sp.set_defaults(fn=_cmd_chi2)

    sp = sub.add_parser("detect", help="find the first reducible configuration")
    common(sp, "--in", "--format")
    sp.set_defaults(fn=_cmd_detect)

    sp = sub.add_parser("discharge", help="run the charge audit")
    common(sp, "--in", "--format", "--dump")
    sp.add_argument("--transfers", action="store_true",
                    help="include the full transfer list")
    sp.set_defaults(fn=_cmd_discharge)

    sp = sub.add_parser("gen", help="write a graph in rotation format")
    sp.add_argument("--name", choices=NAMED_GRAPHS, default=None)
    sp.add_argument("--n", type=int, default=50, help="target size for random graphs")
    sp.add_argument("--seed", type=int, default=0)
    sp.add_argument("--out", default=None, help="output path, - or absent for stdout")
    sp.set_defaults(fn=_cmd_gen)

    sp = sub.add_parser("batch", help="color and audit a stream of graphs")
    common(sp, "--format", "--dump", "--budget")
    sp.add_argument("--count", type=int, default=100, help="random graphs to run")
    sp.add_argument("--n", type=int, default=100, help="target size per graph")
    sp.add_argument("--seed", type=int, default=0, help="seed of the first graph")
    sp.add_argument("--corpus", action="store_true",
                    help="prepend the named corpus to the stream")
    sp.set_defaults(fn=_cmd_batch)

    return p


def run(argv: Optional[list[str]] = None) -> int:
    logging.basicConfig(stream=sys.stderr, level=logging.INFO,
                        format="%(levelname)s %(message)s")
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except EngineError as exc:
        log.error("%s: %s", type(exc).__name__, exc)
        return EXIT_INPUT
    except (OSError, json.JSONDecodeError, ValueError, KeyError) as exc:
        log.error("input error: %s", exc)
        return EXIT_INPUT


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
