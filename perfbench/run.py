"""End-to-end benchmark of the planecolor package.

Run from the root of a checkout:

    python3 perfbench/run.py --workload batch-sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all

Each run imports the package from ``src/`` of the checkout, makes its
input graphs from ``--seed``, then calls the public API in a closed loop,
one graph at a time, in whole rounds over the input set until the calls
have taken ``--seconds``, probing the host's speed between calls
(``hostspeed.py``).  A graph's latency is the median of its calls, each
scaled to the nominal host speed as far as ``HOST_SENSITIVITY`` says.
Every output is checked afterwards with ``checks.py``, which shares no
code with the package.  The last line of standard output is one JSON
object: ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
the same rounds run once untraced and once more traced, and the metrics
are the per-layer split of the traced round.  See README.md for what
each number means.
"""

from __future__ import annotations

import os

# one thread: the numbers must not depend on how many cores numpy grabs
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import gc
import hashlib
import json
import random
import resource
import statistics
import subprocess
import sys
import traceback
from array import array
from pathlib import Path
from time import perf_counter

import hostspeed
from tracer import NAME, PARENT, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
FINGERPRINTS = BENCH / "fingerprints.json"

DEFAULT_SEED = 0
SETUP_REPS = 3  # set-ups per run: this process plus two fresh ones
PROBE_EVERY = 0.25  # seconds of calls between two host-speed probes
CHI2_BUDGET = 10**6

# color-large: random_plane keeps between n/2 and n vertices and the
# engine's time and memory grow with the square of n + m, so of a fixed
# number of draws the one closest to the target size is kept.  At
# n + m = 1700 (n about 640) a call takes 5 to 7 s, so a run of 20 s
# times three or four calls; at n about 890 a call took 10 s and a run
# timed two.
LARGE_REQUEST, LARGE_DRAWS, LARGE_SIZE = 690, 12, 1700
# chi2-small: the search cost of a graph is set by how many palette
# sizes it must refute, which jumps between graphs.  From n = 15 on some
# seeds come near or past CHI2_BUDGET (UNKNOWN at n = 18, 22 and 24),
# so failures would depend on the seed; at n = 10..13 the node count
# jumps 7x between graphs (2293 or 15993 at n = 10), so a few graphs
# would decide a run's total.  The square of a random_plane(8) graph is
# nearly always complete: 88% of them refute k = 6 and 7 (2291 nodes),
# the rest k = 6 (334 nodes).
CHI2_N = 8
CHI2_GRAPHS = 200

WORKLOADS = ("batch-sweep", "color-large", "chi2-small")
# How far a workload's calls move with the host speed that the probe
# reads: a call is scaled by hostspeed.scale(...) ** HOST_SENSITIVITY.
# color-large holds a working set of about 230 MB, and its calls moved
# with the probe only in part: over 37 calls in ten runs the log of the
# latency fell by 0.41 per unit of the log of the probe's scale (r =
# -0.63).  Unscaled, its spread over those runs was 0.14; scaled in
# full, 0.09; scaled by the square root, 0.07.  On ten other seeds the
# three read 0.12, 0.07 and 0.06.
HOST_SENSITIVITY = {"batch-sweep": 1.0, "color-large": 0.5, "chi2-small": 1.0}


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def import_package():
    if not (SRC / "planecolor" / "__init__.py").is_file():
        fail(f"no planecolor package under {SRC}")
    sys.path.insert(0, str(SRC))
    import planecolor

    if Path(planecolor.__file__).resolve().parent != SRC / "planecolor":
        fail(f"imported planecolor from {planecolor.__file__}, not {SRC}")
    return planecolor


def make_inputs(pc, workload: str, seed: int) -> list:
    if workload == "batch-sweep":
        # the sizes of `planecolor batch` runs: many small graphs.  They
        # run in shuffled order; in size order the median latency would
        # be timed in one short stretch in the middle of the round.
        graphs = [
            pc.random_plane(20 + (130 * i) // 99, seed=seed * 1000 + i)
            for i in range(100)
        ]
        random.Random(seed).shuffle(graphs)
        return graphs
    if workload == "color-large":
        draws = [
            pc.random_plane(LARGE_REQUEST, seed=seed * 1000 + j)
            for j in range(LARGE_DRAWS)
        ]
        return [min(draws, key=lambda g: abs(g.n + g.m - LARGE_SIZE))]
    if workload == "chi2-small":
        return [pc.random_plane(CHI2_N, seed=seed * 1000 + i) for i in range(CHI2_GRAPHS)]
    fail(f"unknown workload {workload!r}")


def fingerprint(texts: list[str]) -> list[str]:
    return [hashlib.sha256(t.encode()).hexdigest() for t in texts]


def setup(workload: str, seed: int):
    """Import, make the inputs, and pin them on the default seed.

    Returns the package, the graphs, their rotation texts and the
    seconds all of it took, scaled to the nominal host speed by probes
    taken before and after.
    """
    before = hostspeed.probe()
    t0 = perf_counter()
    pc = import_package()
    graphs = make_inputs(pc, workload, seed)
    texts = [g.to_rotation_text() for g in graphs]
    digests = fingerprint(texts)
    if seed == DEFAULT_SEED:
        pinned = json.loads(FINGERPRINTS.read_text())[workload]
        drifted = [i for i, (a, b) in enumerate(zip(digests, pinned)) if a != b]
        if drifted or len(digests) != len(pinned):
            fail(
                f"{workload}: random_plane output drifted from "
                f"{FINGERPRINTS.name} at inputs {drifted[:10]} "
                f"({len(digests)} made, {len(pinned)} pinned)"
            )
    took = perf_counter() - t0
    return pc, graphs, texts, took * hostspeed.scale(before, hostspeed.probe())


def setup_in_fresh_process(workload: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-only"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    if proc.returncode != 0:
        fail(f"set-up in a fresh process failed:\n{proc.stderr}")
    return float(proc.stdout.strip().splitlines()[-1])


# ----------------------------------------------------------------------
# operations: one input graph each, through the public API
# ----------------------------------------------------------------------


def operation(pc, workload: str):
    """The timed call on one graph, and the compact copy of its result
    that the checks get.  Keeping only the copy stops repeated rounds
    from growing the process, so ``peak_rss_mb`` is the package's."""
    if workload == "chi2-small":
        def op(g):
            chi = pc.chi2_exact(g, budget=CHI2_BUDGET)
            if not isinstance(chi, int):
                raise RuntimeError(f"chi2_exact gave {chi!r} at n={g.n}")
            return chi

        return op, lambda chi: chi

    audited = workload == "batch-sweep"

    def op(g):
        coloring, steps = pc.color16(g)
        pc.validate(g, coloring)
        return coloring, steps, pc.audit(g) if audited else None

    def keep(out):
        coloring, steps, aud = out
        colors = coloring.colors
        triples = array("i")
        for s in steps:
            triples.extend((s.v_plus_e_before, s.v_plus_e_after, s.observed_d2))
        if aud is not None:
            aud = {k: aud[k] for k in ("conservation", "configuration", "falsification")}
        return array("i", colors), array("i", colors.values()), triples, aud

    return op, keep


def timed_rounds(op, keep, graphs, seconds: float, rounds: int | None, tracer=None):
    """Closed loop over the inputs, in whole rounds.

    Runs until the calls have taken ``seconds``, or exactly ``rounds``
    rounds.  Between calls, once at least ``PROBE_EVERY`` seconds of
    calls have passed since the last probe, it probes the host's speed.
    Returns per-call latencies, the factor that scales each to the
    nominal host speed (from the probes just before and just after the
    call), per-round seconds spent in the calls, and the outputs as
    ``(graph index, kept copy or None when the call raised)``.
    """
    latencies: list[float] = []
    probe_of: list[int] = []  # per call, the index of the probe before it
    probes = [hostspeed.probe()]
    since_probe = 0.0
    round_times: list[float] = []
    outputs: list[tuple[int, object]] = []
    while True:
        first = len(latencies)
        for i, g in enumerate(graphs):
            if since_probe >= PROBE_EVERY:
                probes.append(hostspeed.probe())
                since_probe = 0.0
            if tracer is not None:
                tracer.graph = i
            t0 = perf_counter()
            try:
                out = op(g)
            except Exception:  # a failed operation is counted, not fatal
                traceback.print_exc()
                out = None
            latencies.append(perf_counter() - t0)
            since_probe += latencies[-1]
            probe_of.append(len(probes) - 1)
            outputs.append((i, None if out is None else keep(out)))
        round_times.append(sum(latencies[first:]))
        if rounds is not None:
            if len(round_times) == rounds:
                break
        elif sum(round_times) >= seconds:
            break
    probes.append(hostspeed.probe())
    scales = [hostspeed.scale(probes[k], probes[k + 1]) for k in probe_of]
    return latencies, scales, round_times, outputs


# ----------------------------------------------------------------------
# checks, after the timed phase
# ----------------------------------------------------------------------


def check_outputs(workload: str, texts: list[str], outputs) -> list[str]:
    # imported only now, so networkx and scipy load after peak_rss_mb is read
    import checks
    import selftest

    errors = [f"self-test: {e}" for e in selftest.run()]
    rots = [checks.parse_rotation_text(t) for t in texts]
    for i, r in enumerate(rots):
        errors += [f"input {i}: {e}" for e in checks.check_input(r)]
    truth: dict[str, int] = {}  # MILP value per distinct rotation text
    for i, out in outputs:
        if out is None:
            continue
        r = rots[i]
        if workload == "chi2-small":
            if texts[i] not in truth:
                truth[texts[i]] = checks.chi2_milp(r)
            if out != truth[texts[i]]:
                errors.append(f"input {i}: chi2_exact {out}, MILP {truth[texts[i]]}")
            continue
        keys, values, triples, aud = out
        n, m = len(r), sum(map(len, r)) // 2
        found = checks.check_coloring(r, dict(zip(keys, values)))
        found += checks.check_steps(n, m, zip(*[iter(triples)] * 3))
        if aud is not None:
            found += checks.check_audit(aud)
        errors += [f"input {i}: {e}" for e in found]
    return errors


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def graph_latencies(latencies, scales, outputs) -> dict[int, float]:
    """The median latency of each graph over the rounds of a run, in
    seconds at the nominal host speed (see hostspeed.py).  A graph with
    a failed call is left out."""
    failed = {i for i, out in outputs if out is None}
    per_graph: dict[int, list[float]] = {}
    for (i, _), t, f in zip(outputs, latencies, scales):
        if i not in failed:
            per_graph.setdefault(i, []).append(t * f)
    return {i: statistics.median(ts) for i, ts in per_graph.items()}


def end_to_end(graphs, per_graph: dict[int, float], setup_s, rss_mb) -> dict:
    done = sum(graphs[i].n for i in per_graph)
    return {
        "setup_s": metric(setup_s, "s"),
        "vertices_per_s": metric(done / sum(per_graph.values()), "vertices/s"),
        "graph_p50_ms": metric(1000 * statistics.median(per_graph.values()), "ms"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }


def per_layer(tracer, traced_s: float, untraced_s: float) -> dict:
    st = tracer.self_times()
    c = tracer.counts
    apply_calls = tracer.calls("apply")
    refused = tracer.calls("apply", failed=True)
    color16_ids = {i for i, s in enumerate(tracer.spans) if s[NAME] == "color16"}
    fallbacks = sum(
        1
        for s in tracer.spans
        if s[NAME] == "color_with_k" and s[PARENT] in color16_ids
    )
    search_s = st["solve_k_coloring"]
    return {
        "plane_graph.build_s": metric(st["PlaneGraph.__init__"], "s"),
        "plane_graph.builds": metric(tracer.calls("PlaneGraph.__init__"), "count"),
        "plane_graph.darts_built": metric(c["darts"], "count"),
        "configurations.detect_s": metric(st["iter_matches"] + st["detect"], "s"),
        "configurations.detect_calls": metric(c["iter_matches.calls"], "count"),
        "configurations.matches_pulled": metric(c["iter_matches.yielded"], "count"),
        "reducer.apply_self_s": metric(st["apply"], "s"),
        "reducer.is_proper_wrt_s": metric(st["is_proper_wrt"], "s"),
        "reducer.extend_s": metric(st["extend"], "s"),
        "reducer.color16_self_s": metric(st["color16"], "s"),
        "reducer.apply_calls": metric(apply_calls, "count"),
        "reducer.apply_refused": metric(refused, "count"),
        "reducer.steps": metric(apply_calls - refused, "count"),
        "reducer.apply_useful_ratio": metric(
            (apply_calls - refused) / apply_calls if apply_calls else 0.0, "ratio"
        ),
        "reducer.exact_fallbacks": metric(fallbacks, "count"),
        "conflict.validate_s": metric(st["validate"], "s"),
        "discharging.audit_s": metric(st["audit"], "s"),
        "discharging.transfers": metric(c["transfers"], "count"),
        "exact_solver.search_s": metric(search_s, "s"),
        "exact_solver.search_nodes": metric(c["nodes"], "count"),
        "exact_solver.nodes_per_s": metric(
            c["nodes"] / search_s if search_s else 0.0, "1/s"
        ),
        "exact_solver.k_attempts": metric(tracer.calls("color_with_k"), "count"),
        "exact_solver.self_s": metric(st["chi2_exact"] + st["color_with_k"], "s"),
        "trace.overhead_s": metric(traced_s - untraced_s, "s"),
    }


# ----------------------------------------------------------------------
# entry points
# ----------------------------------------------------------------------


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    pc, graphs, texts, first_setup = setup(workload, seed)
    setups = [first_setup]
    setups += [setup_in_fresh_process(workload, seed) for _ in range(SETUP_REPS - 1)]
    setup_s = statistics.median(setups)

    op, keep = operation(pc, workload)
    gc.collect()
    latencies, scales, round_times, outputs = timed_rounds(
        op, keep, graphs, seconds, None
    )
    elapsed = sum(round_times)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    if trace:
        tracer = Tracer()
        tracer.install(pc)
        try:
            _, _, traced_rounds, traced_out = timed_rounds(
                op, keep, graphs, 0, 1, tracer
            )
        finally:
            tracer.uninstall()
        outputs += traced_out
        OUT.mkdir(exist_ok=True)
        tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
        metrics = per_layer(tracer, traced_rounds[0], statistics.median(round_times))
    else:
        applied = [f ** HOST_SENSITIVITY[workload] for f in scales]
        metrics = end_to_end(
            graphs, graph_latencies(latencies, applied, outputs), setup_s, rss_mb
        )
        OUT.mkdir(exist_ok=True)
        (OUT / f"samples-{workload}-seed{seed}.json").write_text(json.dumps({
            "n": [g.n for g in graphs],
            "graph": [i for i, _ in outputs],
            "latency_s": latencies,
            "scale": scales,
        }) + "\n")

    failed = sum(1 for _, out in outputs if out is None)
    errors = check_outputs(workload, texts, outputs)
    for e in errors[:20]:
        print(f"CHECK FAILED {workload}: {e}", file=sys.stderr)

    n = len(latencies)
    done = sum(graphs[i].n for i, out in outputs[:n] if out is not None)
    tail = ""
    if n >= 100:  # ten samples beyond the 90th percentile
        p90 = statistics.quantiles(latencies, n=10)[-1]
        tail = f" graph_p90_ms={1000 * p90:.3f}"
    print(
        f"# {workload} seed={seed} graphs={len(graphs)} rounds={len(round_times)} "
        f"samples={n} setups={[round(s, 4) for s in setups]}"
    )
    print(
        f"# unscaled, over all samples: vertices_per_s={done / elapsed:.2f} "
        f"graph_p50_ms={1000 * statistics.median(latencies):.3f}{tail} "
        f"host speed: {min(scales):.3f}..{max(scales):.3f} x nominal"
    )
    for name, m in metrics.items():
        print(f"# {name} = {m['value']} {m['unit']}")
    return {
        "correct": not errors,
        "attempted": len(outputs),
        "failed": failed,
        "metrics": metrics,
    }


def write_fingerprints() -> None:
    pc = import_package()
    pinned = {"seed": DEFAULT_SEED}
    for w in WORKLOADS:
        graphs = make_inputs(pc, w, DEFAULT_SEED)
        pinned[w] = fingerprint([g.to_rotation_text() for g in graphs])
    FINGERPRINTS.write_text(json.dumps(pinned, indent=1) + "\n")
    print(f"wrote {FINGERPRINTS}")


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", choices=(*WORKLOADS, "all"))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="time one set-up and print its seconds")
    p.add_argument("--write-fingerprints", action="store_true",
                   help=f"pin the default-seed inputs in {FINGERPRINTS.name}")
    args = p.parse_args()

    if args.write_fingerprints:
        write_fingerprints()
        return
    if args.workload is None:
        p.error("--workload is required")
    if args.setup_only:
        print(setup(args.workload, args.seed)[3])
        return
    if args.workload == "all":
        # each workload in its own fresh process, one after another
        status = 0
        for w in WORKLOADS:
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", w,
                 "--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)],
                cwd=ROOT, timeout=900,
            )
            status = status or proc.returncode
        sys.exit(status)

    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result) + "\n"
    )
    print(json.dumps(result))


if __name__ == "__main__":
    main()
