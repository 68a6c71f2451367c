"""Count the bytecodes a reduction step runs, by function.

    python3 tools/opcount.py [--seed S]

Makes the inputs of perfbench's ``batch-sweep`` workload as
``perfbench/run.py`` makes them, runs one untraced round of ``color16``
on them (so that every layer is loaded and every lookup table filled, as
in a benchmark's later rounds), then one more round under
``sys.settrace`` with opcode events, and prints one JSON object: the
Python version, the inputs' size, the number of reduction steps, and the
bytecodes per step, in all and per function (module and qualified name),
most first.  ``color16`` includes its final ``validate``.

Time on a shared host moves with the host's speed; this count does not,
and repeats exactly on one Python version, so it shows which layer a
change made cheaper.  It is not a measure of time: bytecodes differ in
cost, and C calls such as ``set`` operations count as one.
"""

import argparse
import json
import platform
import sys
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import planecolor as pc  # noqa: E402
from run import make_inputs  # noqa: E402


def name(code) -> str:
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def traced_round(graphs) -> tuple[Counter, int]:
    """Bytecodes per code object over one round, and the steps taken."""
    counts: Counter = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code] += 1
        return opcode

    def call(frame, event, arg):
        frame.f_trace_opcodes = True
        return opcode

    steps = 0
    sys.settrace(call)
    try:
        for g in graphs:
            steps += len(pc.color16(g)[1])
    finally:
        sys.settrace(None)
    return counts, steps


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    args = p.parse_args()
    graphs = make_inputs(pc, "batch-sweep", args.seed)
    for g in graphs:
        pc.color16(g)
    counts, steps = traced_round(graphs)
    per_fn: Counter = Counter()
    for code, c in counts.items():
        per_fn[name(code)] += c
    print(json.dumps({
        "python": platform.python_version(),
        "workload": "batch-sweep",
        "seed": args.seed,
        "graphs": len(graphs),
        "vertices": sum(g.n for g in graphs),
        "steps": steps,
        "bytecodes_per_step": round(sum(counts.values()) / steps, 1),
        "per_function": {
            fn: round(c / steps, 1) for fn, c in per_fn.most_common()
        },
    }, indent=1))


if __name__ == "__main__":
    main()
