"""Count the bytecodes a reduction step, or making an input, runs, by function.

    python3 tools/opcount.py [--seed S] [--workload W] [--lines N]
    python3 tools/opcount.py --inputs [--seed S] [--workload W] [--lines N]

Makes the inputs of one of perfbench's workloads (``batch-sweep`` by
default, or ``color-large``) as ``perfbench/run.py`` makes them.  By
default it runs one untraced round of ``color16`` on them (so that every
layer is loaded and every lookup table filled, as in a benchmark's later
rounds), then one more round under ``sys.settrace`` with opcode events,
and prints one JSON object: the Python version, the inputs' size, the
number of reduction steps, and the bytecodes per step, in all and per
function (module and qualified name), most first.  ``color16`` includes
its final ``validate``.

With ``--inputs`` it counts instead what perfbench's set-up runs after
the import: making the workload's inputs and their rotation texts, once
untraced and once traced, per kept vertex, that is per vertex of the
graphs that ``random_plane`` returns (on ``color-large`` all twelve
draws, of which the workload keeps one).

With ``--lines N`` it also prints the N source lines that run the most
bytecodes per step (or per kept vertex), most first, each as
``file:line`` with its count and its text.  A line that calls into C,
such as a ``set`` operation, a ``dict`` display's build or a
``list.index``, counts its call as one bytecode however long the call
runs, so a cut that removes such a call saves more time than its
bytecodes show.

Time on a shared host moves with the host's speed; this count does not,
and repeats exactly on one Python version, so it shows which layer a
change made cheaper.  It is not a measure of time: bytecodes differ in
cost, and C calls such as ``set`` operations count as one.
"""

import argparse
import json
import linecache
import platform
import sys
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]
import planecolor as pc  # noqa: E402
from run import make_inputs  # noqa: E402


def name(code) -> str:
    return f"{Path(code.co_filename).stem}.{getattr(code, 'co_qualname', code.co_name)}"


def traced(work) -> tuple[Counter, object]:
    """Bytecodes per (code object, line) over ``work()``, and what it
    returned."""
    counts: Counter = Counter()

    def opcode(frame, event, arg):
        if event == "opcode":
            counts[frame.f_code, frame.f_lineno] += 1
        return opcode

    def call(frame, event, arg):
        if frame.f_code.co_filename == __file__:  # this script's own loops
            return None
        frame.f_trace_opcodes = True
        return opcode

    sys.settrace(call)
    try:
        out = work()
    finally:
        sys.settrace(None)
    return counts, out


def traced_round(graphs) -> tuple[Counter, int]:
    """Bytecodes per (code object, line) over one round, and the steps
    taken."""
    return traced(lambda: sum(len(pc.color16(g)[1]) for g in graphs))


def kept_vertices(workload: str, seed: int) -> int:
    """The vertices of every graph ``random_plane`` returns while the
    workload's inputs are made."""
    made = []

    def random_plane(n, seed):
        made.append(pc.random_plane(n, seed))
        return made[-1]

    make_inputs(SimpleNamespace(random_plane=random_plane), workload, seed)
    return sum(g.n for g in made)


def set_up(workload: str, seed: int) -> list[str]:
    return [g.to_rotation_text() for g in make_inputs(pc, workload, seed)]


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--workload", default="batch-sweep", choices=("batch-sweep", "color-large"))
    p.add_argument("--inputs", action="store_true",
                   help="count making the inputs and their rotation texts")
    p.add_argument("--lines", type=int, default=0, metavar="N",
                   help="also print the N source lines with the most bytecodes")
    args = p.parse_args()
    w, seed = args.workload, args.seed
    if args.inputs:
        per = kept_vertices(w, seed)  # also the untraced round
        counts, texts = traced(lambda: set_up(w, seed))
        head = {"inputs": len(texts), "kept_vertices": per}
        unit = "bytecodes_per_kept_vertex"
    else:
        graphs = make_inputs(pc, w, seed)
        for g in graphs:
            pc.color16(g)
        counts, per = traced_round(graphs)
        head = {"graphs": len(graphs), "vertices": sum(g.n for g in graphs), "steps": per}
        unit = "bytecodes_per_step"
    per_fn: Counter = Counter()
    per_line: Counter = Counter()
    for (code, line), c in counts.items():
        per_fn[name(code)] += c
        per_line[code.co_filename, line] += c
    lines = {
        f"{Path(f).name}:{line}": [round(c / per, 1), linecache.getline(f, line).strip()]
        for (f, line), c in per_line.most_common(args.lines)
    } if args.lines > 0 else {}
    print(json.dumps({
        "python": platform.python_version(),
        "workload": w,
        "seed": seed,
        **head,
        unit: round(sum(counts.values()) / per, 1),
        "per_function": {
            fn: round(c / per, 1) for fn, c in per_fn.most_common()
        },
        **({"per_line": lines} if lines else {}),
    }, indent=1))


if __name__ == "__main__":
    main()
