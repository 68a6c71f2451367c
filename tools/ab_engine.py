"""Compare the engines of two checkouts in one process.

    python3 tools/ab_engine.py CHECKOUT_A CHECKOUT_B [--rounds N]

Loads ``src/planecolor`` of each checkout under its own module name and
asserts that both make byte-identical inputs (rotation texts) for each
workload, naming the workload and the first input that differs, before
it asserts that both give equal colorings, traces and audits on the inputs
of perfbench's ``batch-sweep`` and ``color-large`` workloads, and equal
``chi2_exact`` values on those of ``chi2-small`` (default seed), made by
``perfbench/run.py`` of this repository; on ``chi2-small`` every search
``chi2_exact`` runs must also end with the same status after the same
number of nodes, and on ``batch-sweep`` ``apply_rules`` must give the
same ledger and the same transfer records, in order (the audits carry
only the number of transfers).  It also asserts, untimed, equal
colorings and traces on ``medial_plus(40, s, extra=30)`` for s < 3 and
on the snubs of the icosahedron, dodecahedron and cube, built by this
checkout's ``tests/test_working_graph.py`` (so pytest and hypothesis
must be importable): these apply R-4three3f, R-4m2-4f-adj,
R-4m2-n5-adj, R-5m34-c and R-5m34-d, which ``batch-sweep`` never does.
It asserts the same on ``random_plane(214, 194)`` and
``random_plane(258, 518)``: each deletes a leaf whose face comes out of
length at most 4, which no workload's default-seed input does, and each
has holes of many chords whose regions share a face (7 and 3 times a
region takes in an earlier region's face).
On those inputs and on ``batch-sweep``'s, every match ``iter_matches``
yields must be equal too, in order, not only the ones the steps apply.
Then it times ``--rounds`` whole rounds of each workload (20 by
default, at least 2), A and B in turn, the first side swapping every
round, and prints the time of B's round over A's: the median with its
quartiles, and in how many rounds B was faster.  Both
sides of a pair run at the same host speed, so the ratio shows a layer's
change where separate benchmark runs see the host's speed changes;
claims of a gain still come from perfbench.  Any failed assert exits
non-zero, so ``--rounds 2`` serves as a check that a change keeps every
output of the base checkout.
"""

import argparse
import importlib.util
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "perfbench"))
from run import CHI2_BUDGET, make_inputs  # noqa: E402

WORKLOADS = ("batch-sweep", "color-large", "chi2-small")


def load(checkout: str, name: str):
    pkg = Path(checkout).resolve() / "src" / "planecolor"
    spec = importlib.util.spec_from_file_location(
        name, pkg / "__init__.py", submodule_search_locations=[str(pkg)]
    )
    mod = importlib.util.module_from_spec(spec)
    sys.modules[name] = mod
    spec.loader.exec_module(mod)
    return mod


def run(pc, workload: str, graphs) -> list:
    if workload == "chi2-small":
        return [pc.chi2_exact(g, budget=CHI2_BUDGET) for g in graphs]
    out = []
    for g in graphs:
        coloring, steps = pc.color16(g)
        report = pc.validate(g, coloring).to_json()
        audit = pc.audit(g) if workload == "batch-sweep" else None
        steps = [tuple(s) for s in steps]
        out.append((coloring.palette, coloring.colors, steps, report, audit))
    return out


def searches(pc, graphs) -> list:
    """(status, nodes) of each search ``chi2_exact`` runs on ``graphs``."""
    kernels = pc._kernels
    solve = kernels.solve_k_coloring
    seen = []

    def record(*args):
        out = solve(*args)
        seen.append((out[0], out[2]))
        return out

    kernels.solve_k_coloring = record
    try:
        run(pc, "chi2-small", graphs)
    finally:
        kernels.solve_k_coloring = solve
    return seen


def transfers(pc, graphs) -> list:
    """The final ledger and every transfer record of ``apply_rules`` on
    each of ``graphs``, as JSON."""
    out = []
    for g in graphs:
        ledger, records = pc.apply_rules(g)
        out.append((ledger.to_json(), [r.to_json() for r in records]))
    return out


def all_matches(pc, graphs) -> list:
    """Every match of ``iter_matches`` on each of ``graphs``, in order."""
    return [list(pc.iter_matches(g)) for g in graphs]


def rule_inputs() -> list:
    """The rotations of the medial, snub and leaf-face inputs, as lists."""
    sys.path[:0] = [str(ROOT / "src"), str(ROOT / "tests")]
    from planecolor.generators import named, random_plane
    from test_working_graph import medial_plus, snub_rotations

    rows = [medial_plus(40, s, extra=30).rotations for s in range(3)]
    rows += [snub_rotations(named(p).rotations) for p in ("icosahedron", "dodecahedron", "cube")]
    rows += [random_plane(n, seed=s).rotations for n, s in ((214, 194), (258, 518))]
    return [[list(row) for row in g] for g in rows]


def first_difference(a: list, b: list) -> int:
    """The index of the first item where a and b differ; the length of
    the shorter when one is a prefix of the other."""
    return next((i for i, (x, y) in enumerate(zip(a, b)) if x != y), min(len(a), len(b)))


def main() -> None:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--rounds", type=int, default=20, help="timed rounds per workload")
    args = p.parse_args()
    if args.rounds < 2:
        p.error("--rounds must be at least 2")
    sides = (load(args.a, "planecolor_a"), load(args.b, "planecolor_b"))
    rows = rule_inputs()
    graphs = [[pc.PlaneGraph(r) for r in rows] for pc in sides]
    outs = [run(pc, "rule-inputs", gs) for pc, gs in zip(sides, graphs)]
    assert outs[0] == outs[1], "medial, snub and leaf-face inputs"
    found = [all_matches(pc, gs) for pc, gs in zip(sides, graphs)]
    assert found[0] == found[1], "medial, snub and leaf-face matches"
    for w in WORKLOADS:
        inputs = [make_inputs(pc, w, 0) for pc in sides]
        texts = [[g.to_rotation_text() for g in gs] for gs in inputs]
        assert texts[0] == texts[1], (
            f"{w}: the inputs differ, first at input {first_difference(*texts)} "
            f"({len(texts[0])} and {len(texts[1])} made)"
        )
        assert run(sides[0], w, inputs[0]) == run(sides[1], w, inputs[1]), w
        if w == "chi2-small":
            trees = [searches(pc, graphs) for pc, graphs in zip(sides, inputs)]
            assert trees[0] == trees[1], "chi2-small search trees"
        if w == "batch-sweep":
            moves = [transfers(pc, graphs) for pc, graphs in zip(sides, inputs)]
            assert moves[0] == moves[1], "batch-sweep transfer records"
            found = [all_matches(pc, graphs) for pc, graphs in zip(sides, inputs)]
            assert found[0] == found[1], "batch-sweep matches"
        ratios = []
        for r in range(args.rounds):
            took = [0.0, 0.0]
            for s in ((0, 1) if r % 2 == 0 else (1, 0)):
                t0 = perf_counter()
                run(sides[s], w, inputs[s])
                took[s] = perf_counter() - t0
            ratios.append(took[1] / took[0])
        q1, med, q3 = statistics.quantiles(ratios, n=4)
        faster = sum(x < 1 for x in ratios)
        print(f"{w}: B/A per round {med:.3f} [{q1:.3f}, {q3:.3f}], "
              f"B faster in {faster} of {len(ratios)} rounds")


if __name__ == "__main__":
    main()
