"""Self-test of checks.py on hand-made graphs.

Run with ``python3 perfbench/selftest.py``; ``run.py`` also runs it
before it checks a workload's outputs.  The graphs are written out here
by hand, so the test depends on nothing from the package under test.
"""

from __future__ import annotations

import sys

import checks


def _cycle(n: int) -> list[list[int]]:
    return [[(i + 1) % n, (i - 1) % n] for i in range(n)]


def _icosahedron() -> list[list[int]]:
    # north pole 0, upper ring 1..5, lower ring 6..10, south pole 11
    rots = [[1, 2, 3, 4, 5]]
    for j in range(5):
        rots.append([0, 1 + (j - 1) % 5, 6 + (j - 1) % 5, 6 + j, 1 + (j + 1) % 5])
    for k in range(5):
        rots.append([11, 6 + (k + 1) % 5, 1 + (k + 1) % 5, 1 + k, 6 + (k - 1) % 5])
    rots.append([10, 9, 8, 7, 6])
    return rots


GRAPHS = {
    "c5": _cycle(5),
    "star5": [[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]],
    "k4": [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
    "icosahedron": _icosahedron(),
}
CHI2_BY_HAND = {"c5": 5, "star5": 6, "k4": 4, "icosahedron": 6}


def _edges_to_rots(n: int, edges) -> list[list[int]]:
    rots: list[list[int]] = [[] for _ in range(n)]
    for a, b in edges:
        rots[a].append(b)
        rots[b].append(a)
    return rots


def run() -> list[str]:
    """Every way the checks disagree with a hand-known answer."""
    errors = []

    def expect(ok: bool, what: str) -> None:
        if not ok:
            errors.append(what)

    for name, rots in GRAPHS.items():
        expect(not checks.check_input(rots), f"{name}: valid input rejected")
        got = checks.chi2_milp(rots)
        expect(got == CHI2_BY_HAND[name], f"{name}: MILP {got}, by hand {CHI2_BY_HAND[name]}")

    ico = GRAPHS["icosahedron"]
    distinct = {v: v + 1 for v in range(12)}
    expect(not checks.check_coloring(ico, distinct), "distinct colors rejected")
    # 0 and 6 share neighbour 1 but are not adjacent
    expect(1 in ico[0] and 1 in ico[6] and 6 not in ico[0], "fixture: 0-1-6 path")
    planted = {**distinct, 6: distinct[0]}
    expect(checks.check_coloring(ico, planted), "distance-two conflict accepted")
    adjacent = {**distinct, 1: distinct[0]}
    expect(checks.check_coloring(ico, adjacent), "adjacent conflict accepted")
    expect(checks.check_coloring(ico, {**distinct, 11: 17}), "color 17 accepted")
    expect(checks.check_coloring(ico, {**distinct, 11: 0}), "color 0 accepted")
    missing = {v: c for v, c in distinct.items() if v != 11}
    expect(checks.check_coloring(ico, missing), "uncolored vertex accepted")

    k5 = _edges_to_rots(5, [(a, b) for a in range(5) for b in range(a + 1, 5)])
    expect(checks.check_input(k5), "K5 accepted as planar")
    k33 = _edges_to_rots(6, [(a, b) for a in range(3) for b in range(3, 6)])
    expect(checks.check_input(k33), "K3,3 accepted as planar")
    star6 = _edges_to_rots(7, [(0, b) for b in range(1, 7)])
    expect(checks.check_input(star6), "degree 6 accepted")
    expect(checks.check_input(_edges_to_rots(4, [(0, 1), (2, 3)])), "two components accepted")
    expect(checks.check_input([[1], []]), "one-sided edge accepted")

    expect(not checks.check_steps(20, 30, [(50, 47, 9), (47, 45, 15)]), "good steps rejected")
    expect(checks.check_steps(20, 30, [(50, 50, 9)]), "step that does not shrink accepted")
    expect(checks.check_steps(20, 30, [(50, 47, 16)]), "d2 = 16 accepted")
    expect(checks.check_steps(20, 30, [(50, 47, 9), (46, 44, 9)]), "broken chain accepted")

    good = {"conservation": "-8", "configuration": {"rule": "R-2v"}, "falsification": False}
    expect(not checks.check_audit(good), "good audit rejected")
    expect(checks.check_audit({**good, "conservation": "-7"}), "-7 conservation accepted")
    expect(checks.check_audit({**good, "configuration": None}), "missing match accepted")
    expect(checks.check_audit({**good, "falsification": True}), "falsification accepted")
    return errors


if __name__ == "__main__":
    found = run()
    for e in found:
        print(f"FAIL {e}")
    print("self-test: " + ("FAILED" if found else "all checks behave as expected"))
    sys.exit(1 if found else 0)
