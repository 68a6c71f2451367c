"""The graph core's loops against references that share no code with them.

Face tracing and two-hop rows are checked against walks written out
here, and the constructor against the duals built from those walks.
The k-coloring search is checked against what the numpy build of the
package returned on the same inputs, and against the search as first
written, kept here: status, node count and the coloring found, so the
search itself is pinned, not only its answers.
"""

import hashlib
import json

import pytest

from planecolor._kernels import (
    SOLVE_FOUND,
    SOLVE_INFEASIBLE,
    SOLVE_UNKNOWN,
    solve_k_coloring,
)
from planecolor.errors import ParseError
from planecolor.exact_solver import _static_order
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from planecolor.plane_graph import PlaneGraph, _successors

SAMPLE_GRAPHS = [named("cube"), named("icosahedron")] + [
    random_plane(n, seed=s) for n, s in [(30, 1), (77, 2), (120, 3)]
]
# every named graph and one draw of the size perfbench's color-large uses
FACE_GRAPHS = [named(name) for name in NAMED_GRAPHS] + [random_plane(690, seed=0)]

# per graph: k -> (status, nodes, sha256 of the JSON of the colors found)
SOLVER_PINS = {
    "n8m12": {
        3: (SOLVE_INFEASIBLE, 5, None),
        16: (SOLVE_FOUND, 8, "651b57388c519349046a03c68f4b900bb941653b912e8c5bea9f6f4a3ae02c15"),
    },
    "n12m30": {
        3: (SOLVE_INFEASIBLE, 5, None),
        16: (SOLVE_FOUND, 12, "8e67b4bad8d6b903ebe23a761be10ffa30ae39922ebcab5141a64cac12a252dd"),
    },
    "n30m53": {
        3: (SOLVE_INFEASIBLE, 26, None),
        16: (SOLVE_FOUND, 30, "5ac9aaca352c1245560ba1d12e5eaecfee9f52ed3a93517d9aa9d104aeb109c8"),
    },
    "n77m129": {
        3: (SOLVE_INFEASIBLE, 79, None),
        16: (SOLVE_FOUND, 77, "8d67e92180d21e52569578cd88396bcac828686b3104b7de826d99df7594b5c5"),
    },
    "n120m208": {
        3: (SOLVE_INFEASIBLE, 16, None),
        16: (SOLVE_FOUND, 120, "e29d2ff171ccff7bf54bc5f3a29b9f76499317df98dc626ac0a3946a504165ae"),
    },
}


def reference_solve_k_coloring(rows, order, k: int, budget: int):
    """The search as first written: every neighbour tested for a color,
    every color up to k - 1 tested for membership, (vertex, color) pairs
    on the trail.  Returns (status, colors, nodes) as the kernel does.
    """
    n = len(rows)
    if n == 0:
        return SOLVE_FOUND, [], 0
    if k <= 0:
        return SOLVE_INFEASIBLE, [-1] * n, 0
    domain = [(1 << k) - 1] * n
    color = [-1] * n
    trail: list[tuple[int, int]] = []
    frame_start = [0] * (n + 1)
    tried = [-1] * n
    nodes = 0
    depth = 0
    while True:
        if depth == n:
            return SOLVE_FOUND, color, nodes
        v = order[depth]
        limit = 0 if depth == 0 else k - 1  # pin the root color
        c = tried[depth] + 1
        placed = False
        while c <= limit:
            if (domain[v] >> c) & 1:
                nodes += 1
                if nodes > budget:
                    return SOLVE_UNKNOWN, color, nodes
                # forward-check neighbours still unassigned
                ok = True
                frame_start[depth] = len(trail)
                for u in rows[v]:
                    if color[u] >= 0:
                        continue
                    if (domain[u] >> c) & 1:
                        domain[u] &= ~(1 << c)
                        trail.append((u, c))
                        if domain[u] == 0:
                            ok = False
                            break
                if ok:
                    color[v] = c
                    tried[depth] = c
                    placed = True
                    break
                # wipeout: undo this attempt, try next color
                while len(trail) > frame_start[depth]:
                    u, b = trail.pop()
                    domain[u] |= 1 << b
            c += 1
        if placed:
            depth += 1
            if depth < n:
                tried[depth] = -1
            continue
        # no color fits at this depth: backtrack
        tried[depth] = -1
        depth -= 1
        if depth < 0:
            return SOLVE_INFEASIBLE, color, nodes
        v = order[depth]
        color[v] = -1
        while len(trail) > frame_start[depth]:
            u, b = trail.pop()
            domain[u] |= 1 << b


def graph_id(g) -> str:
    return f"n{g.n}m{g.m}"


def reference_walks(g):
    """Faces as dart-index orbits, walked through (tail, head) pairs:
    the face of every dart and each face's (tail, head) pairs in walk
    order from its least dart."""
    darts = [(v, u) for v, row in enumerate(g.rotations) for u in row]
    index = {d: p for p, d in enumerate(darts)}
    face_of = [None] * len(darts)
    walks = []
    for p0, _ in enumerate(darts):
        if face_of[p0] is not None:
            continue
        walks.append([])
        p = p0
        while face_of[p] is None:
            face_of[p] = len(walks) - 1
            walks[-1].append(darts[p])
            v, u = darts[p]
            row = g.rotations[u]
            p = index[(u, row[(row.index(v) + 1) % len(row)])]
    return face_of, walks


def reference_faces(g):
    face_of, walks = reference_walks(g)
    return face_of, [face_of.count(f) for f in range(len(walks))]


@pytest.mark.parametrize("g", FACE_GRAPHS, ids=graph_id)
class TestFaces:
    def test_trace_orbits(self, g):
        face_of, lens = reference_faces(g)
        if g.m == 0:
            # no darts: one face of length 0
            face_of, lens = [], [0]
        assert list(g.face_of_dart) == face_of
        assert list(g.face_lens) == lens

    def test_successor_walks(self, g):
        # _trace's input: each face walked from its least dart along
        # the successors, as (tail, head) pairs
        darts = [(v, u) for v, row in enumerate(g.rotations) for u in row]
        mirror = [g.rot_start[u] + g.rotations[u].index(v) for v, u in darts]
        succ = _successors(g.rot_start, mirror)
        walks = []
        seen = set()
        for p0 in range(len(succ)):
            if p0 in seen:
                continue
            walks.append([])
            p = p0
            while p not in seen:
                seen.add(p)
                walks[-1].append(darts[p])
                p = succ[p]
            assert p == p0  # the walk closes where it began
        assert walks == reference_walks(g)[1]

    def test_faces_of_the_dual_are_the_vertices(self, g):
        # the dual's rows, from the walks written out here: face f's row
        # is the face across each dart of its walk
        face_of, walks = reference_walks(g)
        darts = [(v, u) for v, row in enumerate(g.rotations) for u in row]
        index = {d: p for p, d in enumerate(darts)}
        rows = [[face_of[index[(u, v)]] for v, u in walk] for walk in walks]
        if g.m == 0:
            rows = [[]]  # the one face of a single vertex
        if not all(f not in row and len(set(row)) == len(row) for f, row in enumerate(rows)):
            # a bridge or two faces sharing two edges: no simple dual
            with pytest.raises(ParseError):
                PlaneGraph(rows)
            return
        d = PlaneGraph(rows)
        assert (d.n, d.m, d.num_faces) == (g.num_faces, g.m, g.n)
        assert sorted(d.face_lens) == sorted(g.deg)
        if g == named("icosahedron"):
            assert d == named("dodecahedron")


@pytest.mark.parametrize("g", SAMPLE_GRAPHS, ids=graph_id)
class TestParity:
    def test_trace_orbits(self, g):
        face_of, lens = reference_faces(g)
        assert list(g.face_of_dart) == face_of
        assert list(g.face_lens) == lens

    def test_two_hop(self, g):
        for v, row in enumerate(g.rotations):
            ball = set(row).union(*(g.rotations[u] for u in row)) - {v}
            assert g.n2(v) == tuple(sorted(ball))

    def test_solver(self, g):
        rows = [g.n2(v) for v in range(g.n)]
        order = _static_order(rows)
        for k, (status, nodes, colors) in SOLVER_PINS[graph_id(g)].items():
            got = solve_k_coloring(rows, order, k, 10**7)
            assert got[0] == status and got[2] == nodes
            if status == SOLVE_FOUND:
                assert hashlib.sha256(json.dumps(got[1]).encode()).hexdigest() == colors


@pytest.mark.parametrize(
    "n,seed,chi,nodes",
    [(12, 1, 7, 878), (12, 3, 7, 1778), (14, 0, 7, 4420), (14, 1, 8, 29407),
     (14, 2, 7, 8915), (14, 3, 7, 6445)],
)
def test_search_node_counts(n, seed, chi, nodes):
    """Every palette from max degree + 1 up to chi2, as chi2_exact tries
    them, costs the same number of assignments as before."""
    g = random_plane(n, seed=seed)
    rows = [g.n2(v) for v in range(g.n)]
    order = _static_order(rows)
    total = 0
    for k in range(max(g.deg) + 1, chi + 1):
        status, _, spent = solve_k_coloring(rows, order, k, 10**6)
        total += spent
        assert (status == SOLVE_FOUND) == (k == chi)
    assert total == nodes


@pytest.mark.parametrize("n", range(4, 33))
def test_search_tree_matches_reference(n):
    """Every palette from 1 to past n, under a budget that cuts some
    searches short and one that lets most finish: the same status,
    node count and coloring as the reference search."""
    for seed in (0, 1):
        g = random_plane(n, seed=seed)
        rows = [g.n2(v) for v in range(g.n)]
        order = _static_order(rows)
        for k in range(1, min(g.n, 17) + 2):
            for budget in (40, 4000):
                want = reference_solve_k_coloring(rows, order, k, budget)
                got = solve_k_coloring(rows, order, k, budget)
                assert (got[0], got[2]) == (want[0], want[2]), (seed, k, budget)
                if want[0] == SOLVE_FOUND:
                    assert got[1] == want[1], (seed, k, budget)
