"""Named test graphs and a seeded random plane-graph generator.

All named graphs are hand-pinned rotation systems.  The five ``fig*``
graphs are icosahedron surgeries: deleting a few edges opens larger
faces around a chosen vertex so that it lands in one of the special
degree-5 classes.

``random_plane`` grows a random triangulation by repeated in-face vertex
insertion, then deletes edges at vertices of degree 6+ until the degree
bound 5 holds, and keeps the largest component.  Same (n, seed) gives a
byte-identical graph.
"""

from __future__ import annotations

import random
from functools import partial
from typing import Callable

from .errors import GenerationFailed, UnknownName, require_int
from .plane_graph import PlaneGraph

__all__ = [
    "NAMED_GRAPHS",
    "DESIGNATED_VERTEX",
    "named",
    "random_plane",
]


# ======================================================================
# fixed rotation tables
# ======================================================================


def _cycle(n: int) -> list[list[int]]:
    return [[(i + 1) % n, (i - 1) % n] for i in range(n)]


def _prism(k: int) -> list[list[int]]:
    # outer ring 0..k-1 clockwise, inner ring k..2k-1, spokes i -- i+k
    rots: list[list[int]] = []
    for i in range(k):
        rots.append([(i + 1) % k, i + k, (i - 1) % k])
    for i in range(k):
        rots.append([k + (i + 1) % k, k + (i - 1) % k, i])
    return rots


def _icosahedron() -> list[list[int]]:
    # north pole 0, upper ring 1..5, lower ring 6..10, south pole 11
    rots: list[list[int]] = [[1, 2, 3, 4, 5]]
    for j in range(5):
        prev_u = 1 + (j - 1) % 5
        next_u = 1 + (j + 1) % 5
        rots.append([0, prev_u, 6 + (j - 1) % 5, 6 + j, next_u])
    for k in range(5):
        prev_l = 6 + (k - 1) % 5
        next_l = 6 + (k + 1) % 5
        rots.append([11, next_l, 1 + (k + 1) % 5, 1 + k, prev_l])
    # the south pole winds against the north pole
    rots.append([10, 9, 8, 7, 6])
    return rots


# the dual of the icosahedron: vertex f is face f of _icosahedron(), with
# faces numbered in the order of their least dart
_DODECAHEDRON = [
    [1, 5, 4], [2, 7, 0], [3, 9, 1], [4, 11, 2], [0, 13, 3],
    [6, 14, 0], [7, 15, 5], [1, 8, 6], [9, 16, 7], [2, 10, 8],
    [11, 17, 9], [3, 12, 10], [13, 18, 11], [4, 14, 12], [5, 19, 13],
    [16, 19, 6], [8, 17, 15], [10, 18, 16], [12, 19, 17], [14, 15, 18],
]


def _icosahedron_without(edges) -> list[list[int]]:
    out = _icosahedron()
    for u, v in edges:
        out[u].remove(v)
        out[v].remove(u)
    return out


# fig1a/fig1b: vertex 0 keeps four triangle corners, the fifth corner
# becomes a 4-face (one deleted edge) or a 5-face (two deleted edges).
# fig2a/2b/2c: vertex 4 keeps two or three triangle corners around the
# doctored vertex 0 and the remaining corners are opened as needed.
_FIG_SURGERY: dict[str, list[tuple[int, int]]] = {
    "fig1a": [(1, 2)],
    "fig1b": [(1, 2), (1, 6)],
    "fig2a": [(1, 2), (3, 8), (9, 5), (5, 10)],
    "fig2b": [(1, 2), (1, 6), (8, 9), (9, 5)],
    "fig2c": [(1, 2), (3, 8), (8, 9), (9, 5)],
}

# Vertex whose classification each fig graph exhibits.
DESIGNATED_VERTEX: dict[str, int] = {
    "fig1a": 0,
    "fig1b": 0,
    "fig2a": 4,
    "fig2b": 4,
    "fig2c": 4,
}


# name -> builder of its rotations, called only when the graph is asked for
_BUILDERS: dict[str, Callable[[], list[list[int]]]] = {
    "k1": lambda: [[]],
    "k2": lambda: [[1], [0]],
    "k4": lambda: [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 2, 1]],
    "c5": lambda: _cycle(5),
    "c6": lambda: _cycle(6),
    "cube": lambda: _prism(4),
    "dodecahedron": lambda: _DODECAHEDRON,
    "icosahedron": _icosahedron,
    "pentagonal_prism": lambda: _prism(5),
    "star5": lambda: [[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]],
    **{
        name: partial(_icosahedron_without, edges)
        for name, edges in _FIG_SURGERY.items()
    },
}

# the CLI's --name choices, the batch corpus and the pinned outputs
# follow this order
NAMED_GRAPHS: tuple[str, ...] = tuple(_BUILDERS)


def named(name: str) -> PlaneGraph:
    """Build a named graph.

    Raises:
        UnknownName: name not in NAMED_GRAPHS.
    """
    try:
        build = _BUILDERS[name]
    except (KeyError, TypeError):  # TypeError: an unhashable name
        raise UnknownName(f"no graph named {name!r}") from None
    return PlaneGraph(build())


# ======================================================================
# random generation
# ======================================================================


def _grow_triangulation(n: int, rng: random.Random):
    rots: list[list[int]] = [[1, 2], [2, 0], [0, 1]]
    faces: list[tuple[int, int, int]] = [(0, 1, 2), (0, 2, 1)]
    while len(rots) < n:
        fi = rng.randrange(len(faces))
        a, b, c = faces[fi]
        w = len(rots)
        # w sits inside (a,b,c); splitting keeps everything triangular
        rots[a].insert(rots[a].index(c) + 1, w)
        rots[b].insert(rots[b].index(a) + 1, w)
        rots[c].insert(rots[c].index(b) + 1, w)
        rots.append([a, c, b])
        faces[fi] = (a, b, w)
        faces.append((b, c, w))
        faces.append((c, a, w))
    return rots


def _trim_to_degree_five(rots: list[list[int]]) -> None:
    # degrees only fall, so once the pass is past a vertex no vertex
    # before it reaches degree 6 again: edges go in least-id-first order.
    # v drops edges toward its heaviest neighbour, smallest id on ties,
    # one at a time; a drop changes only the degrees of v and of the
    # neighbour, which then leaves the row, so one sort gives them all
    for v, row in enumerate(rots):
        if len(row) >= 6:
            for u in sorted(row, key=lambda t: (-len(rots[t]), t))[: len(row) - 5]:
                row.remove(u)
                rots[u].remove(v)


def _largest_component(rots: list[list[int]]):
    n = len(rots)
    comp = [-1] * n
    sizes: list[int] = []
    for s in range(n):
        if comp[s] >= 0:
            continue
        c = len(sizes)
        comp[s] = c
        stack = [s]
        size = 1
        while stack:
            for y in rots[stack.pop()]:
                if comp[y] < 0:
                    comp[y] = c
                    stack.append(y)
                    size += 1
        sizes.append(size)
    # the largest component, the one found first on ties
    best = sizes.index(max(sizes))
    keep = [v for v in range(n) if comp[v] == best]
    remap = [0] * n
    for new, old in enumerate(keep):
        remap[old] = new
    return [[remap[u] for u in rots[old]] for old in keep]


def random_plane(n: int, seed: int) -> PlaneGraph:
    """Random connected simple plane graph with max degree <= 5.

    The result has between n/2 and n vertices.  Deterministic in
    (n, seed), byte-identical across runs.

    An attempt grows a triangulation on n vertices, trims it to degree
    5 and keeps its largest component; only the kept attempt builds a
    ``PlaneGraph``.  On a 2-core VM (Python 3.11), attempt 0 of seed 1
    at n = 20000 takes about 0.1 s to grow, 0.06 s to trim and 0.05 s
    to keep the component, and the build of its 12,447 vertices 0.15 s.
    At n = 80000 the stages take about 0.6, 0.3, 0.3 and 1.0 s, and
    ``random_plane(80000, 1)`` rejects 35 attempts and keeps 51,838
    vertices in the 36th, about 60 s in all.

    Raises:
        BadArgument: n or seed is not an int.
        GenerationFailed: n < 1 or n > 2**18, at once, or none of 64
            attempts keeps n/2 vertices.  Trimming to degree 5 splits
            the triangulation and only its largest component is kept,
            whose share of n falls as n grows: over attempts 0-2 of seed
            1 it was 0.51-0.91 at n = 5000 and 0.12-0.17 at n = 160000,
            and ``random_plane(160000, 1)`` raises.  At n = 2**18 it was
            0.19-0.22, 0.13-0.28 and 0.15-0.18 over attempts 0-2 of
            seeds 0, 1 and 2, at about 5 s an attempt.
    """
    require_int(n=n, seed=seed)
    if not 1 <= n <= 2**18:  # above, no attempt measured kept n/2
        raise GenerationFailed(f"need 1 <= n <= {2**18}, got {n}")
    if n == 1:
        return PlaneGraph([[]])
    if n == 2:
        return PlaneGraph([[1], [0]])
    for attempt in range(64):
        rng = random.Random(f"{seed}:{attempt}")
        rots = _grow_triangulation(n, rng)
        _trim_to_degree_five(rots)
        kept = _largest_component(rots)
        if 2 * len(kept) >= n:
            return PlaneGraph(kept)
    raise GenerationFailed(f"no admissible graph for n={n} seed={seed}")
