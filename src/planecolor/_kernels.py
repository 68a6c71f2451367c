"""The exact k-coloring search over conflict rows.

``rows[v]`` lists the neighbours of v in the conflict graph, without v
and without repeats.  For the distance-two problem that is
``PlaneGraph.n2(v)``.

Static variable order, ascending colors, first vertex pinned to the
first color, forward checking with bitmask domains.  In a static order
the neighbours still uncolored at depth d are those deeper in the
order, so each depth forward-checks a list built once per call, and a
node's work is proportional to its vertex's degree in the conflict
graph.  The budget counts assignments; passing it yields SOLVE_UNKNOWN.
"""

from __future__ import annotations

__all__ = [
    "solve_k_coloring",
    "SOLVE_FOUND",
    "SOLVE_INFEASIBLE",
    "SOLVE_UNKNOWN",
]

SOLVE_FOUND = 1
SOLVE_INFEASIBLE = 0
SOLVE_UNKNOWN = -1


def solve_k_coloring(rows, order, k: int, budget: int):
    """Backtracking k-coloring over conflict rows, one per vertex.

    Returns (status, colors, nodes); colors are 0-based and only
    meaningful when status == SOLVE_FOUND.
    """
    n = len(rows)
    if n == 0:
        return SOLVE_FOUND, [], 0
    if k <= 0:
        return SOLVE_INFEASIBLE, [-1] * n, 0
    depth_of = [0] * n
    for d, v in enumerate(order):
        depth_of[v] = d
    fwd = [[u for u in rows[v] if depth_of[u] > d] for d, v in enumerate(order)]
    # with k >= n no domain can empty and the lowest free color is
    # below n, so colors past n change neither the tree nor the result
    domain = [(1 << min(k, n)) - 1] * n
    left = [0] * n  # per depth: the free colors not yet tried
    left[0] = 1  # pin the root color
    bit = [0] * n  # per depth: the color placed
    trail = [None] * n  # per depth: the vertices that color was removed from
    nodes = 0
    depth = 0
    while True:
        free = left[depth]
        f = fwd[depth]
        while free:
            b = free & -free
            free ^= b
            nodes += 1
            if nodes > budget:
                return SOLVE_UNKNOWN, [-1] * n, nodes
            hit = []
            for u in f:
                x = domain[u]
                if x & b:
                    if x == b:  # wipeout: undo this attempt, try the next color
                        for w in hit:
                            domain[w] |= b
                        break
                    domain[u] = x ^ b
                    hit.append(u)
            else:
                left[depth] = free
                bit[depth] = b
                trail[depth] = hit
                depth += 1
                if depth == n:
                    colors = [0] * n
                    for d, v in enumerate(order):
                        colors[v] = bit[d].bit_length() - 1
                    return SOLVE_FOUND, colors, nodes
                left[depth] = domain[order[depth]]
                break
        else:
            # no color fits at this depth: backtrack
            depth -= 1
            if depth < 0:
                return SOLVE_INFEASIBLE, [-1] * n, nodes
            b = bit[depth]
            for u in trail[depth]:
                domain[u] |= b
