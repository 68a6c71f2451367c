"""The exact k-coloring search over conflict rows.

``rows[v]`` lists the neighbours of v in the conflict graph.  For the
distance-two problem that is ``PlaneGraph.n2(v)``.

Static variable order, ascending colors, first vertex pinned to the
first color, forward checking with bitmask domains.  The budget counts
assignments; hitting it yields SOLVE_UNKNOWN.
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
