"""Output checks that share no code with the package under test.

Every check here works on plain python data: the rotation text of an
input graph, a ``{vertex: color}`` dict, ``(before, after, d2)`` triples
for reduction steps, and the audit's JSON dict.  Each check returns a
list of error strings; an empty list means the output passed.
"""

from __future__ import annotations

import networkx as nx
import numpy as np
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.sparse import coo_matrix

MAX_DEGREE = 5
PALETTE = 16


def parse_rotation_text(text: str) -> list[list[int]]:
    """Rotations from the ``n m`` header plus ``v: u1 u2 ...`` lines."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    n, m = (int(t) for t in lines[0].split())
    rots: list[list[int]] = [[] for _ in range(n)]
    for ln in lines[1:]:
        left, right = ln.split(":", 1)
        rots[int(left)] = [int(t) for t in right.split()]
    if len(lines) != n + 1 or sum(map(len, rots)) != 2 * m:
        raise ValueError(f"rotation text does not match its header {n} {m}")
    return rots


def check_input(rots: list[list[int]]) -> list[str]:
    """Simple, symmetric, connected, planar, maximum degree at most 5."""
    errors = []
    n = len(rots)
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for v, row in enumerate(rots):
        if len(set(row)) != len(row) or v in row:
            errors.append(f"vertex {v}: loop or repeated neighbour")
        if len(row) > MAX_DEGREE:
            errors.append(f"vertex {v}: degree {len(row)} > {MAX_DEGREE}")
        for u in row:
            if not 0 <= u < n or v not in rots[u]:
                errors.append(f"edge {v}-{u} is not listed at both ends")
            else:
                g.add_edge(v, u)
    if not nx.is_connected(g):
        errors.append("graph is disconnected")
    if not nx.check_planarity(g)[0]:
        errors.append("graph is not planar")
    return errors


def closed_neighbourhoods(rots: list[list[int]]) -> list[list[int]]:
    """N[w] for every w; each is a clique of the square graph, and
    together they cover every pair at distance at most two."""
    return [[w, *row] for w, row in enumerate(rots)]


def check_coloring(
    rots: list[list[int]], colors: dict, palette: int = PALETTE
) -> list[str]:
    """Every vertex colored in 1..palette, no two at distance <= 2 alike."""
    n = len(rots)
    errors = []
    if set(colors) != set(range(n)):
        errors.append(f"colored vertex set differs from 0..{n - 1}")
        return errors
    for v, c in colors.items():
        if not (isinstance(c, int) and 1 <= c <= palette):
            errors.append(f"vertex {v}: color {c!r} outside 1..{palette}")
    for ball in closed_neighbourhoods(rots):
        seen: dict[int, int] = {}
        for v in ball:
            c = colors[v]
            if c in seen:
                errors.append(f"vertices {seen[c]} and {v} both have color {c}")
            seen[c] = v
    return errors


def check_steps(n: int, m: int, steps) -> list[str]:
    """Reduction steps as ``(v_plus_e_before, v_plus_e_after, observed_d2)``.

    Each step strictly shrinks n+m, starts where the previous one ended
    (the first at the input's n+m), and deletes a vertex that sees at
    most 15 others, so a 16th color is always free when unwinding.
    """
    errors = []
    expect = n + m
    for i, (before, after, d2) in enumerate(steps):
        if before != expect:
            errors.append(f"step {i}: starts at n+m={before}, expected {expect}")
        if not after < before:
            errors.append(f"step {i}: n+m {before} -> {after} does not shrink")
        if not 0 <= d2 <= PALETTE - 1:
            errors.append(f"step {i}: deleted vertex sees {d2} others")
        expect = after
    return errors


def check_audit(aud: dict) -> list[str]:
    errors = []
    if aud.get("conservation") != "-8":
        errors.append(f"charge total {aud.get('conservation')!r}, expected -8")
    if aud.get("configuration") is None:
        errors.append("audit found no reducible configuration")
    if aud.get("falsification") is not False:
        errors.append("audit reports a falsification")
    return errors


def _greedy_colors(rots: list[list[int]]) -> int:
    # largest-first greedy on the square graph: an upper bound for the MILP
    n = len(rots)
    ball = [set() for _ in range(n)]
    for clique in closed_neighbourhoods(rots):
        for v in clique:
            ball[v].update(clique)
    color = [0] * n
    for v in sorted(range(n), key=lambda v: (-len(ball[v]), v)):
        used = {color[u] for u in ball[v]}
        color[v] = min(c for c in range(1, n + 2) if c not in used)
    return max(color)


def chi2_milp(rots: list[list[int]]) -> int:
    """Distance-two chromatic number as a 0/1 program solved by HiGHS.

    x[v, c] puts color c on v, y[c] marks color c as used.  Each closed
    neighbourhood may hold color c at most once, and only if y[c] is set.
    The colors of the densest closed neighbourhood are fixed and the y
    are ordered, which removes the palette's permutation symmetry.
    """
    n = len(rots)
    k = _greedy_colors(rots)
    nx_, ny = n * k, k

    def x(v: int, c: int) -> int:
        return v * k + c

    rows: list[list[tuple[int, int]]] = []  # (column, coefficient) per row
    lo: list[float] = []
    hi: list[float] = []
    for v in range(n):  # one color per vertex
        rows.append([(x(v, c), 1) for c in range(k)])
        lo.append(1)
        hi.append(1)
    for clique in closed_neighbourhoods(rots):
        for c in range(k):
            rows.append([(x(v, c), 1) for v in clique] + [(nx_ + c, -1)])
            lo.append(-np.inf)
            hi.append(0)
    for c in range(k - 1):  # used colors come first
        rows.append([(nx_ + c, 1), (nx_ + c + 1, -1)])
        lo.append(0)
        hi.append(np.inf)
    r_idx = [r for r, row in enumerate(rows) for _ in row]
    c_idx = [col for row in rows for col, _ in row]
    vals = [coef for row in rows for _, coef in row]
    a = coo_matrix((vals, (r_idx, c_idx)), shape=(len(rows), nx_ + ny)).tocsr()

    lb = np.zeros(nx_ + ny)
    ub = np.ones(nx_ + ny)
    anchor = max(range(n), key=lambda w: (len(rots[w]), -w))
    for c, v in enumerate([anchor, *rots[anchor]]):
        lb[x(v, c)] = 1
    cost = np.concatenate([np.zeros(nx_), np.ones(ny)])
    res = milp(
        cost,
        constraints=LinearConstraint(a, lo, hi),
        integrality=np.ones(nx_ + ny),
        bounds=Bounds(lb, ub),
    )
    if res.status != 0:
        raise RuntimeError(f"MILP did not reach optimality: {res.message}")
    return int(round(res.fun))
