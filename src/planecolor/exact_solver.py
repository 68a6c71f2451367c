"""Exact distance-two coloring by backtracking search.

The search runs on the conflict graph (vertices at distance <= 2 are
adjacent, so v's row is ``PlaneGraph.n2(v)``), with a static variable
order, ascending color choice, the first vertex pinned to color 1, and
forward checking of the vertices deeper in the order
(``_kernels.solve_k_coloring``).  A node budget caps the number of
assignments tried; passing it returns UNKNOWN rather than a wrong
answer.  A palette larger than the graph is searched as n colors, which
visits the same nodes and finds the same coloring.
"""

from __future__ import annotations

from . import _kernels
from .conflict import Coloring, validate
from .errors import require_int
from .plane_graph import PlaneGraph, require_graph

__all__ = [
    "INFEASIBLE",
    "UNKNOWN",
    "DEFAULT_BUDGET",
    "color_with_k",
    "chi2_exact",
]

DEFAULT_BUDGET = 10_000_000


class _Sentinel:
    __slots__ = ("name",)

    def __init__(self, name: str) -> None:
        self.name = name

    def __repr__(self) -> str:
        return self.name


INFEASIBLE = _Sentinel("INFEASIBLE")
UNKNOWN = _Sentinel("UNKNOWN")


def _static_order(rows) -> list[int]:
    # most constrained first: descending d2, ties by ascending id
    return sorted(range(len(rows)), key=lambda v: (-len(rows[v]), v))


def color_with_k(g: PlaneGraph, k: int, budget: int = DEFAULT_BUDGET):
    """Search for a distance-two coloring with exactly k colors allowed.

    Returns:
        A valid Coloring on success, INFEASIBLE when the search space
        is exhausted, UNKNOWN when the node budget runs out first.

    Raises:
        BadArgument: g is not a PlaneGraph, or k or budget is not an int.
    """
    require_graph(g)
    require_int(k=k, budget=budget)
    rows = [g.n2(v) for v in range(g.n)]
    status, colors, _nodes = _kernels.solve_k_coloring(
        rows, _static_order(rows), k, budget
    )
    if status == _kernels.SOLVE_INFEASIBLE:
        return INFEASIBLE
    if status == _kernels.SOLVE_UNKNOWN:
        return UNKNOWN
    out = Coloring(palette=k, colors={v: colors[v] + 1 for v in range(g.n)})
    report = validate(g, out)
    if not report.valid:  # kernel bug tripwire, not a normal outcome
        raise AssertionError(f"solver produced an invalid coloring: {report}")
    return out


def chi2_exact(g: PlaneGraph, budget: int = DEFAULT_BUDGET):
    """Smallest palette size admitting a distance-two coloring.

    Tries k = max-degree + 1 upward; k = n always succeeds, so the loop
    terminates.  Returns UNKNOWN if any attempt exhausts the budget
    before a feasible k is found.

    Raises:
        BadArgument: g is not a PlaneGraph, or budget is not an int.
    """
    require_graph(g)
    require_int(budget=budget)
    if g.n == 1:
        return 1
    lo = max(g.deg) + 1
    for k in range(lo, g.n + 1):
        res = color_with_k(g, k, budget)
        if res is UNKNOWN:
            return UNKNOWN
        if res is not INFEASIBLE:
            return k
    return g.n  # unreachable: k = n is always feasible
