"""Apply reducible configurations and unwind them into a 16-coloring.

The pipeline: detect a configuration, delete its designated vertex,
chord the gap so distance-two constraints survive, recurse, then pick
the smallest color the deleted vertex cannot see.  Every step is
re-verified on the concrete graph, never trusted from the table.

``color16`` reduces one ``WorkingGraph`` in place: each step patches
and checks only the hole, and one search of a ``MatchQueue``, resumed
with each step's reach, re-examines only the centres within reach of
it.  ``apply`` runs the same step on a copy and returns the reduced
graph rebuilt from scratch; with ``extend`` and ``is_proper_wrt`` it
is the tests' rebuild oracle, not exported.
"""

from __future__ import annotations

from typing import NamedTuple

from .configurations import _BY_ID, ConfigMatch, MatchQueue
from .conflict import Coloring, validate
from .errors import (
    AnomalyNoConfiguration,
    DegreeOverflow,
    DegreeTooHigh,
    EmbeddingBroken,
    InvalidColoring,
    NoAvailableColor,
    require_int,
)
from .exact_solver import DEFAULT_BUDGET, color_with_k
from .plane_graph import PlaneGraph, require_graph
from .working_graph import WorkingGraph

__all__ = ["ReductionTrace", "color16", "PALETTE"]

PALETTE = 16
_new = tuple.__new__  # a NamedTuple built without its __new__ frame
_COLORS = tuple(range(1, PALETTE + 1))


class ReductionTrace(NamedTuple):
    """Record of one reduction step, enough to replay or audit it."""

    step: int
    rule: str
    deleted: int
    added_edges: tuple[tuple[int, int], ...]
    v_plus_e_before: int
    v_plus_e_after: int
    observed_d2: int

    def to_json(self) -> dict:
        return {
            "step": self.step,
            "rule": self.rule,
            "deleted": self.deleted,
            "added_edges": [list(e) for e in self.added_edges],
            "v_plus_e_before": self.v_plus_e_before,
            "v_plus_e_after": self.v_plus_e_after,
            "observed_d2": self.observed_d2,
        }


def is_proper_wrt(g: PlaneGraph, h: PlaneGraph, deleted: int) -> bool:
    """Do all distance-two pairs of g (minus the deleted vertex) stay
    within distance two in h?

    Vertices above ``deleted`` shift down by one in h.
    """
    for u in range(g.n):
        if u == deleted:
            continue
        have = set(h.n2(u - (u > deleted)))
        for v in g.n2(u):
            if v > u and v != deleted and v - (v > deleted) not in have:
                return False
    return True


def _step(wg: WorkingGraph, match: ConfigMatch, step: int = -1):
    """Apply one match to the working graph in place.

    Returns the trace, numbered ``step`` and in the dense labels of the
    graph before the step; the unwinding record ``(dv, ball)``, with
    dv's distance-two ball as ``WorkingGraph.delete`` reports it; and
    the step's reach, for the ``MatchQueue`` search to be sent.  The
    reach is that ball (and, when a deleted leaf's face comes out of
    length at most 4, the distance-two ball of the leaf's neighbour,
    which holds that face, and its neighbours): the centres where a
    rule that reads only its centre's corners, ring, ring degrees, ring
    ``in2`` and d2 can change its matches.  A rule that also reads a ring vertex's corners or
    rotation can change them one step further out, so the queue puts
    the reach's neighbours back at the first such rule's rank.

    Raises:
        EmbeddingBroken: the patched graph would come out non-planar,
            disconnected, not smaller, or lose a distance-two pair.
        DegreeOverflow: a chord endpoint would pass degree 5.
    """
    rule_id, binding, _, observed = match
    rule = _BY_ID[rule_id]
    dv = binding[rule.delete]
    rot, label = wg.rotations, wg.label
    adds, added = [], []  # ``added_edges`` the graph lacks, and their labels
    for a, b in rule.add_edges:
        a, b = binding[a], binding[b]
        if b not in rot[a]:
            if a > b:
                a, b = b, a
            adds.append((a, b))
            added.append((label(a), label(b)))
    before = wg.n + wg.m
    deleted = label(dv)
    ball, reach = wg.delete(dv, adds, rule_id)
    trace = _new(
        ReductionTrace,
        (step, rule_id, deleted, tuple(added), before, wg.n + wg.m, observed),
    )
    return trace, (dv, tuple(ball)), reach


def apply(g: PlaneGraph, match: ConfigMatch) -> tuple[PlaneGraph, ReductionTrace]:
    """Delete the match's vertex, add its chords, rebuild the graph.

    Raises:
        DegreeOverflow: a chord endpoint would pass degree 5, or the
            reduced graph has a vertex above degree 5.
        EmbeddingBroken: the patched rotations come out non-planar,
            disconnected, or lose a distance-two pair.
    """
    wg = WorkingGraph(g)
    trace = _step(wg, match)[0]
    h = wg.to_plane_graph()
    if h.n > 1 and max(h.deg) > 5:
        raise DegreeOverflow(f"rule {match.rule_id}: reduced graph has degree > 5")
    return h, trace


def _least_free(colors: dict[int, int], ball, dv: int) -> int:
    # a ball holds 15 vertices at most, too few to pay for a map object
    seen = set()
    for u in ball:
        seen.add(colors[u])
    for c in _COLORS:
        if c not in seen:
            return c
    raise NoAvailableColor(
        f"vertex {dv} sees all {PALETTE} colors (d2={len(ball)})"
    )


def extend(g: PlaneGraph, trace: ReductionTrace, colors_h: dict[int, int]) -> dict:
    """Lift a coloring of the reduced graph back through one step.

    colors_h maps the reduced graph's vertices; the result maps g's,
    with the deleted vertex given the least color free in its
    distance-two ball.
    """
    dv = trace.deleted
    out: dict[int, int] = {}
    for hv, c in colors_h.items():
        out[hv + 1 if hv >= dv else hv] = c
    out[dv] = _least_free(out, g.n2(dv), dv)
    return out


def color16(
    g: PlaneGraph, budget: int = DEFAULT_BUDGET
) -> tuple[Coloring, list[ReductionTrace]]:
    """Construct a 16-color distance-two coloring of g.

    Reduces until at most 16 vertices remain, colors those trivially,
    then unwinds.  If every matched configuration fails to apply on
    some graph (which the table says cannot happen), that graph is
    colored with the exact solver under ``budget`` before giving up.

    Returns the coloring, checked with ``validate``, plus the trace
    stack, outermost step first.

    Raises:
        BadArgument: g is not a PlaneGraph, or budget is not an int.
        DegreeTooHigh: g has more than 16 vertices and a degree above 5.
        AnomalyNoConfiguration: no configuration matched and the exact
            fallback found nothing; the engine's claim failed on g.
        NoAvailableColor: a deleted vertex sees all 16 colors.
        InvalidColoring: the unwound coloring fails ``validate``.
    """
    require_graph(g)
    require_int(budget=budget)
    wg = WorkingGraph(g)
    if wg.n > PALETTE and max(wg.deg) > 5:
        raise DegreeTooHigh(f"max degree {max(wg.deg)} > 5")
    search = MatchQueue(wg).matches()
    traces: list[ReductionTrace] = []
    balls: list[tuple[int, tuple[int, ...]]] = []
    reach = None  # a step that landed sends its reach to the search
    while wg.n > PALETTE:
        try:
            match = next(search) if reach is None else search.send(reach)
        except StopIteration:
            cur = wg.to_plane_graph()
            direct = color_with_k(cur, PALETTE, budget=budget)
            if not isinstance(direct, Coloring):
                raise AnomalyNoConfiguration(
                    f"no configuration applies at n={cur.n}, m={cur.m}"
                )
            live = wg.alive()
            colors = {live[v]: c for v, c in direct.colors.items()}
            sentinel = ReductionTrace(
                step=len(traces),
                rule="anomaly-exact-fallback",
                deleted=-1,
                added_edges=(),
                v_plus_e_before=cur.n + cur.m,
                v_plus_e_after=cur.n + cur.m,
                observed_d2=-1,
            )
            return _unwind(g, traces + [sentinel], balls, colors)
        try:
            trace, record, reach = _step(wg, match, len(traces))
        except (EmbeddingBroken, DegreeOverflow):
            reach = None
            continue
        traces.append(trace)
        balls.append(record)
    # at most 16 vertices left: give everyone a distinct color
    colors = {v: i + 1 for i, v in enumerate(wg.alive())}
    return _unwind(g, traces, balls, colors)


def _unwind(
    g: PlaneGraph,
    traces: list[ReductionTrace],
    balls: list[tuple[int, tuple[int, ...]]],
    colors: dict[int, int],
) -> tuple[Coloring, list[ReductionTrace]]:
    for dv, ball in reversed(balls):
        colors[dv] = _least_free(colors, ball, dv)
    coloring = Coloring(palette=PALETTE, colors=colors)
    report = validate(g, coloring)
    if not report.valid:  # tripwire: unwinding is supposed to be safe
        raise InvalidColoring(f"constructed coloring is invalid: {report.to_json()}")
    return coloring, traces
