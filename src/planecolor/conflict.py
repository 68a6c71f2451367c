"""Colorings and distance-two conflict checking.

A coloring maps vertex -> color (1-based) and carries the palette size
it claims to fit in.  Two vertices conflict when they share a color at
graph distance <= 2.  The report lists every violating pair, so a valid
report means there is literally nothing left to flag.
"""

from __future__ import annotations

import json
from itertools import combinations
from typing import NamedTuple

from .errors import BadArgument, ParseError, require_int
from .plane_graph import PlaneGraph, require_graph

__all__ = ["Coloring", "ConflictReport", "conflict_sets", "validate"]


class Coloring(NamedTuple):
    """Partial vertex coloring with a declared palette size."""

    palette: int
    colors: dict[int, int]

    def to_json(self) -> dict:
        return {
            "palette": self.palette,
            "colors": {str(v): self.colors[v] for v in sorted(self.colors)},
        }

    @classmethod
    def from_json(cls, obj) -> "Coloring":
        try:
            if isinstance(obj, (str, bytes)):
                obj = json.loads(obj)
            palette, colors = obj["palette"], obj["colors"]
            out = {int(k): c for k, c in colors.items()}
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad coloring JSON: {exc}") from exc
        # nothing is coerced: keys are vertex ids as to_json writes them,
        # values are ints, and a bool is not an int here
        if list(map(str, out)) != list(colors) or not all(
            type(c) is int for c in (palette, *out.values())
        ):
            raise ParseError("bad coloring JSON: a key or value is not an integer")
        if min(out, default=0) < 0:
            raise ParseError(f"bad coloring JSON: negative vertex id {min(out)}")
        return cls(palette=palette, colors=out)


class ConflictReport(NamedTuple):
    """Outcome of validating a coloring against a graph.

    valid is True exactly when violations, uncolored and not_in_graph
    are all empty.  not_in_graph lists the colored ids outside 0..n-1.
    over_palette lists colored vertices whose color falls outside
    1..palette; it does not affect validity but callers that promised a
    palette should treat it as failure.
    """

    valid: bool
    violations: tuple[tuple[int, int, int], ...]
    uncolored: tuple[int, ...]
    over_palette: tuple[tuple[int, int], ...]
    not_in_graph: tuple[int, ...]

    def to_json(self) -> dict:
        return {
            "valid": self.valid,
            "violations": [list(t) for t in self.violations],
            "uncolored": list(self.uncolored),
            "over_palette": [list(t) for t in self.over_palette],
            "not_in_graph": list(self.not_in_graph),
        }


def conflict_sets(g: PlaneGraph, coloring: Coloring) -> list[tuple[int, int, int]]:
    """All pairs u < v at distance <= 2 wearing the same color.

    The list is exhaustive and sorted; each unordered pair appears once.
    Two vertices are within distance two exactly when some closed
    neighbourhood N[x] holds both, so a violation is a repeated color in
    some N[x].

    Raises:
        BadArgument: g is not a PlaneGraph, coloring not a ``Coloring``
            whose colors are a dict, or the palette, a vertex id or a
            color not an int; a bool is not an int here.
    """
    require_graph(g)
    if not isinstance(coloring, Coloring):
        raise BadArgument(f"coloring must be a Coloring, not {type(coloring).__name__}")
    colors = coloring.colors
    require_int(palette=coloring.palette)
    if not isinstance(colors, dict):
        raise BadArgument(f"colors must be a dict, not {type(colors).__name__}")
    if not {*map(type, colors), *map(type, colors.values())} <= {int}:
        v, c = next(
            (v, c) for v, c in colors.items() if type(v) is not int or type(c) is not int
        )
        raise BadArgument(f"vertex {v!r} and its color {c!r} must both be ints")
    get = colors.get
    out: set[tuple[int, int, int]] = set()
    for x, row in enumerate(g.rotations):
        # no repeat in N[x], counting uncolored as None: nothing here
        if len({get(x), *map(get, row)}) > len(row):
            continue
        ball = sorted(u for u in (x, *row) if u in colors)
        for u, v in combinations(ball, 2):
            if colors[u] == colors[v]:
                out.add((u, v, colors[u]))
    return sorted(out)


def validate(g: PlaneGraph, coloring: Coloring) -> ConflictReport:
    """Full conflict report for a coloring.

    Raises:
        BadArgument: as ``conflict_sets``, which checks the arguments.
    """
    violations = tuple(conflict_sets(g, coloring))
    colors, palette = coloring.colors, coloring.palette
    uncolored = tuple(v for v in range(g.n) if v not in colors)
    # every id of the graph that is not uncolored is colored, so any
    # further key is an id the graph does not have
    extra = ()
    if len(colors) != g.n - len(uncolored):
        extra = tuple(sorted(v for v in colors if not 0 <= v < g.n))
    over = tuple(sorted((v, c) for v, c in colors.items() if not 1 <= c <= palette))
    return ConflictReport(
        valid=not violations and not uncolored and not extra,
        violations=violations,
        uncolored=uncolored,
        over_palette=over,
        not_in_graph=extra,
    )
