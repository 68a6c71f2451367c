"""Reducible configurations and the special-vertex taxonomy.

A configuration is a local pattern around a low-degree or degree-5
vertex, together with a recipe: delete one vertex, add a few chords
among its former neighbours, and the deleted vertex will see at most
``claimed_d2_bound`` distinct vertices within distance two, so a color
is always left over when 16 are available.

Patterns are matched against *frames*: a frame is one neighbour
labeling, the ring tuple w = (w0..w(d-1)), of a candidate vertex, taken
from the stored rotation at every offset and in both directions, so
each written pattern covers all rotations and reflections of the drawn
shape.  Corner i of a frame is the face between w_i and w_(i+1).  The
centre's corner lengths tell which frames show a rule's corners, and
each ring is built when the loop reaches it.

The corners a frame must show are data: ``ReductionRule.corners`` is
the set of corner-length tuples, lengths capped at 5 so that 5 reads
"5 or more".  The table writes each set as a pattern with one letter
per corner: ``3``, ``4`` or ``5`` for that length, ``x`` for not a
triangle (4 or 5), ``s`` for at most 4 (3 or 4) and ``*`` for any,
with ``|`` between alternatives.  So ``"33xxx"`` is a 5-vertex with
triangles in corners 0 and 1 only, and ``"3353x|33435"`` adds a third
triangle at corner 3 and a 5+-face at corner 2 or 4.  A rule's
predicate reads only what corners cannot say: ring degrees, ``in2``
and ``bad_kind``.  The degree-5 classes (quad, strong, good, support)
are each one pattern and one neighbour test, shared by their rules and
``classify_special``.

The table is a menu, not an oracle: every match is re-verified at
application time (structure preserved, degree cap, distance-two pairs
kept, observed d2 within the claimed bound), so a wrong table entry
surfaces as a loud error instead of a bad coloring.
"""

from __future__ import annotations

import heapq
from itertools import product
from typing import Callable, Generator, Iterable, Iterator, NamedTuple, Optional

from .errors import DegreeTooHigh
from .plane_graph import PlaneGraph, require_graph

__all__ = [
    "ReductionRule",
    "ConfigMatch",
    "SpecialClass",
    "rule_table",
    "detect",
    "iter_matches",
    "classify_special",
    "SPECIAL_KINDS",
]

SPECIAL_KINDS = ("bad", "semi-bad", "strong", "good", "support")

_ROLE_ORDER = ("v", "v1", "v2", "v3", "v4", "v5", "x", "y")
_FRAME_ROLES = ("v", "v1", "v2", "v3", "v4", "v5")  # the centre, then w0..w4


class ReductionRule(NamedTuple):
    """One reducible configuration.

    Attributes:
        id: stable rule name.
        pattern: prose description of the matched shape.
        delete: role of the vertex the reduction removes.
        add_edges: role pairs to chord (skipped when already present).
        claimed_d2_bound: ceiling on d2 of the deleted vertex.
        family: "degree" for any centre of that degree, else the class
            of 5-vertex the centre must be: quad, strong, good, support.
        degree: degree of the centre vertex.
        corners: the corner-length tuples, capped at 5, that a frame of
            the centre must show; the table writes them as a pattern
            (module docstring).  A 1-vertex's frame has no corner, so
            its rules have ``{()}``.
        pred: what else the frame must show (ring degrees, ``in2``,
            ``bad_kind``), or None.
        bind: the bindings of an accepted frame, for the rules that
            delete a ring vertex; None binds v and v1..v5 to the frame.
    """

    id: str
    pattern: str
    delete: str
    add_edges: tuple[tuple[str, str], ...]
    claimed_d2_bound: int
    family: str
    degree: int
    corners: frozenset[tuple[int, ...]]
    pred: Optional[Callable] = None
    bind: Optional[Callable] = None


class ConfigMatch(NamedTuple):
    """A rule bound to concrete vertices."""

    rule_id: str
    binding: dict[str, int]
    claimed_bound: int
    observed_d2: int

    @property
    def deleted(self) -> int:
        rule = _BY_ID[self.rule_id]
        return self.binding[rule.delete]

    def added_edges(self) -> list[tuple[int, int]]:
        rule = _BY_ID[self.rule_id]
        out = []
        for a, b in rule.add_edges:
            u, v = self.binding[a], self.binding[b]
            out.append((u, v) if u < v else (v, u))
        return out

    def to_json(self) -> dict:
        return {
            "rule": self.rule_id,
            "binding": {
                r: self.binding[r] for r in _ROLE_ORDER if r in self.binding
            },
            "claimed_bound": self.claimed_bound,
            "observed_d2": self.observed_d2,
        }


class SpecialClass(NamedTuple):
    """Classification of a degree-5 vertex, with its witness ring."""

    kind: str
    center: int
    ring: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "center": self.center, "ring": list(self.ring)}


# ======================================================================
# frames
# ======================================================================


def _frame_corners(cl: tuple) -> list[tuple]:
    """The corner lengths of each frame of a vertex with corners ``cl``,
    in frame order: forward from each offset o, then, from degree 3 on,
    reversed, with corner i = cl[o - i - 1]."""
    d = len(cl)
    if d == 1:
        return [()]
    out = [cl[o:] + cl[:o] for o in range(d)]
    if d > 2:  # reversed labelings coincide with forward ones below 3
        out += [cl[o - 1 :: -1] + cl[: o - 1 : -1] for o in range(d)]
    return out


# a rule's or class's corners -> a centre's corner lengths -> the indices
# of its frames that show them; filled on demand, one entry per corner
# set of the table, each keyed by 364 tuples at most
_SHOWN: dict[frozenset, dict[tuple, tuple]] = {}


class _Ctx:
    """The one object predicates read: a graph and its degree list.
    It keeps nothing of its own (``deg`` is the graph's list, which a
    ``WorkingGraph`` updates in place), so one context serves a graph
    across all its steps."""

    __slots__ = ("g", "deg")

    def __init__(self, g):
        # g is a PlaneGraph or a WorkingGraph, asked only what both answer:
        # deg, rotations, corner_lens, has_edge, d2 and, for in2 alone,
        # edge_in_two_triangles
        self.g = g
        self.deg = g.deg

    def shown(self, v: int, corners) -> tuple[int, ...]:
        """The indices of v's frames whose corner lengths lie in
        ``corners``, in frame order; v's corner lengths say which they
        are."""
        cl = self.g.corner_lens(v)
        table = _SHOWN.get(corners)
        if table is None:
            table = _SHOWN[corners] = {}
        ks = table.get(cl)
        if ks is None:
            ks = table[cl] = tuple(
                k for k, c in enumerate(_frame_corners(cl)) if c in corners
            )
        return ks

    def frame(self, v: int, k: int) -> tuple[int, ...]:
        """Frame k of v, as its ring: frame k < d runs forward from
        rot[k], frame d + o backward from rot[o]."""
        rot = self.g.rotations[v]
        d = len(rot)
        w = rot[k:] + rot[:k] if k < d else rot[k - d :: -1] + rot[: k - d : -1]
        return tuple(w)

    def showing(self, v: int, corners) -> list[tuple[int, ...]]:
        """The frames of v whose corner lengths lie in ``corners``, in
        frame order."""
        return [self.frame(v, k) for k in self.shown(v, corners)]

    def in2(self, a: int, b: int) -> bool:
        """Edge ab exists and lies in two distinct 3-faces."""
        return self.g.has_edge(a, b) and self.g.edge_in_two_triangles(a, b)

    def bad_kind(self, v: int) -> Optional[str]:
        """"bad", "semi-bad", or None: the shape of v's quad frames.

        A 5-vertex has a quad frame exactly when four of its corners are
        triangles, and every such frame ends on the fifth corner.
        """
        if self.deg[v] == 5:
            cl = self.g.corner_lens(v)
            if cl.count(3) == 4:
                return "bad" if 4 in cl else "semi-bad"
        return None


# ======================================================================
# corner patterns and the degree-5 classes
# ======================================================================

_LETTERS = {"3": (3,), "4": (4,), "5": (5,), "x": (4, 5), "s": (3, 4), "*": (3, 4, 5)}


def _corners(pattern: str) -> frozenset[tuple[int, ...]]:
    """The corner tuples a pattern stands for (module docstring)."""
    return frozenset(
        c
        for alt in pattern.split("|")
        for c in product(*(_LETTERS[ch] for ch in alt))
    )


def _bad_middle(ctx, w):
    return ctx.bad_kind(w[1]) is not None


def _good_middle(ctx, w):
    return (
        ctx.bad_kind(w[1]) == "semi-bad"
        and ctx.in2(w[0], w[1])
        and ctx.in2(w[1], w[2])
    )


# class: (corners of its frames, test on the triangle pair's middle w1);
# classify_special tries strong, good and support in this order
_FAMILIES: dict[str, tuple[frozenset, Optional[Callable]]] = {
    # four triangles; the fifth corner is 4 (bad) or 5+ (semi-bad)
    "quad": (_corners("3333x"), None),
    # triangle pair at corners 0, 1, lone triangle at 3, a 5+ corner
    "strong": (_corners("3353x|33435"), _bad_middle),
    # three triangles in a row; w1 semi-bad, both its chords doubled
    "good": (_corners("333xx"), _good_middle),
    # the triangle pair alone
    "support": (_corners("33xxx"), _bad_middle),
}


def classify_special(g: PlaneGraph, v: int):
    """Classify a vertex into the degree-5 taxonomy.

    Returns a SpecialClass ("bad", "semi-bad", "strong", "good",
    "support") with the witness ring w0..w4, or None.  The classes are
    mutually exclusive, so the check order only settles ties that
    cannot occur.

    Raises:
        BadArgument: g is not a PlaneGraph.
        UnknownVertex: v is not a vertex of g.
    """
    require_graph(g)
    if g.degree(v) != 5:
        return None
    return _classify(_Ctx(g), v)


def _classify(ctx: _Ctx, v: int):
    """``classify_special`` of a 5-vertex v of the context's graph."""
    cl = ctx.g.corner_lens(v)
    rot = ctx.g.rotations[v]
    if cl.count(3) == 4:
        # bad or semi-bad: the first quad frame in frame order starts
        # after the one corner that is not a triangle
        j = cl.index(max(cl))
        return SpecialClass(ctx.bad_kind(v), v, (rot * 2)[j + 1 : j + 6])
    # a shortcut past v's frames: every other class's frames open on a
    # triangle pair whose middle w1 is bad or semi-bad, where the
    # neighbour between corners i - 1 and i is rot[i]
    if not any(
        cl[i - 1] == 3 and cl[i] == 3 and ctx.bad_kind(u) is not None
        for i, u in enumerate(rot)
    ):
        return None
    for kind in ("strong", "good", "support"):
        corners, test = _FAMILIES[kind]
        for w in ctx.showing(v, corners):
            if test(ctx, w):
                return SpecialClass(kind, v, w)
    return None


# ======================================================================
# rule predicates
# ======================================================================
#
# Predicates receive (ctx, w), the ring w of a frame of the candidate
# centre that already shows the rule's corners.  They must only read
# structure; every consequence they promise is re-checked downstream.


def _d(ctx, w, i):
    return ctx.deg[w[i]]


def _n3(ctx, w):
    return sum(1 for u in w if ctx.deg[u] == 3)


def _n4(ctx, w):
    return sum(1 for u in w if ctx.deg[u] == 4)


def _in2c(ctx, w, i):
    # chord of corner i, between w_i and w_(i+1)
    return ctx.in2(w[i], w[(i + 1) % len(w)])


def _p_3adj4(ctx, w):
    return _d(ctx, w, 0) <= 4


def _p_4m2_n5(ctx, w):
    return any(_d(ctx, w, i) <= 4 for i in range(4))


def _p_4comm_m1(ctx, w):
    return all(_d(ctx, w, i) == 5 for i in range(4)) and _in2c(ctx, w, 0)


def _p_4comm(ctx, w):
    return _in2c(ctx, w, 0)


def _p_444(ctx, w):
    return _d(ctx, w, 0) == 4 and _d(ctx, w, 1) >= 4


def _p_455(ctx, w):
    return _d(ctx, w, 0) == 5 and _d(ctx, w, 1) == 5


def _p_455n4_adj(ctx, w):
    return _p_455(ctx, w) and min(_d(ctx, w, 2), _d(ctx, w, 3)) <= 4


def _p_455n4_non(ctx, w):
    return _p_455(ctx, w) and _d(ctx, w, 2) <= 4


def _p_5n5(ctx, w):
    return all(ctx.deg[u] == 3 for u in w)


def _p_5two4(ctx, w):
    return _d(ctx, w, 3) == 3 and _d(ctx, w, 4) == 3 and _n4(ctx, w) >= 2


def _p_5t4n_a(ctx, w):
    return _d(ctx, w, 4) == 3 and all(_d(ctx, w, i) == 4 for i in range(4))


def _p_far3(ctx, w):
    return _d(ctx, w, 4) == 3


def _p_far3_n4(ctx, w):
    return _d(ctx, w, 4) == 3 and _n4(ctx, w) >= 1


def _p_5t4n_c1(ctx, w):
    return _d(ctx, w, 4) == 3 and _n4(ctx, w) >= 2


def _p_5n30_a(ctx, w):
    return _n4(ctx, w) == 5


def _p_5n30_b1(ctx, w):
    return _n3(ctx, w) == 0 and _n4(ctx, w) >= 4


def _p_5n30_b2(ctx, w):
    return _p_5n30_b1(ctx, w) and _d(ctx, w, 1) == 4


def _p_5m34_a(ctx, w):
    return _n3(ctx, w) == 0 and _n4(ctx, w) >= 2


def _p_5m34_b(ctx, w):
    return _n3(ctx, w) == 0 and _n4(ctx, w) >= 1


def _p_5m34_c(ctx, w):
    return _n3(ctx, w) == 0 and any(_in2c(ctx, w, i) for i in range(4))


def _p_5m34_d(ctx, w):
    return _n3(ctx, w) == 0 and sum(1 for i in range(4) if _in2c(ctx, w, i)) >= 2


def _p_5m34_e(ctx, w):
    return _p_5m34_b(ctx, w) and any(_in2c(ctx, w, i) for i in range(4))


def _p_sb_a(ctx, w):
    return _n3(ctx, w) >= 1


def _p_n4_2(ctx, w):
    return _n4(ctx, w) >= 2


def _p_n4_1(ctx, w):
    return _n4(ctx, w) >= 1


def _p_strong_b(ctx, w):
    return _in2c(ctx, w, 0) and _in2c(ctx, w, 1) and _n4(ctx, w) >= 1


def _p_goodtwo(ctx, w):
    return (
        ctx.bad_kind(w[2]) == "semi-bad"
        and _n4(ctx, w) == 1
        and _d(ctx, w, 4) == 4
    )


def _p_good_b(ctx, w):
    return _d(ctx, w, 3) == 4 and _d(ctx, w, 4) == 4


def _p_good_e(ctx, w):
    return ctx.bad_kind(w[2]) == "semi-bad" and _in2c(ctx, w, 2)


def _p_supp_a(ctx, w):
    return _n3(ctx, w) == 1


def _p_supp_b(ctx, w):
    return _d(ctx, w, 4) == 3 and _n4(ctx, w) == 1


def _p_supp_c(ctx, w):
    return _d(ctx, w, 4) == 3 and _n3(ctx, w) == 1 and _n4(ctx, w) == 2


def _p_supp_d(ctx, w):
    return _d(ctx, w, 3) == 3 and _d(ctx, w, 4) == 3


# ======================================================================
# binding rules: a quad frame, then a ring vertex to delete
# ======================================================================


def _deg4_bindings(ctx: _Ctx, v: int, w: tuple) -> Iterator[dict]:
    # delete a degree-4 neighbour u = w1/w2/w3, x is u's fourth
    # neighbour, chords close x to u's triangle mates
    for i in (1, 2, 3):
        u = w[i]
        if ctx.deg[u] != 4:
            continue
        rest = [t for t in ctx.g.rotations[u] if t not in (v, w[i - 1], w[i + 1])]
        if len(rest) != 1:  # cannot happen: triangle mates are adjacent
            continue
        yield {"v": v, "v1": w[i - 1], "v2": u, "v3": w[i + 1], "x": rest[0]}


def _degmid_bindings(ctx: _Ctx, v: int, w: tuple) -> Iterator[dict]:
    # the middle neighbour u = w2 has degree 5 with rotation
    # (.., b, v, a, c, d ..) and {a, b} = {w1, w3}; the corner between
    # c and d must be a triangle, its flanks at most 4
    u = w[2]
    if ctx.deg[u] != 5:
        return
    rot, cl = ctx.g.rotations[u], ctx.g.corner_lens(u)
    p = rot.index(v)
    a, c, d, b = (
        rot[(p + 1) % 5],
        rot[(p + 2) % 5],
        rot[(p + 3) % 5],
        rot[(p + 4) % 5],
    )
    if {a, b} != {w[1], w[3]}:
        return  # cannot happen: the frame triangles force it
    # corners of u after v: (v,a)=p, (a,c)=p+1, (c,d)=p+2, (d,b)=p+3
    if cl[(p + 1) % 5] > 4 or cl[(p + 2) % 5] != 3 or cl[(p + 3) % 5] > 4:
        return
    if a == w[1]:
        x, y = c, d
    else:
        x, y = d, c
    yield {"v": v, "v2": w[1], "v3": u, "v4": w[3], "x": x, "y": y}


# ======================================================================
# the table
# ======================================================================


def _rule(rid, bound, degree, corners, adds, pattern, pred=None):
    return ReductionRule(
        id=rid,
        pattern=pattern,
        delete="v",
        add_edges=adds,
        claimed_d2_bound=bound,
        family="degree",
        degree=degree,
        corners=_corners(corners),
        pred=pred,
    )


def _both(test, pred):
    return lambda ctx, w: test(ctx, w) and pred(ctx, w)


def _class_rule(rid, family, corners, adds, pattern, pred=None):
    # the class's neighbour test runs first; corners=None takes the class's
    own, test = _FAMILIES[family]
    if test is not None:
        pred = test if pred is None else _both(test, pred)
    return ReductionRule(
        id=rid,
        pattern=pattern,
        delete="v",
        add_edges=adds,
        claimed_d2_bound=15,
        family=family,
        degree=5,
        corners=own if corners is None else _corners(corners),
        pred=pred,
    )


_TABLE: tuple[ReductionRule, ...] = (
    _rule("R-1v", 15, 1, "", (), "1-vertex"),
    _rule("R-2v", 10, 2, "**", (("v1", "v2"),), "2-vertex, bridge its ends"),
    _rule(
        "R-3in3f", 13, 3, "3**", (("v2", "v3"),),
        "3-vertex on a triangle",
    ),
    # a face of length at most 4 that meets a vertex at two corners is
    # the walk v-a-v-b-v of a 2-vertex, so at a 3-vertex two 4-corners
    # lie on two distinct 4-faces
    _rule(
        "R-3two4f", 13, 3, "44*", (("v1", "v3"),),
        "3-vertex on two distinct 4-faces",
    ),
    _rule(
        "R-3adj4", 14, 3, "***", (("v1", "v2"), ("v1", "v3")),
        "3-vertex with a neighbour of degree at most 4", _p_3adj4,
    ),
    _rule(
        "R-4three3f", 14, 4, "333*", (("v1", "v4"),),
        "4-vertex on three triangles",
    ),
    _rule(
        "R-4m2-4f-adj", 15, 4, "433x", (("v1", "v4"),),
        "4-vertex, adjacent triangle pair plus a 4-face",
    ),
    _rule(
        "R-4m2-4f-non", 15, 4, "43x3", (("v3", "v4"),),
        "4-vertex, opposite triangles plus a 4-face",
    ),
    _rule(
        "R-4m2-n5-adj", 15, 4, "33xx", (("v2", "v4"),),
        "4-vertex, adjacent triangle pair and a sub-5 neighbour", _p_4m2_n5,
    ),
    _rule(
        "R-4m2-n5-non", 15, 4, "3x3x", (("v2", "v3"), ("v1", "v4")),
        "4-vertex, opposite triangles and a sub-5 neighbour", _p_4m2_n5,
    ),
    _rule(
        "R-4comm-m1", 15, 4, "3544", (("v1", "v4"), ("v2", "v3")),
        "4-vertex, one shared triangle, 5+ face, two 4-faces", _p_4comm_m1,
    ),
    _rule(
        "R-4comm-adj", 15, 4, "33xx", (("v2", "v4"),),
        "4-vertex, adjacent triangles, shared edge in two triangles", _p_4comm,
    ),
    _rule(
        "R-4comm-non", 15, 4, "3x3x", (("v1", "v4"), ("v2", "v3")),
        "4-vertex, opposite triangles, shared edge in two triangles", _p_4comm,
    ),
    _rule(
        "R-444", 15, 4, "3ss*|3s*s|3*ss", (("v1", "v3"), ("v1", "v4")),
        "4-vertex on a triangle with a 4-neighbour, few large corners", _p_444,
    ),
    _rule(
        "R-455", 15, 4, "3sss", (("v1", "v4"), ("v2", "v3")),
        "4-vertex on a triangle of 5-vertices, no large corner", _p_455,
    ),
    _rule(
        "R-455n4-adj", 15, 4, "344x", (("v2", "v3"), ("v1", "v4")),
        "4-vertex, lone triangle of 5-vertices, small corners 1 and 2", _p_455n4_adj,
    ),
    _rule(
        "R-455n4-non", 15, 4, "3454", (("v2", "v3"), ("v3", "v4")),
        "4-vertex, lone triangle of 5-vertices, large corner 2", _p_455n4_non,
    ),
    _rule(
        "R-5m5", 15, 5, "33333", (),
        "5-vertex on five triangles",
    ),
    _rule(
        "R-5n5", 15, 5, "*****",
        (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex whose neighbours all have degree 3", _p_5n5,
    ),
    _rule(
        "R-5two4", 15, 5, "33xxx", (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, adjacent triangles, two 3-neighbours off them", _p_5two4,
    ),
    _rule(
        "R-5t4n-a1", 15, 5, "33xxx", (("v3", "v4"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, adjacent triangles, all frame-neighbours degree 4", _p_5t4n_a,
    ),
    _rule(
        "R-5t4n-a2", 15, 5, "3x3xx", (("v2", "v3"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, opposite triangles, all frame-neighbours degree 4", _p_5t4n_a,
    ),
    _rule(
        "R-5t4n-b1", 15, 5, "33444", (("v5", "v2"), ("v5", "v3"), ("v1", "v4")),
        "5-vertex, adjacent triangles, three 4-faces", _p_far3_n4,
    ),
    _rule(
        "R-5t4n-b2", 15, 5, "34344", (("v2", "v3"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, opposite triangles, three 4-faces", _p_far3_n4,
    ),
    _rule(
        "R-5t4n-c1", 15, 5, "333xx", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, two 4-neighbours", _p_5t4n_c1,
    ),
    _rule(
        "R-5t4n-c2", 15, 5, "33344", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, two 4-faces", _p_far3,
    ),
    _rule(
        "R-5t4n-d", 15, 5, "3334x|33354", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, one large corner", _p_far3_n4,
    ),
    _rule(
        "R-5n30-a1", 15, 5, "334xx|33x4x|33xx4",
        (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, adjacent triangles, all neighbours degree 4", _p_5n30_a,
    ),
    _rule(
        "R-5n30-a2", 15, 5, "343xx|3x34x|3x3x4",
        (("v2", "v3"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, opposite triangles, all neighbours degree 4", _p_5n30_a,
    ),
    _rule(
        "R-5n30-b1", 15, 5, "33x3x", (("v3", "v4"), ("v5", "v1")),
        "5-vertex, split triangles, four-plus 4-neighbours", _p_5n30_b1,
    ),
    _rule(
        "R-5n30-b2", 15, 5, "333xx", (("v2", "v5"), ("v2", "v4")),
        "5-vertex, consecutive triangles, four-plus 4-neighbours", _p_5n30_b2,
    ),
    _class_rule(
        "R-5m34-a", "quad", None, (("v5", "v1"),),
        "near-saturated 5-vertex, two 4-neighbours", _p_5m34_a,
    ),
    _class_rule(
        "R-5m34-b", "quad", "33334", (("v5", "v1"),),
        "bad-shaped 5-vertex, a 4-neighbour", _p_5m34_b,
    ),
    _class_rule(
        "R-5m34-c", "quad", "33334", (("v5", "v1"),),
        "bad-shaped 5-vertex, a ring edge in two triangles", _p_5m34_c,
    ),
    _class_rule(
        "R-5m34-d", "quad", "33335", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex, two ring edges in two triangles", _p_5m34_d,
    ),
    _class_rule(
        "R-5m34-e", "quad", "33335", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex, ring edge in two triangles, 4-neighbour",
        _p_5m34_e,
    ),
    _class_rule(
        "R-sb-a", "quad", "33335", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex with a 3-neighbour", _p_sb_a,
    ),
    _class_rule(
        "R-sb-b", "quad", "33335", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex with two 4-neighbours", _p_n4_2,
    ),
    ReductionRule(
        id="R-deg",
        pattern="4-vertex wedged between triangles of a saturated 5-vertex",
        delete="v2",
        add_edges=(("v1", "x"), ("x", "v3")),
        claimed_d2_bound=15,
        family="quad",
        degree=5,
        corners=_FAMILIES["quad"][0],
        bind=_deg4_bindings,
    ),
    ReductionRule(
        id="R-degmid",
        pattern="5-vertex opposite a saturated 5-vertex, own triangle behind",
        delete="v3",
        add_edges=(("v2", "x"), ("y", "v4")),
        claimed_d2_bound=15,
        family="quad",
        degree=5,
        corners=_FAMILIES["quad"][0],
        bind=_degmid_bindings,
    ),
    _class_rule(
        "R-strong-a", "strong", "33534|33435", (("v3", "v4"), ("v1", "v5")),
        "strong vertex, two 4-neighbours, one large corner", _p_n4_2,
    ),
    _class_rule(
        "R-strong-b", "strong", "33534|33435", (("v3", "v4"), ("v1", "v5")),
        "strong vertex, pair edges in two triangles, a 4-neighbour", _p_strong_b,
    ),
    _class_rule(
        "R-goodtwo", "good", "33355", (("v1", "v5"), ("v4", "v5")),
        "good vertex with both middles semi-bad", _p_goodtwo,
    ),
    _class_rule(
        "R-good-a", "good", None, (("v4", "v5"), ("v5", "v1")),
        "good vertex with a 3-neighbour at the far slot", _p_far3,
    ),
    _class_rule(
        "R-good-b", "good", None, (("v1", "v5"), ("v4", "v5")),
        "good vertex with two far 4-neighbours", _p_good_b,
    ),
    _class_rule(
        "R-good-c", "good", "33344", (("v1", "v4"), ("v3", "v5")),
        "good vertex with two far 4-faces",
    ),
    _class_rule(
        "R-good-d1", "good", "3334x", (("v1", "v4"), ("v2", "v5")),
        "good vertex, a 4-neighbour, 4-face at corner 3", _p_n4_1,
    ),
    _class_rule(
        "R-good-d2", "good", "333x4", (("v1", "v4"), ("v3", "v5")),
        "good vertex, a 4-neighbour, 4-face at corner 4", _p_n4_1,
    ),
    _class_rule(
        "R-good-e", "good", "3334x", (("v1", "v4"), ("v2", "v5")),
        "good vertex, second middle semi-bad on a doubled edge", _p_good_e,
    ),
    _class_rule(
        "R-supp-a", "support", "33444", (("v3", "v5"), ("v2", "v4")),
        "support vertex, one 3-neighbour, three 4-faces", _p_supp_a,
    ),
    _class_rule(
        "R-supp-b1", "support", "33544", (("v2", "v4"), ("v3", "v5"), ("v1", "v5")),
        "support vertex, 3-neighbour far, large corner 2", _p_supp_b,
    ),
    _class_rule(
        "R-supp-b2", "support", "33454|33445",
        (("v1", "v5"), ("v2", "v5"), ("v4", "v5")),
        "support vertex, 3-neighbour far, one large far corner", _p_supp_b,
    ),
    _class_rule(
        "R-supp-c", "support", "334xx|33x4x|33xx4",
        (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "support vertex, one 3- and two 4-neighbours", _p_supp_c,
    ),
    _class_rule(
        "R-supp-d", "support", "334xx|33x4x|33xx4",
        (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "support vertex with two far 3-neighbours", _p_supp_d,
    ),
)

_BY_ID = {r.id: r for r in _TABLE}

# detection order: ascending claimed bound, table order on ties
_PRIORITY: tuple[ReductionRule, ...] = tuple(
    sorted(_TABLE, key=lambda r: r.claimed_d2_bound)
)

# per rank: does the rule read past the centre's ring?  A binding reads
# a ring vertex's rotation, and a class's neighbour test its bad_kind
_FAR: tuple[bool, ...] = tuple(
    r.bind is not None or (r.family != "degree" and _FAMILIES[r.family][1] is not None)
    for r in _PRIORITY
)

# per rank, the next rank of its degree; per degree, its first rank and
# its first far rank; _END for none
_END = len(_PRIORITY)
_NEXT: tuple[int, ...] = tuple(
    next((s for s in range(r + 1, _END) if _PRIORITY[s].degree == rule.degree), _END)
    for r, rule in enumerate(_PRIORITY)
)
_FIRST: tuple[int, ...] = tuple(
    next((r for r, rule in enumerate(_PRIORITY) if rule.degree == d), _END)
    for d in range(6)
)
_FIRST_FAR: tuple[int, ...] = tuple(
    next((r for r, rule in enumerate(_PRIORITY) if rule.degree == d and _FAR[r]), _END)
    for d in range(6)
)


def rule_table() -> tuple[ReductionRule, ...]:
    """The full reducible-configuration table, in table order."""
    return _TABLE


# ======================================================================
# matching
# ======================================================================


def _make_match(ctx: _Ctx, rule, binding: dict) -> Optional[ConfigMatch]:
    g = ctx.g
    deleted = binding[rule.delete]
    # no vertex may pass degree 5 once ``deleted`` goes and the missing
    # chords come in; ``WorkingGraph.delete`` refuses the same steps
    gain: dict[int, int] = {}
    for a, b in rule.add_edges:
        a, b = binding[a], binding[b]
        if not g.has_edge(a, b):
            gain[a] = gain.get(a, 0) + 1
            gain[b] = gain.get(b, 0) + 1
    for x, extra in gain.items():
        if ctx.deg[x] - g.has_edge(x, deleted) + extra > 5:
            return None
    observed = g.d2(deleted)
    if observed > rule.claimed_d2_bound:
        return None
    return ConfigMatch(rule.id, binding, rule.claimed_d2_bound, observed)


def _frame_matches(ctx: _Ctx, rule, v: int, k: int) -> tuple[ConfigMatch, ...]:
    """Matches of one rule at frame k of v, a frame that shows the
    rule's corners: none or one, but for a binding rule."""
    w = ctx.frame(v, k)
    if rule.pred is not None and not rule.pred(ctx, w):
        return ()
    if rule.bind is None:
        m = _make_match(ctx, rule, dict(zip(_FRAME_ROLES, (v, *w))))
        return () if m is None else (m,)
    ms = [_make_match(ctx, rule, b) for b in rule.bind(ctx, v, w)]
    return tuple([m for m in ms if m is not None])


def iter_matches(g: PlaneGraph) -> Iterator[ConfigMatch]:
    """All verified matches, in detection priority order: rule rank,
    then centre vertex id, then frame.  This is a fresh ``MatchQueue``
    read to the end.  g is checked on the call, before the first match.

    Raises:
        BadArgument: g is not a PlaneGraph.
        DegreeTooHigh: some vertex has degree above 5.
    """
    require_graph(g)
    if g.n > 1 and max(g.deg) > 5:
        raise DegreeTooHigh(f"max degree {max(g.deg)} > 5")
    return MatchQueue(g).matches()


class MatchQueue:
    """Matches in detection priority order (rule rank, then centre id,
    then frame) on a graph that changes in place.  ``iter_matches`` is a
    fresh queue read to the end; ``color16`` resumes one search
    (``matches``) across all its steps.

    Each vertex has one pending rank, the first rank of its degree that
    it may still match at, and one heap of keys ``rank * n + centre``
    holds it there: a bucket queue (Dial, CACM 12, 1969) whose pops come
    out in priority order.  An examined centre moves on to the next rank
    of its degree.  Once a step lands, a centre the search yielded a
    match at goes back to the first rank it matched at, and the step's
    reach to the first rank of its degree.  The *far* ranks (``_FAR``)
    also read a ring vertex's ``bad_kind`` or rotation, which change only
    where that ring vertex is in the reach, so the reach's neighbours go
    back to their first far rank.  That is exact under the current
    rotations: an edge vanishes only with a deleted endpoint, whose ball
    holds the other.
    """

    def __init__(self, g) -> None:
        self._ctx = _Ctx(g)
        # a vertex above degree 5 has no rank (``color16`` colors such a
        # graph without a search when it is small enough)
        self._pending = [_FIRST[d] if d <= 5 else _END for d in g.deg]
        n = len(self._pending)
        self._heap = [r * n + v for v, r in enumerate(self._pending) if r < _END]
        heapq.heapify(self._heap)
        self._far_seen = False  # some far rank was examined

    def matches(self) -> Generator[ConfigMatch, Optional[Iterable[int]], None]:
        """One search: each match in priority order, for ``next``.  After
        applying a match, and before anything else, a caller sends the
        step's reach: the search puts back its kept centres and the
        reach's, and returns the next match in priority order.  The graph
        changes by such steps alone.  A centre whose corners refuse the
        rule costs one ``shown``."""
        ctx, deg, pending, heap = self._ctx, self._ctx.deg, self._pending, self._heap
        rot, n = ctx.g.rotations, len(pending)
        push, pop = heapq.heappush, heapq.heappop
        kept: dict[int, int] = {}  # centre: the lowest rank it matched at
        while heap:
            r, v = divmod(pop(heap), n)
            rule = _PRIORITY[r]
            if pending[v] != r or deg[v] != rule.degree:
                continue  # a stale key, or a deleted centre
            pending[v] = nxt = _NEXT[r]
            if nxt < _END:
                push(heap, nxt * n + v)
            if _FAR[r]:
                self._far_seen = True
            reach = None
            for f in ctx.shown(v, rule.corners):
                for m in _frame_matches(ctx, rule, v, f):
                    kept.setdefault(v, r)
                    reach = yield m
                    if reach is not None:
                        break
                if reach is not None:
                    break
            if reach is None:
                continue
            for c, r in kept.items():
                if deg[c] == _PRIORITY[r].degree:
                    pending[c] = r
                    push(heap, r * n + c)
            kept.clear()
            for x in reach:
                r = _FIRST[deg[x]]
                if pending[x] != r:
                    pending[x] = r
                    if r < _END:
                        push(heap, r * n + x)
            # until a far rank is examined no centre is pending past its
            # first far rank, so the widening would change nothing
            if self._far_seen:
                for x in reach:
                    for u in rot[x]:
                        r = _FIRST_FAR[deg[u]]
                        if r < pending[u]:
                            pending[u] = r
                            push(heap, r * n + u)


def detect(g: PlaneGraph) -> Optional[ConfigMatch]:
    """First reducible configuration in priority order, or None.

    Every returned match already passed the degree guard and the
    claimed d2 bound on the vertex to be deleted.

    Raises:
        BadArgument: g is not a PlaneGraph.
        DegreeTooHigh: some vertex has degree above 5.
    """
    return next(iter_matches(g), None)

