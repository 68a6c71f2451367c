"""Reducible configurations and the special-vertex taxonomy.

A configuration is a local pattern around a low-degree or degree-5
vertex, together with a recipe: delete one vertex, add a few chords
among its former neighbours, and the deleted vertex will see at most
``claimed_d2_bound`` distinct vertices within distance two, so a color
is always left over when 16 are available.

Patterns are matched against *frames*: a frame fixes one neighbour
labeling w0..w(d-1) of a candidate vertex, taken from the stored
rotation at every offset and in both directions, so each written
pattern covers all rotations and mirror images of the drawn shape.
Corner i of a frame is the face between w_i and w_(i+1).

The table is a menu, not an oracle: every match is re-verified at
application time (structure preserved, degree cap, distance-two pairs
kept, observed d2 within the claimed bound), so a wrong table entry
surfaces as a loud error instead of a bad coloring.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

from .errors import DegreeTooHigh
from .plane_graph import PlaneGraph

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
_RING_ROLES = ("v1", "v2", "v3", "v4", "v5")  # w0..w4 of a frame


@dataclass(frozen=True)
class ReductionRule:
    """One reducible configuration.

    Attributes:
        id: stable rule name.
        pattern: prose description of the matched shape.
        delete: role of the vertex the reduction removes.
        add_edges: role pairs to chord (skipped when already present).
        claimed_d2_bound: ceiling on d2 of the deleted vertex.
    """

    id: str
    pattern: str
    delete: str
    add_edges: tuple[tuple[str, str], ...]
    claimed_d2_bound: int
    kind: str  # matcher family: degree | quad | strong | good | support | deg4 | degmid
    degree: int = 0  # degree of the centre vertex
    pred: Optional[Callable] = None


@dataclass(frozen=True)
class ConfigMatch:
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


@dataclass(frozen=True)
class SpecialClass:
    """Classification of a degree-5 vertex, with its witness ring."""

    kind: str
    center: int
    ring: tuple[int, ...]

    def to_json(self) -> dict:
        return {"kind": self.kind, "center": self.center, "ring": list(self.ring)}


# ======================================================================
# frames
# ======================================================================


class _Frame:
    """One neighbour labeling of a vertex: w tuple and corner lengths,
    aligned so corner i sits between w_i and w_(i+1)."""

    __slots__ = ("w", "cfl")

    def __init__(self, w, cfl):
        self.w = w
        self.cfl = cfl


class _Ctx:
    """Per-graph scratch: memoized frames, bad kinds and ``in2``."""

    __slots__ = (
        "g",
        "deg",
        "_frames",
        "_badmemo",
        "_in2memo",
    )

    def __init__(self, g):
        # g is a PlaneGraph or a WorkingGraph: only the queries both
        # answer are used (deg, rotations, corner_lens, has_edge,
        # edge_in_two_triangles, d2)
        self.g = g
        self.deg = g.deg
        self._frames: dict[int, list[_Frame]] = {}
        self._badmemo: dict[int, Optional[str]] = {}
        self._in2memo: dict[tuple[int, int], bool] = {}

    def forget(self, vertices) -> None:
        """Drop the memos of vertices whose rotation, degree or corners changed."""
        for v in vertices:
            self._frames.pop(v, None)
            self._badmemo.pop(v, None)
        self._in2memo.clear()

    def frames(self, v: int) -> list[_Frame]:
        """Every labeling of v; the first is the rotation itself."""
        got = self._frames.get(v)
        if got is not None:
            return got
        g = self.g
        rot = g.rotations[v]
        d = len(rot)
        cl = g.corner_lens(v) if d > 0 else ()
        out: list[_Frame] = []
        if d == 1:
            out.append(_Frame((rot[0],), ()))
        else:
            # every labeling is a slice of a doubled tuple: forward ones
            # start at o, reversed ones run w_i = rot[o - i] with corner
            # i = cl[o - i - 1]
            rr, ll = tuple(rot) * 2, cl * 2
            for o in range(d):
                out.append(_Frame(rr[o : o + d], ll[o : o + d]))
            if d > 2:  # reversed labelings coincide with forward ones below 3
                rw, rl = rr[::-1], ll[::-1]
                for o in range(d):
                    a, b = d - 1 - o, d - o
                    out.append(_Frame(rw[a : a + d], rl[b : b + d]))
        self._frames[v] = out
        return out

    def in2(self, a: int, b: int) -> bool:
        """Edge ab exists and lies in two distinct 3-faces."""
        key = (a, b) if a < b else (b, a)
        got = self._in2memo.get(key)
        if got is None:
            got = self.g.has_edge(a, b) and self.g.edge_in_two_triangles(a, b)
            self._in2memo[key] = got
        return got

    def bad_kind(self, v: int) -> Optional[str]:
        """"bad", "semi-bad", or None: the shape of v's quad frames.

        A 5-vertex has a quad frame exactly when four of its corners are
        triangles, and every such frame ends on the fifth corner.
        """
        got = self._badmemo.get(v, "?")
        if got != "?":
            return got
        kind: Optional[str] = None
        if self.deg[v] == 5:
            cl = self.g.corner_lens(v)
            if cl.count(3) == 4:
                kind = "bad" if 4 in cl else "semi-bad"
        self._badmemo[v] = kind
        return kind


def _quad_frames(ctx: _Ctx, v: int) -> Iterator[_Frame]:
    # four consecutive triangle corners, fifth corner length >= 4
    for fr in ctx.frames(v):
        c = fr.cfl
        if c[0] == 3 and c[1] == 3 and c[2] == 3 and c[3] == 3 and c[4] >= 4:
            yield fr


def _strong_frames(ctx: _Ctx, v: int) -> Iterator[_Frame]:
    # triangle pair at corners 0,1 + lone triangle at corner 3; the
    # middle w1 is bad or semi-bad and some non-triangle corner is 5+
    for fr in ctx.frames(v):
        c = fr.cfl
        if (
            c[0] == 3
            and c[1] == 3
            and c[3] == 3
            and c[2] >= 4
            and c[4] >= 4
            and (c[2] >= 5 or c[4] >= 5)
            and ctx.bad_kind(fr.w[1]) is not None
        ):
            yield fr


def _good_frames(ctx: _Ctx, v: int) -> Iterator[_Frame]:
    # three consecutive triangle corners; the middle w1 is semi-bad and
    # both edges v-w0w1 / v-w1w2 ... the chords w0w1, w1w2 sit in two
    # 3-faces each
    for fr in ctx.frames(v):
        c = fr.cfl
        if (
            c[0] == 3
            and c[1] == 3
            and c[2] == 3
            and c[3] >= 4
            and c[4] >= 4
            and ctx.bad_kind(fr.w[1]) == "semi-bad"
            and ctx.in2(fr.w[0], fr.w[1])
            and ctx.in2(fr.w[1], fr.w[2])
        ):
            yield fr


def _support_frames(ctx: _Ctx, v: int) -> Iterator[_Frame]:
    # exactly two triangle corners, adjacent; middle w1 bad or semi-bad
    for fr in ctx.frames(v):
        c = fr.cfl
        if (
            c[0] == 3
            and c[1] == 3
            and c[2] >= 4
            and c[3] >= 4
            and c[4] >= 4
            and ctx.bad_kind(fr.w[1]) is not None
        ):
            yield fr


_FRAME_FAMILY = {
    "quad": _quad_frames,
    "strong": _strong_frames,
    "good": _good_frames,
    "support": _support_frames,
}


def classify_special(g: PlaneGraph, v: int, _ctx: Optional[_Ctx] = None):
    """Classify a vertex into the degree-5 taxonomy.

    Returns a SpecialClass ("bad", "semi-bad", "strong", "good",
    "support") with the witness ring w0..w4, or None.  The classes are
    mutually exclusive, so the check order only settles ties that
    cannot occur.
    """
    ctx = _ctx if _ctx is not None else _Ctx(g)
    if ctx.deg[v] != 5:
        return None
    # each class fixes how many of v's corners are triangles: quad 4,
    # strong and good 3, support 2; those three also need a triangle
    # pair whose middle neighbour is bad or semi-bad, and the neighbour
    # between corners i - 1 and i is rot[i]
    cl = ctx.g.corner_lens(v)
    triangles = cl.count(3)
    if triangles == 4:
        for fr in _quad_frames(ctx, v):
            return SpecialClass(ctx.bad_kind(v), v, fr.w)
    if triangles not in (2, 3) or not any(
        cl[i - 1] == 3 and cl[i] == 3 and ctx.bad_kind(u) is not None
        for i, u in enumerate(ctx.g.rotations[v])
    ):
        return None
    if triangles == 3:
        for fr in _strong_frames(ctx, v):
            return SpecialClass("strong", v, fr.w)
        for fr in _good_frames(ctx, v):
            return SpecialClass("good", v, fr.w)
    else:
        for fr in _support_frames(ctx, v):
            return SpecialClass("support", v, fr.w)
    return None


# ======================================================================
# rule predicates
# ======================================================================
#
# Predicates receive (ctx, fr) where fr labels the candidate center.
# They must only read structure; every consequence they promise is
# re-checked downstream.


def _d(ctx, fr, i):
    return ctx.deg[fr.w[i]]


def _n3(ctx, fr):
    return sum(1 for u in fr.w if ctx.deg[u] == 3)


def _n4(ctx, fr):
    return sum(1 for u in fr.w if ctx.deg[u] == 4)


def _in2c(ctx, fr, i):
    # chord of corner i, between w_i and w_(i+1)
    w = fr.w
    return ctx.in2(w[i], w[(i + 1) % len(w)])


def _true(ctx, fr):
    return True


def _p_3in3f(ctx, fr):
    return fr.cfl[0] == 3


def _p_3two4f(ctx, fr):
    # a face of length at most 4 that meets a vertex at two corners is
    # the walk v-a-v-b-v of a 2-vertex, so at a 3-vertex two 4-corners
    # lie on two distinct 4-faces
    return fr.cfl[0] == 4 and fr.cfl[1] == 4


def _p_3adj4(ctx, fr):
    return _d(ctx, fr, 0) <= 4


def _p_4three3f(ctx, fr):
    c = fr.cfl
    return c[0] == 3 and c[1] == 3 and c[2] == 3


def _p_4m2_4f_adj(ctx, fr):
    c = fr.cfl
    return c[1] == 3 and c[2] == 3 and c[0] == 4 and c[3] != 3


def _p_4m2_4f_non(ctx, fr):
    c = fr.cfl
    return c[1] == 3 and c[3] == 3 and c[0] == 4 and c[2] != 3


def _p_4m2_n5_adj(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] != 3
        and c[3] != 3
        and any(_d(ctx, fr, i) <= 4 for i in range(4))
    )


def _p_4m2_n5_non(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[2] == 3
        and c[1] != 3
        and c[3] != 3
        and any(_d(ctx, fr, i) <= 4 for i in range(4))
    )


def _p_4comm_m1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] >= 5
        and c[2] == 4
        and c[3] == 4
        and all(_d(ctx, fr, i) == 5 for i in range(4))
        and _in2c(ctx, fr, 0)
    )


def _p_4comm_adj(ctx, fr):
    c = fr.cfl
    return c[0] == 3 and c[1] == 3 and c[2] != 3 and c[3] != 3 and _in2c(ctx, fr, 0)


def _p_4comm_non(ctx, fr):
    c = fr.cfl
    return c[0] == 3 and c[2] == 3 and c[1] != 3 and c[3] != 3 and _in2c(ctx, fr, 0)


def _p_444(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and _d(ctx, fr, 0) == 4
        and _d(ctx, fr, 1) >= 4
        and sum(1 for x in c if x <= 4) >= 3
    )


def _p_455(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and _d(ctx, fr, 0) == 5
        and _d(ctx, fr, 1) == 5
        and all(x <= 4 for x in c)
    )


def _p_455n4_adj(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] != 3
        and c[2] != 3
        and c[3] != 3
        and _d(ctx, fr, 0) == 5
        and _d(ctx, fr, 1) == 5
        and c[1] <= 4
        and c[2] <= 4
        and min(_d(ctx, fr, 2), _d(ctx, fr, 3)) <= 4
    )


def _p_455n4_non(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] != 3
        and c[2] != 3
        and c[3] != 3
        and _d(ctx, fr, 0) == 5
        and _d(ctx, fr, 1) == 5
        and c[1] <= 4
        and c[3] <= 4
        and c[2] >= 5
        and _d(ctx, fr, 2) <= 4
    )


def _p_5m5(ctx, fr):
    return all(x == 3 for x in fr.cfl)


def _p_5n5(ctx, fr):
    return all(ctx.deg[u] == 3 for u in fr.w)


def _p_5two4(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] != 3
        and c[3] != 3
        and c[4] != 3
        and _d(ctx, fr, 3) == 3
        and _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) >= 2
    )


def _p_5t4n_a1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] != 3
        and c[3] != 3
        and c[4] != 3
        and _d(ctx, fr, 4) == 3
        and all(_d(ctx, fr, i) == 4 for i in range(4))
    )


def _p_5t4n_a2(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[2] == 3
        and c[1] != 3
        and c[3] != 3
        and c[4] != 3
        and _d(ctx, fr, 4) == 3
        and all(_d(ctx, fr, i) == 4 for i in range(4))
    )


def _p_5t4n_b1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] == 4
        and c[3] == 4
        and c[4] == 4
        and _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) >= 1
    )


def _p_5t4n_b2(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[2] == 3
        and c[1] == 4
        and c[3] == 4
        and c[4] == 4
        and _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) >= 1
    )


def _p_5t4n_c1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] == 3
        and c[3] != 3
        and c[4] != 3
        and _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) >= 2
    )


def _p_5t4n_c2(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] == 3
        and c[3] == 4
        and c[4] == 4
        and _d(ctx, fr, 4) == 3
    )


def _p_5t4n_d(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] == 3
        and c[3] != 3
        and c[4] != 3
        and _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) >= 1
        and sum(1 for i in (3, 4) if c[i] >= 5) <= 1
    )


def _p_5n30_a1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] != 3
        and c[3] != 3
        and c[4] != 3
        and _n4(ctx, fr) == 5
        and sum(1 for x in c if x >= 5) <= 2
    )


def _p_5n30_a2(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[2] == 3
        and c[1] != 3
        and c[3] != 3
        and c[4] != 3
        and _n4(ctx, fr) == 5
        and sum(1 for x in c if x >= 5) <= 2
    )


def _p_5n30_b1(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[3] == 3
        and c[2] != 3
        and c[4] != 3
        and _n3(ctx, fr) == 0
        and _n4(ctx, fr) >= 4
    )


def _p_5n30_b2(ctx, fr):
    c = fr.cfl
    return (
        c[0] == 3
        and c[1] == 3
        and c[2] == 3
        and c[3] != 3
        and c[4] != 3
        and _n3(ctx, fr) == 0
        and _n4(ctx, fr) >= 4
        and _d(ctx, fr, 1) == 4
    )


# quad-frame rules: the frame generator already guarantees corners
# 0..3 are triangles and corner 4 is not


def _p_5m34_a(ctx, fr):
    return _n3(ctx, fr) == 0 and _n4(ctx, fr) >= 2


def _p_5m34_b(ctx, fr):
    return _n3(ctx, fr) == 0 and _n4(ctx, fr) >= 1 and fr.cfl[4] == 4


def _p_5m34_c(ctx, fr):
    return (
        _n3(ctx, fr) == 0
        and fr.cfl[4] == 4
        and any(_in2c(ctx, fr, i) for i in range(4))
    )


def _p_5m34_d(ctx, fr):
    return (
        _n3(ctx, fr) == 0
        and fr.cfl[4] >= 5
        and sum(1 for i in range(4) if _in2c(ctx, fr, i)) >= 2
    )


def _p_5m34_e(ctx, fr):
    return (
        _n3(ctx, fr) == 0
        and fr.cfl[4] >= 5
        and _n4(ctx, fr) >= 1
        and any(_in2c(ctx, fr, i) for i in range(4))
    )


def _p_sb_a(ctx, fr):
    return fr.cfl[4] >= 5 and _n3(ctx, fr) >= 1


def _p_sb_b(ctx, fr):
    return fr.cfl[4] >= 5 and _n4(ctx, fr) >= 2


# strong / good / support rules: frame generators guarantee the class


def _p_strong_a(ctx, fr):
    return (
        _n4(ctx, fr) >= 2 and sum(1 for i in (2, 4) if fr.cfl[i] >= 5) <= 1
    )


def _p_strong_b(ctx, fr):
    return (
        _in2c(ctx, fr, 0)
        and _in2c(ctx, fr, 1)
        and _n4(ctx, fr) >= 1
        and (fr.cfl[2] == 4 or fr.cfl[4] == 4)
    )


def _p_goodtwo(ctx, fr):
    return (
        ctx.bad_kind(fr.w[2]) == "semi-bad"
        and _n4(ctx, fr) == 1
        and _d(ctx, fr, 4) == 4
        and fr.cfl[3] >= 5
        and fr.cfl[4] >= 5
    )


def _p_good_a(ctx, fr):
    return _d(ctx, fr, 4) == 3


def _p_good_b(ctx, fr):
    return _d(ctx, fr, 3) == 4 and _d(ctx, fr, 4) == 4


def _p_good_c(ctx, fr):
    return fr.cfl[3] == 4 and fr.cfl[4] == 4


def _p_good_d1(ctx, fr):
    return _n4(ctx, fr) >= 1 and fr.cfl[3] == 4


def _p_good_d2(ctx, fr):
    return _n4(ctx, fr) >= 1 and fr.cfl[4] == 4


def _p_good_e(ctx, fr):
    return (
        ctx.bad_kind(fr.w[2]) == "semi-bad"
        and _in2c(ctx, fr, 2)
        and fr.cfl[3] == 4
    )


def _p_supp_a(ctx, fr):
    return (
        _n3(ctx, fr) == 1
        and fr.cfl[2] == 4
        and fr.cfl[3] == 4
        and fr.cfl[4] == 4
    )


def _p_supp_b1(ctx, fr):
    return (
        _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) == 1
        and fr.cfl[2] >= 5
        and fr.cfl[3] == 4
        and fr.cfl[4] == 4
    )


def _p_supp_b2(ctx, fr):
    c = fr.cfl
    return (
        _d(ctx, fr, 4) == 3
        and _n4(ctx, fr) == 1
        and c[2] == 4
        and (
            (c[3] >= 5 and c[4] == 4)
            or (c[3] == 4 and c[4] >= 5)
        )
    )


def _p_supp_c(ctx, fr):
    return (
        _d(ctx, fr, 4) == 3
        and _n3(ctx, fr) == 1
        and _n4(ctx, fr) == 2
        and any(fr.cfl[i] == 4 for i in (2, 3, 4))
    )


def _p_supp_d(ctx, fr):
    return (
        _d(ctx, fr, 3) == 3
        and _d(ctx, fr, 4) == 3
        and any(fr.cfl[i] == 4 for i in (2, 3, 4))
    )


# ======================================================================
# the table
# ======================================================================


def _deg_rule(rid, bound, degree, adds, pattern, pred):
    return ReductionRule(
        id=rid,
        pattern=pattern,
        delete="v",
        add_edges=adds,
        claimed_d2_bound=bound,
        kind="degree",
        degree=degree,
        pred=pred,
    )


def _family_rule(rid, family, adds, pattern, pred, bound=15):
    return ReductionRule(
        id=rid,
        pattern=pattern,
        delete="v",
        add_edges=adds,
        claimed_d2_bound=bound,
        kind=family,
        degree=5,
        pred=pred,
    )


_TABLE: tuple[ReductionRule, ...] = (
    _deg_rule("R-1v", 15, 1, (), "1-vertex", _true),
    _deg_rule("R-2v", 10, 2, (("v1", "v2"),), "2-vertex, bridge its ends", _true),
    _deg_rule(
        "R-3in3f", 13, 3, (("v2", "v3"),),
        "3-vertex on a triangle", _p_3in3f,
    ),
    _deg_rule(
        "R-3two4f", 13, 3, (("v1", "v3"),),
        "3-vertex on two distinct 4-faces", _p_3two4f,
    ),
    _deg_rule(
        "R-3adj4", 14, 3, (("v1", "v2"), ("v1", "v3")),
        "3-vertex with a neighbour of degree at most 4", _p_3adj4,
    ),
    _deg_rule(
        "R-4three3f", 14, 4, (("v1", "v4"),),
        "4-vertex on three triangles", _p_4three3f,
    ),
    _deg_rule(
        "R-4m2-4f-adj", 15, 4, (("v1", "v4"),),
        "4-vertex, adjacent triangle pair plus a 4-face", _p_4m2_4f_adj,
    ),
    _deg_rule(
        "R-4m2-4f-non", 15, 4, (("v3", "v4"),),
        "4-vertex, opposite triangles plus a 4-face", _p_4m2_4f_non,
    ),
    _deg_rule(
        "R-4m2-n5-adj", 15, 4, (("v2", "v4"),),
        "4-vertex, adjacent triangle pair and a sub-5 neighbour", _p_4m2_n5_adj,
    ),
    _deg_rule(
        "R-4m2-n5-non", 15, 4, (("v2", "v3"), ("v1", "v4")),
        "4-vertex, opposite triangles and a sub-5 neighbour", _p_4m2_n5_non,
    ),
    _deg_rule(
        "R-4comm-m1", 15, 4, (("v1", "v4"), ("v2", "v3")),
        "4-vertex, one shared triangle, 5+ face, two 4-faces", _p_4comm_m1,
    ),
    _deg_rule(
        "R-4comm-adj", 15, 4, (("v2", "v4"),),
        "4-vertex, adjacent triangles, shared edge in two triangles", _p_4comm_adj,
    ),
    _deg_rule(
        "R-4comm-non", 15, 4, (("v1", "v4"), ("v2", "v3")),
        "4-vertex, opposite triangles, shared edge in two triangles", _p_4comm_non,
    ),
    _deg_rule(
        "R-444", 15, 4, (("v1", "v3"), ("v1", "v4")),
        "4-vertex on a triangle with a 4-neighbour, few large corners", _p_444,
    ),
    _deg_rule(
        "R-455", 15, 4, (("v1", "v4"), ("v2", "v3")),
        "4-vertex on a triangle of 5-vertices, no large corner", _p_455,
    ),
    _deg_rule(
        "R-455n4-adj", 15, 4, (("v2", "v3"), ("v1", "v4")),
        "4-vertex, lone triangle of 5-vertices, small corners 1 and 2", _p_455n4_adj,
    ),
    _deg_rule(
        "R-455n4-non", 15, 4, (("v2", "v3"), ("v3", "v4")),
        "4-vertex, lone triangle of 5-vertices, large corner 2", _p_455n4_non,
    ),
    _family_rule(
        "R-5m5", "degree", (),
        "5-vertex on five triangles", _p_5m5,
    ),
    _family_rule(
        "R-5n5", "degree",
        (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex whose neighbours all have degree 3", _p_5n5,
    ),
    _family_rule(
        "R-5two4", "degree", (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, adjacent triangles, two 3-neighbours off them", _p_5two4,
    ),
    _family_rule(
        "R-5t4n-a1", "degree", (("v3", "v4"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, adjacent triangles, all frame-neighbours degree 4", _p_5t4n_a1,
    ),
    _family_rule(
        "R-5t4n-a2", "degree", (("v2", "v3"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, opposite triangles, all frame-neighbours degree 4", _p_5t4n_a2,
    ),
    _family_rule(
        "R-5t4n-b1", "degree", (("v5", "v2"), ("v5", "v3"), ("v1", "v4")),
        "5-vertex, adjacent triangles, three 4-faces", _p_5t4n_b1,
    ),
    _family_rule(
        "R-5t4n-b2", "degree", (("v2", "v3"), ("v4", "v5"), ("v1", "v5")),
        "5-vertex, opposite triangles, three 4-faces", _p_5t4n_b2,
    ),
    _family_rule(
        "R-5t4n-c1", "degree", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, two 4-neighbours", _p_5t4n_c1,
    ),
    _family_rule(
        "R-5t4n-c2", "degree", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, two 4-faces", _p_5t4n_c2,
    ),
    _family_rule(
        "R-5t4n-d", "degree", (("v4", "v5"), ("v5", "v1")),
        "5-vertex, three consecutive triangles, one large corner", _p_5t4n_d,
    ),
    _family_rule(
        "R-5n30-a1", "degree", (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, adjacent triangles, all neighbours degree 4", _p_5n30_a1,
    ),
    _family_rule(
        "R-5n30-a2", "degree", (("v2", "v3"), ("v4", "v5"), ("v5", "v1")),
        "5-vertex, opposite triangles, all neighbours degree 4", _p_5n30_a2,
    ),
    _family_rule(
        "R-5n30-b1", "degree", (("v3", "v4"), ("v5", "v1")),
        "5-vertex, split triangles, four-plus 4-neighbours", _p_5n30_b1,
    ),
    _family_rule(
        "R-5n30-b2", "degree", (("v2", "v5"), ("v2", "v4")),
        "5-vertex, consecutive triangles, four-plus 4-neighbours", _p_5n30_b2,
    ),
    _family_rule(
        "R-5m34-a", "quad", (("v5", "v1"),),
        "near-saturated 5-vertex, two 4-neighbours", _p_5m34_a,
    ),
    _family_rule(
        "R-5m34-b", "quad", (("v5", "v1"),),
        "bad-shaped 5-vertex, a 4-neighbour", _p_5m34_b,
    ),
    _family_rule(
        "R-5m34-c", "quad", (("v5", "v1"),),
        "bad-shaped 5-vertex, a ring edge in two triangles", _p_5m34_c,
    ),
    _family_rule(
        "R-5m34-d", "quad", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex, two ring edges in two triangles", _p_5m34_d,
    ),
    _family_rule(
        "R-5m34-e", "quad", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex, ring edge in two triangles, 4-neighbour",
        _p_5m34_e,
    ),
    _family_rule(
        "R-sb-a", "quad", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex with a 3-neighbour", _p_sb_a,
    ),
    _family_rule(
        "R-sb-b", "quad", (("v5", "v1"),),
        "semi-bad-shaped 5-vertex with two 4-neighbours", _p_sb_b,
    ),
    ReductionRule(
        id="R-deg",
        pattern="4-vertex wedged between triangles of a saturated 5-vertex",
        delete="v2",
        add_edges=(("v1", "x"), ("x", "v3")),
        claimed_d2_bound=15,
        kind="deg4",
        degree=5,
    ),
    ReductionRule(
        id="R-degmid",
        pattern="5-vertex opposite a saturated 5-vertex, own triangle behind",
        delete="v3",
        add_edges=(("v2", "x"), ("y", "v4")),
        claimed_d2_bound=15,
        kind="degmid",
        degree=5,
    ),
    _family_rule(
        "R-strong-a", "strong", (("v3", "v4"), ("v1", "v5")),
        "strong vertex, two 4-neighbours, one large corner", _p_strong_a,
    ),
    _family_rule(
        "R-strong-b", "strong", (("v3", "v4"), ("v1", "v5")),
        "strong vertex, pair edges in two triangles, a 4-neighbour", _p_strong_b,
    ),
    _family_rule(
        "R-goodtwo", "good", (("v1", "v5"), ("v4", "v5")),
        "good vertex with both middles semi-bad", _p_goodtwo,
    ),
    _family_rule(
        "R-good-a", "good", (("v4", "v5"), ("v5", "v1")),
        "good vertex with a 3-neighbour at the far slot", _p_good_a,
    ),
    _family_rule(
        "R-good-b", "good", (("v1", "v5"), ("v4", "v5")),
        "good vertex with two far 4-neighbours", _p_good_b,
    ),
    _family_rule(
        "R-good-c", "good", (("v1", "v4"), ("v3", "v5")),
        "good vertex with two far 4-faces", _p_good_c,
    ),
    _family_rule(
        "R-good-d1", "good", (("v1", "v4"), ("v2", "v5")),
        "good vertex, a 4-neighbour, 4-face at corner 3", _p_good_d1,
    ),
    _family_rule(
        "R-good-d2", "good", (("v1", "v4"), ("v3", "v5")),
        "good vertex, a 4-neighbour, 4-face at corner 4", _p_good_d2,
    ),
    _family_rule(
        "R-good-e", "good", (("v1", "v4"), ("v2", "v5")),
        "good vertex, second middle semi-bad on a doubled edge", _p_good_e,
    ),
    _family_rule(
        "R-supp-a", "support", (("v3", "v5"), ("v2", "v4")),
        "support vertex, one 3-neighbour, three 4-faces", _p_supp_a,
    ),
    _family_rule(
        "R-supp-b1", "support", (("v2", "v4"), ("v3", "v5"), ("v1", "v5")),
        "support vertex, 3-neighbour far, large corner 2", _p_supp_b1,
    ),
    _family_rule(
        "R-supp-b2", "support", (("v1", "v5"), ("v2", "v5"), ("v4", "v5")),
        "support vertex, 3-neighbour far, one large far corner", _p_supp_b2,
    ),
    _family_rule(
        "R-supp-c", "support", (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "support vertex, one 3- and two 4-neighbours", _p_supp_c,
    ),
    _family_rule(
        "R-supp-d", "support", (("v3", "v4"), ("v4", "v5"), ("v5", "v1")),
        "support vertex with two far 3-neighbours", _p_supp_d,
    ),
)

_BY_ID = {r.id: r for r in _TABLE}

# detection order: ascending claimed bound, table order on ties
_PRIORITY: tuple[ReductionRule, ...] = tuple(
    sorted(_TABLE, key=lambda r: r.claimed_d2_bound)
)


def rule_table() -> tuple[ReductionRule, ...]:
    """The full reducible-configuration table, in table order."""
    return _TABLE


# ======================================================================
# matching
# ======================================================================


def degree_overflow(g, deleted: int, edges) -> bool:
    """The degree-5 guard at detection: would some vertex pass degree 5
    once ``deleted`` goes and the missing ``edges`` are added?
    ``WorkingGraph.delete`` refuses the same steps when they are applied."""
    gain: dict[int, int] = {}
    for a, b in edges:
        if not g.has_edge(a, b):
            gain[a] = gain.get(a, 0) + 1
            gain[b] = gain.get(b, 0) + 1
    for x, extra in gain.items():
        newd = g.deg[x] - (1 if g.has_edge(x, deleted) else 0) + extra
        if newd > 5:
            return True
    return False


def _make_match(ctx: _Ctx, rule, binding: dict) -> Optional[ConfigMatch]:
    deleted = binding[rule.delete]
    edges = [(binding[a], binding[b]) for a, b in rule.add_edges]
    if degree_overflow(ctx.g, deleted, edges):
        return None
    observed = ctx.g.d2(deleted)
    if observed > rule.claimed_d2_bound:
        return None
    return ConfigMatch(
        rule_id=rule.id,
        binding=binding,
        claimed_bound=rule.claimed_d2_bound,
        observed_d2=observed,
    )


def _ring_binding(v: int, fr: _Frame) -> dict[str, int]:
    b = {"v": v}
    b.update(zip(_RING_ROLES, fr.w))
    return b


def _deg4_bindings(ctx: _Ctx, v: int) -> Iterator[dict]:
    # saturated frame at v; delete a degree-4 neighbour u = w1/w2/w3,
    # x is u's fourth neighbour, chords close x to u's triangle mates
    g = ctx.g
    for fr in _quad_frames(ctx, v):
        w = fr.w
        for i in (1, 2, 3):
            u = w[i]
            if ctx.deg[u] != 4:
                continue
            rest = [t for t in g.rotations[u] if t not in (v, w[i - 1], w[i + 1])]
            if len(rest) != 1:  # cannot happen: triangle mates are adjacent
                continue
            yield {"v": v, "v1": w[i - 1], "v2": u, "v3": w[i + 1], "x": rest[0]}


def _degmid_bindings(ctx: _Ctx, v: int) -> Iterator[dict]:
    # saturated frame at v; the middle neighbour u = w2 has degree 5
    # with rotation (.., b, v, a, c, d ..) and {a, b} = {w1, w3}; the
    # corner between c and d must be a triangle, its flanks at most 4
    for fr in _quad_frames(ctx, v):
        w = fr.w
        u = w[2]
        if ctx.deg[u] != 5:
            continue
        fu = ctx.frames(u)[0]  # u's rotation and its corner lengths
        rot, cl = fu.w, fu.cfl
        p = rot.index(v)
        a, c, d, b = (
            rot[(p + 1) % 5],
            rot[(p + 2) % 5],
            rot[(p + 3) % 5],
            rot[(p + 4) % 5],
        )
        if {a, b} != {w[1], w[3]}:
            continue  # cannot happen: the frame triangles force it
        # corners of u after v: (v,a)=p, (a,c)=p+1, (c,d)=p+2, (d,b)=p+3
        if cl[(p + 1) % 5] > 4 or cl[(p + 2) % 5] != 3 or cl[(p + 3) % 5] > 4:
            continue
        if a == w[1]:
            x, y = c, d
        else:
            x, y = d, c
        yield {"v": v, "v2": w[1], "v3": u, "v4": w[3], "x": x, "y": y}


def _center_matches(ctx: _Ctx, rule, v: int) -> Iterator[ConfigMatch]:
    """Matches of one rule centred at v, in frame order."""
    kind = rule.kind
    if kind == "deg4":
        bindings = _deg4_bindings(ctx, v)
    elif kind == "degmid":
        bindings = _degmid_bindings(ctx, v)
    else:
        if kind == "degree":
            frames = ctx.frames(v)
        elif kind in _FRAME_FAMILY:
            frames = _FRAME_FAMILY[kind](ctx, v)
        else:  # pragma: no cover - table construction error
            raise AssertionError(f"unknown matcher family {kind}")
        # the hottest loop of detection, so without a generator between
        # the frames and _make_match
        pred = rule.pred
        for fr in frames:
            if pred(ctx, fr):
                m = _make_match(ctx, rule, _ring_binding(v, fr))
                if m is not None:
                    yield m
        return
    for binding in bindings:
        m = _make_match(ctx, rule, binding)
        if m is not None:
            yield m


def iter_matches(g: PlaneGraph) -> Iterator[ConfigMatch]:
    """All verified matches, in detection priority order: rule rank,
    then centre vertex id, then frame.  This is a fresh ``MatchQueue``
    read to the end.

    Raises:
        DegreeTooHigh: some vertex has degree above 5.
    """
    if g.n > 1 and max(g.deg) > 5:
        raise DegreeTooHigh(f"max degree {max(g.deg)} > 5")
    yield from MatchQueue(g).matches()


class MatchQueue:
    """Matches in detection priority order (rule rank, then centre id,
    then frame) on a graph that changes in place.  ``iter_matches`` is a
    fresh queue read to the end.

    Each rule rank keeps a heap of centres still to examine.  A centre
    examined without a match leaves the heap until ``touch`` reports it
    within reach of a change; a centre whose matches were all refused
    stays.  Touched centres go to a log that each rank reads only when a
    search reaches it, so ranks past the first applicable match cost
    nothing.  A step touches a bounded ball, so the log stays within a
    constant times the number of vertices.

    A rank's heap is built when a search first reaches it, from the
    vertices of the rank's degree at that time, with the log read up to
    then.  A vertex whose degree changed since the queue was made is in
    the log, so this is the heap the queue would hold had it started
    with every rank filled.
    """

    def __init__(self, g) -> None:
        self._ctx = _Ctx(g)
        self._heaps: list[Optional[list[int]]] = [None] * len(_PRIORITY)
        self._queued: list[Optional[set[int]]] = [None] * len(_PRIORITY)
        self._log: list[int] = []
        self._read = [0] * len(_PRIORITY)

    def _first_visit(self, r: int) -> None:
        k = _PRIORITY[r].degree
        heap = [v for v, d in enumerate(self._ctx.deg) if d == k]  # sorted: a heap
        self._heaps[r], self._queued[r] = heap, set(heap)
        self._read[r] = len(self._log)

    def touch(self, changed, reach) -> None:
        """Report a step: ``changed`` vertices lose their memos, and
        ``reach`` vertices are examined again."""
        self._ctx.forget(changed)
        self._log.extend(reach)

    def matches(self) -> Iterator[ConfigMatch]:
        """Matches in priority order.  Close the iterator before the
        graph changes."""
        ctx, deg, log = self._ctx, self._ctx.deg, self._log
        for r, rule in enumerate(_PRIORITY):
            k = rule.degree
            if self._heaps[r] is None:
                self._first_visit(r)
            heap, queued = self._heaps[r], self._queued[r]
            for v in log[self._read[r] :]:
                if deg[v] == k and v not in queued:
                    queued.add(v)
                    heapq.heappush(heap, v)
            self._read[r] = len(log)
            kept: list[int] = []
            try:
                while heap:
                    v = heapq.heappop(heap)
                    found = False
                    if deg[v] == k:
                        for m in _center_matches(ctx, rule, v):
                            if not found:
                                found = True
                                kept.append(v)
                            yield m
                    if not found:
                        queued.discard(v)
            finally:
                for v in kept:
                    heapq.heappush(heap, v)


def detect(g: PlaneGraph) -> Optional[ConfigMatch]:
    """First reducible configuration in priority order, or None.

    Every returned match already passed the degree guard and the
    claimed d2 bound on the vertex to be deleted.
    """
    return next(iter_matches(g), None)

