"""The frame shapes every frame rule accepts, pinned by digest.

A frame rule is any rule of the table but the two binding rules
``R-deg`` and ``R-degmid``.  Its shapes are synthetic frames of a centre
of the rule's degree d: corner lengths in {3, 4, 5}^d, capped so that 5
stands for "5 or more" (a 1-vertex's frame carries no corner), and ring
degrees in {2, 3, 4, 5}^d.  What a predicate reads besides degrees is
fixed by a *world*: which ring chords w_i w_(i+1) lie in two triangles
(``in2``) and the ``bad_kind`` of each ring position.  Each frame goes
through ``center_matches`` (tests/test_working_graph.py) on a stand-in
context whose graph has every chord and d2 = 0, so a match says the
rule accepts the frame.

``rule_shapes.json`` holds, per world and rule, the count and the sha256
of the accepted set.  The pins were written by
``python3 tests/test_rule_shapes.py`` with ``src`` on the path at commit
bd63818, whose rules wrote their corner conditions by hand: the script
tries every corner tuple of {3, 4, 5}^d.  The tests try only
``rule.corners`` and the tuples one corner away from it, which must all
be refused.
"""

import hashlib
import json
from functools import lru_cache
from itertools import product
from pathlib import Path

import pytest

from planecolor import configurations
from planecolor.configurations import rule_table
from test_working_graph import center_matches

PINNED = Path(__file__).with_name("rule_shapes.json")
LENGTHS = (3, 4, 5)
DEGREES = (2, 3, 4, 5)
BINDING_RULES = ("R-deg", "R-degmid")
FRAME_RULES = tuple(r for r in rule_table() if r.id not in BINDING_RULES)

# world: (in2 of ring chord i, bad_kind of ring position i), i < 5; the
# all-semi-bad world is the one where the good rules fire
WORLDS = {
    "plain": ((False,) * 5, (None,) * 5),
    "all-semi-bad": ((True,) * 5, ("semi-bad",) * 5),
    "all-bad": ((True,) * 5, ("bad",) * 5),
    "mixed": ((True, True, False, False, False), (None, "semi-bad", "bad", None, None)),
}


def corner_domain(d: int) -> list[tuple]:
    """Every capped corner tuple a frame of degree d can carry."""
    return list(product(LENGTHS, repeat=d if d > 1 else 0))


class _EveryChord:
    """A graph with every edge and nothing within distance two."""

    def has_edge(self, a, b):
        return True

    def d2(self, v):
        return 0


class WorldCtx:
    """The queries detection makes, answered for synthetic frames.

    Vertex 0 is the centre and frame j labels the ring j*d + 1 .. j*d + d,
    so a match's binding tells which frame it came from.  ``deg`` is set
    per ring-degree tuple.
    """

    def __init__(self, d: int, corner_tuples, world: str) -> None:
        self.g = _EveryChord()
        self.d = d
        self.deg: list[int] = []
        self._corners = corner_tuples
        self._in2, self._bad = WORLDS[world]

    def shown(self, v, corners):
        return [k for k, c in enumerate(self._corners) if c in corners]

    def frame(self, v, k):
        return tuple(range(k * self.d + 1, k * self.d + self.d + 1))

    def in2(self, a, b):
        pa, pb = (a - 1) % self.d, (b - 1) % self.d
        if (pa + 1) % self.d == pb:
            return self._in2[pa]
        if (pb + 1) % self.d == pa:
            return self._in2[pb]
        return False

    def bad_kind(self, u):
        return self._bad[(u - 1) % self.d]


def accepted(rule, world: str, corner_tuples) -> list:
    """Sorted (corners, ring degrees) of every frame the rule accepts."""
    d = rule.degree
    corner_tuples = list(corner_tuples)
    ctx = WorldCtx(d, corner_tuples, world)
    out = []
    for degs in product(DEGREES, repeat=d):
        ctx.deg = [d] + list(degs) * len(corner_tuples)
        for m in center_matches(ctx, rule, 0):
            out.append((corner_tuples[(m.binding["v1"] - 1) // d], degs))
    return sorted(out)


def pin(shapes: list) -> dict:
    text = json.dumps(shapes, separators=(",", ":"))
    return {"count": len(shapes), "sha256": hashlib.sha256(text.encode()).hexdigest()}


def one_away(corners) -> set:
    """Corner tuples outside ``corners`` that differ from one of them in
    one corner."""
    return {
        c[:i] + (x,) + c[i + 1 :]
        for c in corners
        for i in range(len(c))
        for x in LENGTHS
    } - corners


@lru_cache(maxsize=None)
def shapes() -> dict:
    """world -> rule id -> accepted shapes over ``rule.corners`` and the
    tuples one corner away."""
    return {
        world: {
            r.id: accepted(r, world, sorted(r.corners | one_away(r.corners)))
            for r in FRAME_RULES
        }
        for world in WORLDS
    }


@pytest.mark.parametrize("world", WORLDS)
def test_accepted_shapes_match_the_pins(world):
    pinned = json.loads(PINNED.read_text())[world]
    got = {rid: pin(s) for rid, s in shapes()[world].items()}
    assert set(got) == set(pinned)
    assert [rid for rid in got if got[rid] != pinned[rid]] == []


@pytest.mark.parametrize("rule", FRAME_RULES, ids=lambda r: r.id)
def test_corners_one_away_are_refused(rule):
    seen = {c for world in WORLDS for c, _ in shapes()[world][rule.id]}
    assert seen - rule.corners == set()


@pytest.mark.parametrize("rule", FRAME_RULES, ids=lambda r: r.id)
def test_every_rule_can_fire(rule):
    assert rule.corners
    if rule.family == "degree":
        family = set(corner_domain(rule.degree))
    else:
        family = configurations._FAMILIES[rule.family][0]
    assert rule.corners <= family
    assert any(shapes()[world][rule.id] for world in WORLDS)


def test_every_class_opens_on_a_triangle_pair():
    # classify_special skips the frames of a 5-vertex without one
    for corners, _ in configurations._FAMILIES.values():
        assert corners and all(c[:2] == (3, 3) for c in corners)


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        world: {
            r.id: pin(accepted(r, world, corner_domain(r.degree)))
            for r in FRAME_RULES
        }
        for world in WORLDS
    }, indent=1) + "\n")
    print(f"wrote {PINNED}")
