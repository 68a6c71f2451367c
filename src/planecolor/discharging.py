"""Charge bookkeeping over vertices and faces, in exact arithmetic.

Initial charge is d(v)-4 on a vertex and len(f)-4 on a face; over any
plane graph the grand total is -8.  Ten local transfer rules then move
charge around without creating or destroying any.  The auditor applies
one static pass of the rules and reports who ends up negative; if
nothing is negative and no reducible configuration exists either, the
engine's core claim would be falsified, which the audit flags loudly.

All amounts are integers scaled by 45, the common denominator of the
rule fractions (1/3 = 15, 1/9 = 5, 1/5 = 9, 1/15 = 3, 2/15 = 6), so
conservation checks are exact integer equality.
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .configurations import _classify, _Ctx, detect
from .errors import EulerIdentityViolated
from .plane_graph import PlaneGraph, require_graph

__all__ = [
    "DENOM",
    "AMOUNTS",
    "ChargeLedger",
    "TransferRecord",
    "initial_charges",
    "apply_rules",
    "audit",
]

DENOM = 45
TOTAL = -8 * DENOM

THIRD = 15
NINTH = 5
FIFTH = 9
FIFTEENTH = 3
TWO_FIFTEENTHS = 6

AMOUNTS = frozenset({THIRD, NINTH, FIFTH, FIFTEENTH, TWO_FIFTEENTHS})


def _fmt(p: int) -> str:
    return f"{p}/{DENOM}"


class TransferRecord(NamedTuple):
    """One charge movement: rule name, giver, taker, amount in 45ths."""

    rule: str
    source: tuple[str, int]
    sink: tuple[str, int]
    amount: int

    def to_json(self) -> dict:
        return {
            "rule": self.rule,
            "source": list(self.source),
            "sink": list(self.sink),
            "amount": _fmt(self.amount),
        }


class ChargeLedger(NamedTuple):
    """Charges in 45ths for every vertex and face."""

    vertices: tuple[int, ...]
    faces: tuple[int, ...]

    def total(self) -> int:
        return sum(self.vertices) + sum(self.faces)

    def negatives(self) -> list[tuple[str, int, int]]:
        out = [
            ("vertex", v, c) for v, c in enumerate(self.vertices) if c < 0
        ]
        out += [("face", f, c) for f, c in enumerate(self.faces) if c < 0]
        return out

    def to_json(self) -> dict:
        return {
            "vertices": {str(v): _fmt(c) for v, c in enumerate(self.vertices)},
            "faces": {str(f): _fmt(c) for f, c in enumerate(self.faces)},
            "total": _fmt(self.total()),
        }


def initial_charges(g: PlaneGraph) -> ChargeLedger:
    """d-4 per vertex, len-4 per face, scaled by 45.

    Raises:
        BadArgument: g is not a PlaneGraph.
        EulerIdentityViolated: the grand total is not exactly -8, which
            a plane graph cannot produce.
    """
    require_graph(g)
    verts = tuple(DENOM * (d - 4) for d in g.deg)
    faces = tuple(DENOM * (ln - 4) for ln in g.face_lens)
    led = ChargeLedger(vertices=verts, faces=faces)
    if led.total() != TOTAL:
        raise EulerIdentityViolated(
            f"initial charges total {_fmt(led.total())}, want {_fmt(TOTAL)}"
        )
    return led


def apply_rules(
    g: PlaneGraph,
) -> tuple[ChargeLedger, list[TransferRecord]]:
    """One static pass of the ten transfer rules.

    Rules fire off the graph's structure alone, so a single pass is
    complete; order is rule-major with ascending ids purely to make the
    record list deterministic.  Returns the final ledger and every
    transfer made.

    Raises:
        BadArgument: g is not a PlaneGraph (from ``initial_charges``).
    """
    after, moves = _transfer_pass(g)
    keys = [("vertex", v) for v in range(g.n)]
    keys += [("face", f) for f in range(g.num_faces)]
    return after, [TransferRecord(r, keys[s], keys[t], a) for r, s, t, a in moves]


def _transfer_pass(g: PlaneGraph) -> tuple[ChargeLedger, list[tuple]]:
    """The pass behind ``apply_rules``, with each transfer as a tuple
    (rule, giver, taker, amount) whose giver and taker are vertex v as
    v and face f as n + f."""
    led = initial_charges(g)
    n = g.n
    moves: list[tuple] = []
    move = moves.append
    ctx = _Ctx(g)
    deg = g.deg
    flen = g.face_lens

    rots, rs, fod = g.rotations, g.rot_start, g.face_of_dart

    # R1: every vertex pays 1/3 to each incident 3-face.  Faces are
    # numbered by their least dart, so in dart order each face first
    # shows up in id order, at the dart v -> u its walk starts from;
    # the walk goes on to the neighbour after v in u's rotation.
    nxt_face = 0
    for v, row in enumerate(rots):
        for p, u in enumerate(row, rs[v]):
            f = fod[p]
            if f != nxt_face:
                continue
            nxt_face += 1
            if flen[f] == 3:
                r = rots[u]
                w = r[(r.index(v) + 1) % deg[u]]
                for x in sorted((v, u, w)):
                    move(("R1", x, n + f, THIRD))

    # R2: every 5-vertex pays 1/9 to each 3-neighbour
    for v in range(n):
        if deg[v] != 3:
            continue
        for u in sorted(rots[v]):
            if deg[u] == 5:
                move(("R2", u, v, NINTH))

    # the distinct faces around each vertex, ascending
    faces_at = [sorted(set(fod[rs[v] : rs[v + 1]])) for v in range(n)]

    # R3 / R4: big faces pay their small incident vertices
    for v in range(n):
        if deg[v] == 3:
            for fid in faces_at[v]:
                if flen[fid] >= 5:
                    move(("R3", n + fid, v, THIRD))
        elif deg[v] == 4:
            for fid in faces_at[v]:
                if flen[fid] >= 5:
                    move(("R4", n + fid, v, FIFTH))

    # R5 / R6: big faces pay incident 5-vertices, less when the face
    # carries one of the vertex's 3-neighbours
    for v in range(n):
        if deg[v] != 5:
            continue
        small_nbrs = [u for u in rots[v] if deg[u] == 3]
        for fid in faces_at[v]:
            if flen[fid] < 5:
                continue
            if any(fid in faces_at[u] for u in small_nbrs):
                move(("R6", n + fid, v, NINTH))
            else:
                move(("R5", n + fid, v, FIFTH))

    # R7: a 5-vertex with at most three incident 3-faces pays each
    # 4-neighbour per big face along their shared edge, the darts
    # v -> u and u -> v (one face for a bridge)
    for v in range(n):
        if deg[v] != 5 or sum(flen[f] == 3 for f in faces_at[v]) > 3:
            continue
        for u in sorted(rots[v]):
            if deg[u] != 4:
                continue
            f1 = fod[rs[v] + rots[v].index(u)]
            f2 = fod[rs[u] + rots[u].index(v)]
            big = (flen[f1] >= 5) + (f2 != f1 and flen[f2] >= 5)
            if big == 1:
                move(("R7a", v, u, FIFTEENTH))
            elif big == 2:
                move(("R7b", v, u, TWO_FIFTEENTHS))

    # R8-R10: the degree-5 taxonomy pays its bad or semi-bad charges
    for v in range(n):
        if deg[v] != 5:
            continue
        sc = _classify(ctx, v)
        if sc is None:
            continue
        w = sc.ring
        if sc.kind == "strong":
            doubled = ctx.in2(w[0], w[1]) + ctx.in2(w[1], w[2])
            if doubled == 1:
                move(("R8a", v, w[1], TWO_FIFTEENTHS))
            elif doubled == 2:
                move(("R8b", v, w[1], FIFTH))
        elif sc.kind == "good":
            move(("R9", v, w[1], FIFTH))
            if ctx.bad_kind(w[2]) == "semi-bad":
                move(("R9", v, w[2], FIFTH))
        elif sc.kind == "support":
            for u in sorted(rots[v]):
                if ctx.bad_kind(u) is not None and ctx.in2(v, u):
                    move(("R10", v, u, THIRD))

    # vertex v is entry v and face f entry n + f of the charges
    charge = list(led.vertices) + list(led.faces)
    for _, src, dst, amt in moves:
        charge[src] -= amt
        charge[dst] += amt
    after = ChargeLedger(vertices=tuple(charge[:n]), faces=tuple(charge[n:]))
    if after.total() != TOTAL:  # tripwire: moves cannot change the sum
        raise AssertionError(
            f"transfers broke conservation: {_fmt(after.total())}"
        )
    return after, moves


def audit(g: PlaneGraph) -> dict:
    """Run the full discharging audit on one graph.

    The verdict field ``falsification`` is True only if no vertex or
    face ends negative AND no reducible configuration exists; a single
    such graph would disprove the engine's claim, so callers should
    treat it as a hard failure.

    Raises:
        BadArgument: g is not a PlaneGraph (from ``initial_charges``).
    """
    return _report(g, *_transfer_pass(g))


def _report(g: PlaneGraph, after: ChargeLedger, transfers: list) -> dict:
    """The audit of g, from its transfer pass."""
    match = detect(g)
    negatives = [
        {"kind": kind, "id": i, "charge": _fmt(c)}
        for kind, i, c in after.negatives()
    ]
    return {
        "n": g.n,
        "m": g.m,
        "faces": g.num_faces,
        "initial_total": _fmt(TOTAL),
        "final_total": _fmt(after.total()),
        "conservation": "-8" if after.total() == TOTAL else _fmt(after.total()),
        "transfers": len(transfers),
        "negatives": negatives,
        "configuration": match.to_json() if match is not None else None,
        "falsification": (match is None) and not negatives,
    }
