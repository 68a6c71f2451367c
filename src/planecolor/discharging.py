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

# R3, R4 and R5: what a big face pays an incident vertex, by its degree
_BIG_FACE_PAYS = {3: ("R3", THIRD), 4: ("R4", FIFTH), 5: ("R5", FIFTH)}


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
    moves: list[tuple] = []
    after, _ = _transfer_pass(g, moves)
    keys = [("vertex", v) for v in range(g.n)]
    keys += [("face", f) for f in range(g.num_faces)]
    return after, [TransferRecord(r, keys[s], keys[t], a) for r, s, t, a in moves]


def _transfer_pass(
    g: PlaneGraph, moves: Optional[list] = None
) -> tuple[ChargeLedger, int]:
    """The pass behind ``apply_rules`` and ``audit``: the final ledger and
    the number of transfers.  Each transfer moves its charge as it is
    made; given a list ``moves``, it is also appended there as a tuple
    (rule, giver, taker, amount) whose giver and taker are vertex v as v
    and face f as n + f."""
    led = initial_charges(g)
    n, keep, count = g.n, moves is not None, 0
    # vertex v is entry v and face f entry n + f of the charges
    charge = list(led.vertices) + list(led.faces)
    ctx, deg, flen = _Ctx(g), g.deg, g.face_lens
    rots, rs, fod = g.rotations, g.rot_start, g.face_of_dart

    # the distinct faces around each vertex, ascending
    faces_at = [sorted(set(fod[rs[v] : rs[v + 1]])) for v in range(n)]

    # R1: every vertex pays 1/3 to each incident 3-face, which it meets
    # at one corner; recorded by face, then vertex
    paid = []
    for v in range(n):
        for f in faces_at[v]:
            if flen[f] == 3:
                charge[v] -= THIRD
                charge[n + f] += THIRD
                count += 1
                if keep:
                    paid.append((f, v))
    if keep:
        moves += [("R1", v, n + f, THIRD) for f, v in sorted(paid)]

    # R2: every 5-vertex pays 1/9 to each 3-neighbour
    for v in range(n):
        if deg[v] == 3:
            for u in sorted(rots[v]):
                if deg[u] == 5:
                    charge[u] -= NINTH
                    charge[v] += NINTH
                    count += 1
                    if keep:
                        moves.append(("R2", u, v, NINTH))

    # R3 / R4: big faces pay their small incident vertices; then R5 / R6:
    # they pay incident 5-vertices, less when the face carries one of
    # the vertex's 3-neighbours
    fives = [v for v in range(n) if deg[v] == 5]
    for v in [v for v in range(n) if deg[v] in (3, 4)] + fives:
        near3 = deg[v] == 5 and {
            f for u in rots[v] if deg[u] == 3 for f in faces_at[u]
        }
        for fid in faces_at[v]:
            if flen[fid] < 5:
                continue
            if near3 and fid in near3:
                rule, amt = "R6", NINTH
            else:
                rule, amt = _BIG_FACE_PAYS[deg[v]]
            charge[n + fid] -= amt
            charge[v] += amt
            count += 1
            if keep:
                moves.append((rule, n + fid, v, amt))

    # R7: a 5-vertex with at most three incident 3-faces pays each
    # 4-neighbour per big face along their shared edge, the darts
    # v -> u and u -> v (one face for a bridge)
    for v in fives:
        if sum(flen[f] == 3 for f in faces_at[v]) > 3:
            continue
        for u in sorted(rots[v]):
            if deg[u] != 4:
                continue
            f1 = fod[rs[v] + rots[v].index(u)]
            f2 = fod[rs[u] + rots[u].index(v)]
            big = (flen[f1] >= 5) + (f2 != f1 and flen[f2] >= 5)
            if not big:
                continue
            rule, amt = ("R7a", FIFTEENTH) if big == 1 else ("R7b", TWO_FIFTEENTHS)
            charge[v] -= amt
            charge[u] += amt
            count += 1
            if keep:
                moves.append((rule, v, u, amt))

    # R8-R10: the degree-5 taxonomy pays its bad or semi-bad charges
    for v in fives:
        sc = _classify(ctx, v)
        if sc is None:
            continue
        w = sc.ring
        pays = []  # (rule, taker, amount)
        if sc.kind == "strong":
            doubled = ctx.in2(w[0], w[1]) + ctx.in2(w[1], w[2])
            if doubled == 1:
                pays.append(("R8a", w[1], TWO_FIFTEENTHS))
            elif doubled == 2:
                pays.append(("R8b", w[1], FIFTH))
        elif sc.kind == "good":
            pays.append(("R9", w[1], FIFTH))
            if ctx.bad_kind(w[2]) == "semi-bad":
                pays.append(("R9", w[2], FIFTH))
        elif sc.kind == "support":
            pays += [
                ("R10", u, THIRD)
                for u in sorted(rots[v])
                if ctx.bad_kind(u) is not None and ctx.in2(v, u)
            ]
        for rule, u, amt in pays:
            charge[v] -= amt
            charge[u] += amt
            count += 1
            if keep:
                moves.append((rule, v, u, amt))

    after = ChargeLedger(vertices=tuple(charge[:n]), faces=tuple(charge[n:]))
    if after.total() != TOTAL:  # tripwire: moves cannot change the sum
        raise AssertionError(
            f"transfers broke conservation: {_fmt(after.total())}"
        )
    return after, count


def audit(g: PlaneGraph) -> dict:
    """Run the full discharging audit on one graph.

    The verdict field ``falsification`` is True only if no vertex or
    face ends negative AND no reducible configuration exists; a single
    such graph would disprove the engine's claim, so callers should
    treat it as a hard failure.

    Raises:
        BadArgument: g is not a PlaneGraph.
        DegreeTooHigh: some vertex has degree above 5 (from ``detect``,
            which runs before the transfer pass).
    """
    match = detect(g)
    return _report(g, *_transfer_pass(g), match)


def _report(g: PlaneGraph, after: ChargeLedger, transfers: int, match) -> dict:
    """The audit of g, from its transfer pass (the ledger and the count)
    and ``detect(g)``."""
    # the negatives in ``after.negatives()`` order, each distinct charge
    # formatted once
    text: dict[int, str] = {}
    negatives = []
    for kind, charges in (("vertex", after.vertices), ("face", after.faces)):
        for i, c in enumerate(charges):
            if c < 0:
                s = text.get(c)
                if s is None:
                    s = text[c] = _fmt(c)
                negatives.append({"kind": kind, "id": i, "charge": s})
    return {
        "n": g.n,
        "m": g.m,
        "faces": g.num_faces,
        "initial_total": _fmt(TOTAL),
        "final_total": _fmt(after.total()),
        "conservation": "-8" if after.total() == TOTAL else _fmt(after.total()),
        "transfers": transfers,
        "negatives": negatives,
        "configuration": match.to_json() if match is not None else None,
        "falsification": (match is None) and not negatives,
    }
