"""One mutable plane graph, reduced in place.

``color16`` deletes one vertex per step and patches chords across the
hole it leaves.  ``WorkingGraph`` holds that graph with the stable
vertex ids of the input; a deleted vertex stays behind as a tombstone
with an empty rotation.  A step touches only the hole:

* the rotations of the deleted vertex's neighbours are patched;
* degrees are updated on the ring of the hole; d2 is not stored but
  counted from the rotations when detection asks for it;
* corner data is re-walked only around the hole: the corners next to
  the deleted vertex's slot in each patched rotation, and the corners
  of the 4-faces the deleted vertex was on.  Every other corner of a
  patched vertex is spliced along with its rotation, because a face
  the step did not touch keeps its length.

A corner holds the length of its face capped at 5: detection asks for
3-faces, 4-faces and 5+-faces, so no walk goes further than 5 darts, and
a walk that finds a longer face gives the length 5 to every corner it
passed and to the 4 before its start, so a long face through the hole is
usually walked once (a ring corner more than 4 corners back on the face
starts its own walk).  Lengths also settle the two questions of face
identity that detection asks: a vertex of degree at least 3 meets a face
of length at most 4 at one corner only, and the one face of a bridge is
never a triangle.

It answers the queries detection makes of a ``PlaneGraph`` (``deg``,
``rotations``, ``corner_lens``, ``has_edge``, ``edge_in_two_triangles``,
``d2``), so the predicates in ``configurations`` run on it unchanged.
"""

from __future__ import annotations

from itertools import chain

from .errors import DegreeOverflow, EmbeddingBroken
from .plane_graph import PlaneGraph, two_hop

__all__ = ["WorkingGraph"]

_CAP = 5  # face lengths are kept up to this value


def _targets_in_order(ring, u: int, targets) -> list[int]:
    """Order chord targets for u's rotation slot.

    The slot where the deleted vertex sat in rot(u) is replaced by the
    chord partners sorted by how far they sit past u in the deleted
    vertex's rotation ``ring``; that is the order in which the new edges
    fan across the hole, so the patched rotation stays a plane embedding.
    """
    d = len(ring)
    pu = ring.index(u)
    return sorted(targets, key=lambda t: (ring.index(t) - pu) % d)


def _crossing(chords, pos: dict[int, int]) -> bool:
    """Do two chords interleave around the hole?"""
    spans = [tuple(sorted((pos[a], pos[b]))) for a, b in chords]
    for i, (a, b) in enumerate(spans):
        for c, e in spans[i + 1 :]:
            if len({a, b, c, e}) == 4 and (a < c < b) != (a < e < b):
                return True
    return False


class WorkingGraph:
    """A plane graph with stable vertex ids, reduced one vertex at a time."""

    __slots__ = (
        "rotations",
        "deg",
        "n",
        "m",
        "_size",
        "_alive",
        "_dead_tree",
        "_clen",
    )

    def __init__(self, g: PlaneGraph) -> None:
        size = g.n
        self._size = size
        self.rotations = [list(row) for row in g.rotations]
        self.deg = [len(row) for row in self.rotations]
        self.n, self.m = g.n, g.m
        self._alive = bytearray(b"\x01") * size
        self._dead_tree = [0] * (size + 1)  # Fenwick tree over tombstones
        self._clen = self._initial_corner_lens(g)

    @staticmethod
    def _initial_corner_lens(g: PlaneGraph) -> list[list[int]]:
        face, rs = g.face_of_dart, g.rot_start
        flen = [min(ln, _CAP) for ln in g.face_lens]
        # corner i of v is traced by the dart v -> rot[v][i + 1]
        return [
            [flen[f] for f in face[rs[v] + 1 : rs[v + 1]] + face[rs[v] : rs[v] + 1]]
            for v in range(g.n)
        ]

    # ==================================================================
    # queries made by detection
    # ==================================================================

    def d2(self, v: int) -> int:
        return len(two_hop(self.rotations, v))

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotations[u]

    def corner_lens(self, v: int) -> tuple[int, ...]:
        """Face length in each corner of v, capped at 5."""
        return tuple(self._clen[v])

    def edge_in_two_triangles(self, u: int, v: int) -> bool:
        # the dart u -> rot[u][i] traces the face of corner i - 1; a
        # bridge's one face is never a triangle, so two 3-sides are two faces
        clen, rot = self._clen, self.rotations
        return clen[u][rot[u].index(v) - 1] == 3 and clen[v][rot[v].index(u) - 1] == 3

    # ==================================================================
    # other queries
    # ==================================================================

    def n2(self, v: int) -> set[int]:
        """Vertices within distance two of v, v excluded."""
        return two_hop(self.rotations, v)

    def alive(self) -> list[int]:
        """Live vertices in ascending id order."""
        return [v for v in range(self._size) if self._alive[v]]

    def label(self, v: int) -> int:
        """v's id in the dense relabelling of the live vertices."""
        tree = self._dead_tree
        i, below = v, 0
        while i > 0:
            below += tree[i]
            i -= i & -i
        return v - below

    def to_plane_graph(self) -> PlaneGraph:
        """The live part as a freshly built ``PlaneGraph``, densely relabelled."""
        live = self.alive()
        dense = {v: i for i, v in enumerate(live)}
        return PlaneGraph([[dense[u] for u in self.rotations[v]] for v in live])

    # ==================================================================
    # the reduction step
    # ==================================================================

    def delete(self, dv: int, chords, rule: str = "") -> tuple[set, set]:
        """Delete dv and add ``chords`` (pairs of dv's neighbours) in its hole.

        Refuses the step whenever two chords cross in the hole, even at
        a cut vertex, where the reduced graph could still be plane: no
        rule whose chords cross matches at a cut vertex.  Chords that do
        not cross are refused exactly when rebuilding the reduced graph
        from scratch would lose a distance-two pair, fail to shrink, or
        pass degree 5 at a patched vertex.  A refused step leaves the
        graph unchanged.

        Returns dv's distance-two ball before the step and the vertices
        within reach of any change for detection: distance two of a
        patched rotation, which covers every vertex whose d2 changed,
        and distance one of a vertex whose corner data changed.

        Raises:
            EmbeddingBroken: a pair of dv's neighbours ends up more
                than two apart, two chords cross, or the size does not
                drop.
            DegreeOverflow: a patched vertex passes degree 5.
        """
        rot = self.rotations
        ring = rot[dv]
        d = len(ring)
        fan: dict[int, list[int]] = {}  # chord targets of a ring vertex
        for a, b in chords:
            if a not in ring or b not in ring:
                raise ValueError(
                    f"rule {rule}: a chord end is not a neighbour of {dv}"
                )
            fan.setdefault(a, []).append(b)
            fan.setdefault(b, []).append(a)
        new: dict[int, list[int]] = {}
        slot: dict[int, tuple[int, int]] = {}  # dv's slot, the targets there
        for w in ring:
            targets = fan.get(w, ())
            if len(targets) > 1:  # in the order they fan out
                targets = _targets_in_order(ring, w, targets)
            row = rot[w].copy()
            i = row.index(dv)
            row[i : i + 1] = targets
            slot[w] = i, len(targets)
            new[w] = row

        # paths of length <= 2 that avoid dv survive and chords only add
        # paths, so only pairs of dv's neighbours can fall apart; once
        # they all stay within two, the reduced graph is also connected
        for i, a in enumerate(ring):
            row = new[a]
            near = None
            for b in ring[i + 1 :]:
                if b in row:
                    continue
                if near is None:
                    near = set(row)
                if near.isdisjoint(new[b]):
                    raise EmbeddingBroken(
                        f"rule {rule}: a distance-two pair fell apart"
                    )
        if len(chords) > 1 and _crossing(chords, {w: i for i, w in enumerate(ring)}):
            raise EmbeddingBroken(f"rule {rule} at {dv}: the chords cross")
        if len(chords) > d:
            raise EmbeddingBroken(f"rule {rule}: size did not drop")
        for w in ring:
            if len(new[w]) > 5:
                raise DegreeOverflow(f"rule {rule}: vertex {w} would pass degree 5")

        # each new row is w's old row with dv replaced by ring vertices,
        # so the rows and the ring together are dv's distance-two ball
        ball = set(chain.from_iterable(new.values()))
        ball.update(ring)
        clen = self._clen
        changed = set(ring)
        # a triangle at dv has its other corners next to dv's slots, and
        # a longer face has length 5 at every corner, so only the 4-faces
        # at dv leave short lengths elsewhere: on the ring they are walked
        # again, and off it they take length 5 unless a walk below finds
        # a short face
        for i, ln in enumerate(clen[dv]):
            if ln == 4:
                for y, j in self._walk(dv, i)[1]:
                    if y in slot:
                        clen[y][j] = None
                    elif y != dv:
                        clen[y][j] = _CAP
                        changed.add(y)

        for w, row in new.items():
            # splice w's corner lengths as its rotation was spliced:
            # corners away from the slot keep their lengths, the k + 1
            # around it are walked again
            s, k = slot[w]
            lens = clen[w]
            lens[s : s + 1] = [None] * k
            if lens:
                lens[s - 1] = None
            rot[w] = row
            self.deg[w] = len(row)
        rot[dv] = []
        clen[dv] = []
        self.deg[dv] = 0
        self._alive[dv] = 0
        i = dv + 1
        while i <= self._size:
            self._dead_tree[i] += 1
            i += i & -i
        self.n -= 1
        self.m += len(chords) - d

        # every corner of a long face already has length 5, so only a
        # short face changes a vertex
        for w in ring:
            lens = clen[w]
            for i, ln in enumerate(lens):
                if ln is None:
                    ln, corners = self._walk(w, i)
                    if ln < _CAP:
                        for y, j in corners:
                            clen[y][j] = ln
                            changed.add(y)
                        continue
                    for y, j in corners:
                        clen[y][j] = _CAP
                    # the corners passed took length 5; so do the 4 before
                    # (w, i) on this long face, so that no walk starts there
                    # (the face reaches corner (y, j) from rot[y][j])
                    y, j = w, i
                    for _ in range(_CAP - 1):
                        x = rot[y][j]
                        r = rot[x]
                        y, j = x, (r.index(y) - 1) % len(r)
                        clen[y][j] = _CAP
        # N2[ring] | N1[changed], as N1[N1(ring) | changed]
        near = ball | changed
        reach = set(chain.from_iterable(map(rot.__getitem__, near)))
        reach |= near
        return ball, reach

    def _walk(self, v: int, i: int):
        """Walk the face of corner i at v for at most 5 corners.

        Returns the face's length capped at 5 and the corners passed, as
        (vertex, index) pairs: every corner of a face of length at most
        4, and the first 5 of a longer one.
        """
        rot = self.rotations
        r = rot[v]
        x, y = v, r[(i + 1) % len(r)]
        corners = [(v, i)]
        while True:
            r = rot[y]
            j = r.index(x)
            if y == v and j == i:
                return len(corners), corners
            corners.append((y, j))
            if len(corners) == _CAP:
                return _CAP, corners
            x, y = y, r[(j + 1) % len(r)]
