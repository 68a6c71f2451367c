"""One mutable plane graph, reduced in place.

``color16`` deletes one vertex per step and patches chords across the
hole it leaves.  ``WorkingGraph`` holds that graph with the stable
vertex ids of the input; a deleted vertex stays behind as a tombstone
with an empty rotation.  A step touches only the hole:

* the rotations of the deleted vertex's neighbours are patched;
* degrees are updated on the ring of the hole; d2 is not stored but
  counted from the rotations when detection asks for it;
* faces are merged, not walked.

A corner holds the id of its face, and a union-find table holds each
face's exact length at its root: ``array('i')`` of parents and of
lengths, and an ``array('b')`` of the lengths capped at 5, which reads
0 away from a root.  Every face that met the deleted vertex ends up
whole inside one new face, so a step only unites face ids and sets the
new lengths, which it works out from the deleted vertex's corner faces
and the chords alone: the chords cut the hole into regions, nested as
intervals over the deleted vertex's corners, and a region's face has
the length of its old faces together, less 2 for each of its corners,
plus 1 for each chord side it has.  A region of chords alone is a new
face.  Regions merge one after another, and a merge counts each face
once, whatever ids stand for it, so a region that shares an old face
with an earlier one (at a cut vertex) takes in that one's face whole.
A patched rotation splices its corner ids as it splices its
neighbours: the corners beside the deleted vertex's slot take the id
of their new face, and the corners between two chords at one vertex
are new.  Every other corner keeps its id and reads the new length
through the table; a corner whose id is no longer a root is pointed
at the root when it is next read.

Detection asks for 3-faces, 4-faces and 5+-faces, so ``corner_lens``
reads the capped lengths.  Lengths also settle the two questions of face
identity that detection asks: a vertex of degree at least 3 meets a
face of length at most 4 at one corner only, and the one face of a
bridge is never a triangle.

It answers the queries detection makes of a ``PlaneGraph`` (``deg``,
``rotations``, ``corner_lens``, ``has_edge``, ``edge_in_two_triangles``,
``d2``), so the predicates in ``configurations`` run on it unchanged.
A step reports as its reach the deleted vertex's distance-two ball,
which it already holds: every centre whose own corners, ring, ring
degrees, ring ``in2`` or d2 can change lies in it, but near a deleted
leaf's face that comes out of length at most 4.  That face lies in the
distance-two ball of the leaf's neighbour, so the step adds that ball
and its neighbours, and walks no face.
The rules that also read a ring vertex's corners or rotation look one
step further, so the match queue puts the reach's neighbours back at
the first of those rules' ranks.
"""

from __future__ import annotations

from array import array
from math import isqrt

from .errors import DegreeOverflow, EmbeddingBroken
from .plane_graph import PlaneGraph, two_hop

__all__ = ["WorkingGraph"]


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


def _root(up, f: int) -> int:
    """The root of face id f, halving the path to it."""
    while up[f] != f:
        up[f] = f = up[up[f]]
    return f


def _merge(up, flen, cap, faces, cut: int) -> int:
    """Unite the faces that the ids ``faces`` stand for into one face,
    ``cut`` shorter than they are together, and return its id.  An id
    may repeat, or stand for a face merged into another since it was
    read: each face counts once.  The longest keeps its id, so that the
    corners far from the hole, most of them on long faces, still read a
    root."""
    root = faces[0] if cap[faces[0]] else _root(up, faces[0])
    total = flen[root] - cut
    for f in faces[1:]:
        if not cap[f]:  # merged since it was read, or earlier in this call
            f = _root(up, f)
        if f == root:
            continue
        total += flen[f]
        if flen[f] > flen[root]:
            f, root = root, f
        up[f] = root
        cap[f] = 0
    flen[root] = total
    cap[root] = total if total < 5 else 5
    return root


class WorkingGraph:
    """A plane graph with stable vertex ids, reduced one vertex at a time."""

    __slots__ = (
        "rotations",
        "deg",
        "n",
        "m",
        "_size",
        "_alive",
        "_block",
        "_dead_in",
        "_faces",
        "_up",
        "_flen",
        "_cap",
        "_ball_of",
        "_ball",
    )

    def __init__(self, g: PlaneGraph) -> None:
        size = g.n
        self._size = size
        self.rotations = [list(row) for row in g.rotations]
        self.deg = [len(row) for row in self.rotations]
        self.n, self.m = g.n, g.m
        self._alive = bytearray(b"\x01") * size
        # tombstones per block of ids, so a label counts whole blocks
        # below v and then v's own block up to v
        self._block = block = max(64, isqrt(size) + 1)
        self._dead_in = [0] * (size // block + 1)
        face, rs = list(g.face_of_dart), g.rot_start
        # corner i of v is traced by the dart v -> rot[v][i + 1]
        self._faces = [
            face[rs[v] + 1 : rs[v + 1]] + face[rs[v] : rs[v] + 1] for v in range(size)
        ]
        self._up = array("i", range(len(g.face_lens)))
        self._flen = array("i", g.face_lens)
        # the length capped at 5 at a root, 0 elsewhere
        self._cap = array("b", [ln if ln < 5 else 5 for ln in g.face_lens])
        # the vertex of the last d2 asked, and its distance-two ball
        self._ball_of, self._ball = -1, set()

    # ==================================================================
    # queries made by detection
    # ==================================================================

    def d2(self, v: int) -> int:
        # kept, so that deleting v next reuses the ball detection counted
        self._ball_of = v
        self._ball = ball = two_hop(self.rotations, v)
        return len(ball)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.rotations[u]

    def corner_lens(self, v: int) -> tuple[int, ...]:
        """Face length in each corner of v, capped at 5."""
        cap, faces = self._cap, self._faces[v]
        lens = tuple([cap[f] for f in faces])
        if 0 in lens:  # a corner whose face was merged: point it at the root
            up = self._up
            faces[:] = [f if cap[f] else _root(up, f) for f in faces]
            lens = tuple([cap[f] for f in faces])
        return lens

    def edge_in_two_triangles(self, u: int, v: int) -> bool:
        # the dart u -> rot[u][i] traces the face of corner i - 1; a
        # bridge's one face is never a triangle, so two 3-sides are two faces
        faces, rot, up, cap = self._faces, self.rotations, self._up, self._cap
        fu = faces[u][rot[u].index(v) - 1]
        fv = faces[v][rot[v].index(u) - 1]
        return (cap[fu] or cap[_root(up, fu)]) == 3 == (cap[fv] or cap[_root(up, fv)])

    # ==================================================================
    # other queries
    # ==================================================================

    def alive(self) -> list[int]:
        """Live vertices in ascending id order."""
        return [v for v in range(self._size) if self._alive[v]]

    def label(self, v: int) -> int:
        """v's id in the dense relabelling of the live vertices."""
        b = v // self._block
        return v - sum(self._dead_in[:b]) - self._alive.count(0, b * self._block, v)

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

        The faces at dv are merged into the faces of the hole without a
        walk (module docstring); no face is walked, not even a deleted
        leaf's.

        Returns dv's distance-two ball before the step (the set ``d2(dv)``
        counted, when that was the last ``d2`` asked) and the step's
        reach: the ball itself, which holds every vertex whose rotation,
        degree, d2, capped corner lengths or neighbours' degrees can
        change, and every vertex with two neighbours whose edge changed
        its ``in2``.  Rotations and degrees change only on dv's ring, and
        paths of length at most 2 are lost only through dv and gained
        only through a chord, so a d2 changes only in the ball.  An edge
        changes ``in2`` only when it or a triangle beside it comes or
        goes: a triangle that goes had dv on it, and one that comes in
        the hole has at least two of its three vertices on the ring when
        d > 1, so the edge has an end on the ring.  A capped corner length
        changes only in the ball too.  The face of a deleted leaf is the
        exception to both: a face of length 6 there becomes a 4-face
        through a vertex three steps from dv.  A leaf's face that comes
        out of length at most 4 lies in the distance-two ball of the
        leaf's neighbour, so the reach adds that ball and its neighbours.
        ``MatchQueue`` puts the reach's neighbours back for the rules
        that read past a neighbour's edges (its corners, its rotation).

        Raises:
            EmbeddingBroken: a pair of dv's neighbours ends up more
                than two apart, two chords cross, or the size does not
                drop.
            DegreeOverflow: a patched vertex passes degree 5.
        """
        rot = self.rotations
        ring = rot[dv]
        d, nc = len(ring), len(chords)
        fan: dict[int, list[int]] = {}  # chord targets of a ring vertex
        for a, b in chords:
            if a not in ring or b not in ring:
                raise ValueError(
                    f"rule {rule}: a chord end is not a neighbour of {dv}"
                )
            fan.setdefault(a, []).append(b)
            fan.setdefault(b, []).append(a)
        rows, slots = [], []  # per ring vertex: its patched row, dv's slot in it
        over = None  # the first ring vertex to pass degree 5
        for w in ring:
            row = rot[w].copy()
            i = row.index(dv)
            if w in fan:
                targets = fan[w]
                if len(targets) > 1:  # in the order they fan out
                    targets = _targets_in_order(ring, w, targets)
                row[i : i + 1] = targets
            else:
                del row[i]
            rows.append(row)
            slots.append(i)
            if len(row) > 5 and over is None:
                over = w

        # paths of length <= 2 that avoid dv survive and chords only add
        # paths, so only pairs of dv's neighbours can fall apart; once
        # they all stay within two, the reduced graph is also connected
        for i, row in enumerate(rows):
            near = None
            for j in range(i + 1, d):
                if ring[j] in row:
                    continue
                if near is None:
                    near = set(row)
                if near.isdisjoint(rows[j]):
                    raise EmbeddingBroken(
                        f"rule {rule}: a distance-two pair fell apart"
                    )
        pos = None
        if nc > 1:
            pos = {w: i for i, w in enumerate(ring)}
            if _crossing(chords, pos):
                raise EmbeddingBroken(f"rule {rule} at {dv}: the chords cross")
        if nc > d:
            raise EmbeddingBroken(f"rule {rule}: size did not drop")
        if over is not None:
            raise DegreeOverflow(f"rule {rule}: vertex {over} would pass degree 5")

        ball = self._ball if self._ball_of == dv else two_hop(rot, dv)
        self._ball_of = -1

        # corner i of dv lies on the face between ring[i] and ring[i + 1];
        # at a cut vertex two corners share a face, and a merge of the
        # second corner's region takes in the first one's face whole
        up, flen, cap, faces = self._up, self._flen, self._cap, self._faces
        ids = faces[dv]
        side, short = None, False
        if nc > 1:
            side, into = self._split_hole(ids, chords, pos)
        elif nc and d == 2:
            # the chord takes dv's place at each corner, so a face at both
            # (at a cut vertex) is shortened twice
            into = [f if cap[f] else _root(up, f) for f in ids]
            for f in into:
                flen[f] -= 1
                cap[f] = flen[f] if flen[f] < 5 else 5
        elif nc:
            # two regions: dv's corners p..q-1, and the others
            p, q = sorted(map(ring.index, chords[0]))
            ra = _merge(up, flen, cap, ids[p:q], 2 * (q - p) - 1)
            rb = _merge(up, flen, cap, ids[q:] + ids[:p], 2 * (d - q + p) - 1)
            into = [rb] * d
            into[p:q] = [ra] * (q - p)
        elif d:  # an isolated dv (a one-vertex graph) meets no face
            root = _merge(up, flen, cap, ids, 2 * d)
            into = [root] * d
            short = d == 1 and flen[root] <= 4

        deg = self.deg
        for i, w in enumerate(ring):
            # splice w's corner ids as its rotation was spliced, giving
            # the corners on each side of dv's slot the face that took in
            # dv's corner there: corner i - 1 of dv lies past the slot and
            # corner i before it; the corners between two chords are new
            row, fw, s = rows[i], faces[w], slots[i]
            t = len(row) - len(fw)  # the chord ends in dv's slot, less 1
            if t >= 0:
                fw[s - 1], fw[s] = into[i], into[i - 1]
                if t:
                    fw[s:s] = [side[i, pos[x]] for x in row[s + 1 : s + t + 1]]
            else:
                del fw[s]
                if fw:
                    fw[s - 1] = into[i]
            rot[w] = row
            deg[w] = len(row)
        rot[dv] = []
        faces[dv] = []
        deg[dv] = 0
        self._alive[dv] = 0
        self._dead_in[dv // self._block] += 1
        self.n -= 1
        self.m += nc - d

        if not short:
            return ball, ball
        # the leaf's face, of length at most 4, lies in its neighbour's
        # distance-two ball
        near = two_hop(rot, ring[0])
        near.add(ring[0])
        return ball, ball.union(near, *[rot[y] for y in near])

    def _split_hole(self, ids, chords, pos) -> tuple[dict, list[int]]:
        """Merge the faces at dv into the faces of the regions that two or
        more chords, which do not cross, cut its hole into.

        A chord between the ring positions p < q spans dv's corners p to
        q - 1; spans nest, so each is the region inside it less its
        children's, and the corners no span holds, with the outer sides
        of the top spans, are one more region.  Regions merge in turn, so
        one that shares a face with an earlier one (at a cut vertex)
        takes in that one's face.  Returns the face id on each side of
        each chord, keyed ``(x, y)`` for the side that faces the corners
        from x forward to y, and the face id that each of dv's corners
        went into.
        """
        up, flen, cap = self._up, self._flen, self._cap
        d = len(ids)
        spans = sorted(
            (sorted((pos[a], pos[b])) for a, b in chords), key=lambda s: (s[0], -s[1])
        )
        top = len(spans)  # the region outside every span
        parent, stack = [], []
        for p, q in spans:
            while stack and spans[stack[-1]][1] <= p:
                stack.pop()
            parent.append(stack[-1] if stack else top)
            stack.append(len(parent) - 1)
        # a corner lies in the last span holding it, which is the innermost
        region = [top] * d
        for k, (p, q) in enumerate(spans):
            region[p:q] = [k] * (q - p)
        cut = [-1] * top + [0]  # the inside of a span is one chord side
        for k in parent:
            cut[k] -= 1
        held: list[list[int]] = [[] for _ in cut]
        for c, k in enumerate(region):
            held[k].append(ids[c])
            cut[k] += 2
        into = [0] * len(cut)
        for k, fs in enumerate(held):
            if fs:
                into[k] = _merge(up, flen, cap, fs, cut[k])
            else:  # a region of chords alone: a new face
                into[k] = len(up)
                up.append(len(up))
                flen.append(-cut[k])
                cap.append(min(-cut[k], 5))
        side = {}
        for k, (p, q) in enumerate(spans):
            side[p, q] = into[k]
            side[q, p] = into[parent[k]]
        return side, [into[k] for k in region]
