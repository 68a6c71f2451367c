"""Plane graphs as rotation systems, with certified faces.

A graph comes in as one clockwise neighbour order per vertex.  Faces are
traced from the rotations at construction time and the Euler identity
|V| - |E| + |F| = 2 is required to hold; that certifies the embedding
has genus zero without ever touching coordinates.

Vertices are dense ids 0..n-1.  Graphs are simple and connected.  The
degree bound 5 is NOT enforced here; callers that need it check it.

Rotation text format::

    # optional comment lines anywhere
    n m
    0: 1 4 2
    1: 0 2
    ...

one line per vertex, neighbours in clockwise order.
"""

from __future__ import annotations

import json
from itertools import accumulate

from .errors import (
    AsymmetricRotation,
    BadArgument,
    Disconnected,
    NotPlanarEmbedding,
    ParseError,
    UnknownVertex,
)

__all__ = ["PlaneGraph", "from_rotation_text"]


# ======================================================================
# construction
# ======================================================================


class PlaneGraph:
    """Immutable plane graph defined by clockwise rotations.

    The rotation system is stored once, as ``rotations``; the other
    tables are tuples of ints over it.  Dart ``rot_start[v] + i`` is the
    arc ``v -> rotations[v][i]``, so the darts leaving v are
    ``rot_start[v]`` to ``rot_start[v + 1]`` in rotation order, and the
    reverse of that dart is ``rot_start[u] + rotations[u].index(v)``
    with u its head.  ``face_of_dart[p]`` is the face whose boundary
    walk contains p; faces are numbered in the order of their least
    dart, and ``face_lens`` gives their lengths.
    """

    __slots__ = (
        "n",
        "m",
        "rotations",
        "deg",
        "rot_start",
        "face_of_dart",
        "face_lens",
        "num_faces",
    )

    def __init__(self, rotations) -> None:
        try:
            rots = tuple(map(tuple, rotations))
        except TypeError as exc:
            raise ParseError(f"rotations are not lists: {exc}") from exc
        n = len(rots)
        if n == 0:
            raise ParseError("empty vertex set")
        pos = []  # per vertex: neighbour -> its place in the rotation
        for v, row in enumerate(rots):
            at = {}
            for i, u in enumerate(row):
                # nothing is coerced, and a bool is not an int here
                if type(u) is not int or not 0 <= u < n:
                    raise ParseError(f"vertex {v} lists the neighbour {u!r}")
                if u == v:
                    raise ParseError(f"self-loop at vertex {v}")
                at[u] = i
            if len(at) != len(row):
                raise ParseError(f"repeated neighbour in rotation of vertex {v}")
            pos.append(at)

        deg = tuple(map(len, rots))
        rot_start = (0, *accumulate(deg))
        mirror: list[int] = []
        for v, row in enumerate(rots):
            for u in row:
                i = pos[u].get(v)
                if i is None:
                    raise AsymmetricRotation(
                        f"{v} lists {u} but {u} does not list {v}"
                    )
                mirror.append(rot_start[u] + i)
        del pos  # the face trace below needs only mirror

        self.n = n
        self.m = len(mirror) // 2
        self.rotations = rots
        self.deg = deg
        self.rot_start = rot_start
        self._check_connected()

        if self.m == 0:
            # single vertex: one face of length 0 keeps Euler at 2
            self.face_of_dart = ()
            self.face_lens = (0,)
        else:
            face_of, lens = _trace(_successors(rot_start, mirror))
            self.face_of_dart = tuple(face_of)
            self.face_lens = tuple(lens)
        self.num_faces = len(self.face_lens)
        if self.n - self.m + self.num_faces != 2:
            raise NotPlanarEmbedding(
                f"Euler check failed: {self.n} - {self.m} + {self.num_faces} != 2"
            )

    def _check_connected(self) -> None:
        seen = [False] * self.n
        seen[0] = True
        stack = [0]
        rots = self.rotations
        while stack:
            for u in rots[stack.pop()]:
                if not seen[u]:
                    seen[u] = True
                    stack.append(u)
        if not all(seen):
            raise Disconnected(f"{seen.count(False)} vertices unreachable from 0")

    # ==================================================================
    # basic queries
    # ==================================================================

    def _check_vertex(self, v: int) -> None:
        # a bool is not an id here, as in the rotations
        if type(v) is not int or not 0 <= v < self.n:
            raise UnknownVertex(f"vertex {v!r} not in [0, {self.n})")

    def degree(self, v: int) -> int:
        self._check_vertex(v)
        return self.deg[v]

    def has_edge(self, u: int, v: int) -> bool:
        # both ids are typed as _check_vertex wants them, so True is not 1
        ok = type(u) is type(v) is int
        return ok and 0 <= u < self.n and v in self.rotations[u]

    def corner_lens(self, v: int) -> tuple[int, ...]:
        """Face length in each corner of v, in corner order, capped at 5
        as detection reads it (``WorkingGraph.corner_lens`` does too)."""
        # corner i of v is traced by the dart v -> rot[v][i + 1]
        self._check_vertex(v)
        lo, hi = self.rot_start[v], self.rot_start[v + 1]
        fo, fl = self.face_of_dart, self.face_lens
        faces = fo[lo + 1 : hi] + fo[lo : min(lo + 1, hi)]
        return tuple([fl[f] if fl[f] < 5 else 5 for f in faces])

    def edge_in_two_triangles(self, u: int, v: int) -> bool:
        if not self.has_edge(u, v):
            raise UnknownVertex(f"no edge {u!r}-{v!r}")
        rots, rs = self.rotations, self.rot_start
        fo, fl = self.face_of_dart, self.face_lens
        # the darts u -> v and v -> u; a bridge's one face is never a
        # triangle, so two 3-sides are two faces
        p, q = rs[u] + rots[u].index(v), rs[v] + rots[v].index(u)
        return fl[fo[p]] == 3 and fl[fo[q]] == 3

    # ==================================================================
    # distance structure
    # ==================================================================

    def n2(self, v: int) -> tuple[int, ...]:
        """The vertices at distance 1 or 2 from v, ascending."""
        self._check_vertex(v)
        return tuple(sorted(two_hop(self.rotations, v)))

    def d2(self, v: int) -> int:
        return len(self.n2(v))

    # ==================================================================
    # serialization
    # ==================================================================

    def to_rotation_text(self) -> str:
        body = "".join([
            f"{v}: {' '.join(map(str, row))}\n" if row else f"{v}:\n"
            for v, row in enumerate(self.rotations)
        ])
        return f"{self.n} {self.m}\n{body}"

    def to_json(self) -> dict:
        return {
            "n": self.n,
            "m": self.m,
            "rotations": [list(row) for row in self.rotations],
        }

    @classmethod
    def from_json(cls, obj) -> "PlaneGraph":
        try:
            if isinstance(obj, (str, bytes)):
                obj = json.loads(obj)
            n = obj["n"]
            m = obj["m"]
            rots = obj["rotations"]
        except (KeyError, TypeError, ValueError) as exc:
            raise ParseError(f"bad graph JSON: {exc}") from exc
        g = cls(rots)
        if type(n) is not int or type(m) is not int or (g.n, g.m) != (n, m):
            raise ParseError(
                f"declared n={n!r} m={m!r} but rotations give n={g.n} m={g.m}"
            )
        return g

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlaneGraph(n={self.n}, m={self.m}, f={self.num_faces})"

    def __eq__(self, other) -> bool:
        return isinstance(other, PlaneGraph) and self.rotations == other.rotations

    def __hash__(self) -> int:
        return hash(self.rotations)


# ======================================================================
# module-level helpers
# ======================================================================


def require_graph(g) -> None:
    """Raise BadArgument unless g is a PlaneGraph."""
    if not isinstance(g, PlaneGraph):
        raise BadArgument(f"graph must be a PlaneGraph, got {type(g).__name__}")


def two_hop(rots, v: int) -> set[int]:
    """The ids within two steps of v along the rotations, v excluded."""
    near = set(rots[v])
    for u in rots[v]:
        near.update(rots[u])
    near.discard(v)
    return near


def _successors(rot_start, mirror: list[int]) -> list[int]:
    """Next dart along the face boundary, for every dart: the walk
    arrives at u along v -> u and leaves along the dart after u -> v in
    u's rotation.  ``mirror[p]`` is the reverse of dart p."""
    # after[q]: the dart after q in its tail's rotation
    after = list(range(1, len(mirror) + 1))
    for lo, hi in zip(rot_start, rot_start[1:]):
        if lo < hi:
            after[hi - 1] = lo
    return list(map(after.__getitem__, mirror))


def _trace(succ: list[int]) -> tuple[list[int], list[int]]:
    """Walk the cycles of the dart successor permutation, each from its
    least dart, in the order of those darts: the faces by id.

    Returns the face id of every dart and the length of every face."""
    face_of = [-1] * len(succ)
    lens: list[int] = []
    for p0 in range(len(succ)):
        if face_of[p0] < 0:
            f = len(lens)
            k = 0
            p = p0
            while face_of[p] < 0:
                face_of[p] = f
                k += 1
                p = succ[p]
            lens.append(k)
    return face_of, lens


def from_rotation_text(text: str) -> PlaneGraph:
    """Parse the rotation text format.

    Raises:
        ParseError: malformed document, or text that is not a str.
        AsymmetricRotation: one-sided adjacency.
        Disconnected: more than one component.
        NotPlanarEmbedding: Euler check failed.
    """
    if not isinstance(text, str):
        raise ParseError(f"rotation text must be a str, not {type(text).__name__}")
    lines = []
    for raw in text.splitlines():
        s = raw.split("#", 1)[0].strip()
        if s:
            lines.append(s)
    if not lines:
        raise ParseError("empty document")
    head = lines[0].split()
    if len(head) != 2:
        raise ParseError(f"header must be 'n m', got {lines[0]!r}")
    try:
        n, m = int(head[0]), int(head[1])
    except ValueError as exc:
        raise ParseError(f"bad header {lines[0]!r}") from exc
    if n <= 0 or m < 0:
        raise ParseError(f"bad sizes n={n} m={m}")
    if len(lines) - 1 != n:
        raise ParseError(f"expected {n} rotation lines, got {len(lines) - 1}")
    rows: dict[int, list[int]] = {}
    for ln in lines[1:]:
        if ":" not in ln:
            raise ParseError(f"missing ':' in rotation line {ln!r}")
        left, right = ln.split(":", 1)
        try:
            v = int(left.strip())
            nbrs = [int(t) for t in right.split()]
        except ValueError as exc:
            raise ParseError(f"bad rotation line {ln!r}") from exc
        if v in rows:
            raise ParseError(f"vertex {v} listed twice")
        rows[v] = nbrs
    if sorted(rows) != list(range(n)):
        raise ParseError("rotation lines do not cover 0..n-1 exactly")
    g = PlaneGraph([rows[v] for v in range(n)])
    if g.m != m:
        raise ParseError(f"declared m={m} but rotations give m={g.m}")
    return g
