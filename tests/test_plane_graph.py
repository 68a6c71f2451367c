"""Structure checks: faces, Euler certificate, queries, serialization."""

import json
import tracemalloc
from functools import partial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.configurations import classify_special
from planecolor.conflict import Coloring, conflict_sets
from planecolor.errors import (
    AsymmetricRotation,
    Disconnected,
    NotPlanarEmbedding,
    ParseError,
    UnknownVertex,
)
from planecolor.generators import named, random_plane
from planecolor.plane_graph import PlaneGraph, from_rotation_text

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def distances(g, source) -> dict[int, int]:
    """BFS distance from source to every vertex it reaches: the reference
    the two-hop rows are checked against."""
    dist = {source: 0}
    frontier = [source]
    while frontier:
        nxt = []
        for x in frontier:
            for y in g.rotations[x]:
                if y not in dist:
                    dist[y] = dist[x] + 1
                    nxt.append(y)
        frontier = nxt
    return dist


class TestConstruction:
    def test_k4_faces(self):
        g = named("k4")
        assert g.n == 4 and g.m == 6
        assert g.face_lens == (3, 3, 3, 3)

    def test_single_vertex(self):
        g = PlaneGraph([[]])
        assert g.n == 1 and g.m == 0
        assert g.num_faces == 1
        assert g.face_lens == (0,)

    def test_single_edge(self):
        g = PlaneGraph([[1], [0]])
        assert g.num_faces == 1
        assert g.face_lens == (2,)

    def test_euler_holds_on_corpus(self, corpus_graph):
        g = corpus_graph
        assert g.n - g.m + g.num_faces == 2

    def test_rejects_asymmetric_rotation(self):
        with pytest.raises(AsymmetricRotation):
            PlaneGraph([[1], []])

    def test_rejects_self_loop(self):
        with pytest.raises(ParseError):
            PlaneGraph([[0, 1], [0]])

    def test_rejects_duplicate_neighbor(self):
        with pytest.raises(ParseError):
            PlaneGraph([[1, 1], [0, 0]])

    def test_rejects_disconnected(self):
        with pytest.raises(Disconnected):
            PlaneGraph([[1], [0], [3], [2]])

    def test_rejects_nonplanar_rotation(self):
        # K4 with one rotation flipped no longer traces 4 faces
        rots = [[1, 2, 3], [0, 3, 2], [0, 1, 3], [0, 1, 2]]
        with pytest.raises(NotPlanarEmbedding):
            PlaneGraph(rots)

    def test_rejects_vertex_out_of_range(self):
        with pytest.raises(ParseError):
            PlaneGraph([[5], [0]])

    @pytest.mark.parametrize(
        "rotations",
        [
            ["12", "20", "01"],  # strings of digits, not lists
            [[1.9], [0.2]],
            [[1.0], [0.0]],
            [[True], [False]],
            [None],
            5,
            [[{}], [0]],
            [["1"], ["0"]],
        ],
    )
    def test_rejects_what_is_not_lists_of_ints(self, rotations):
        with pytest.raises(ParseError):
            PlaneGraph(rotations)


class TestAccessors:
    def test_has_edge_symmetric(self, corpus_graph):
        g = corpus_graph
        for u, row in enumerate(g.rotations):
            for v in row:
                assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_unknown_vertex_raises(self, cube):
        with pytest.raises(UnknownVertex):
            cube.degree(99)

    @pytest.mark.parametrize(
        "query",
        ["degree", "n2", "d2", "corner_lens", "classify_special"],
    )
    @pytest.mark.parametrize("v", [True, 1.0, "1", None], ids=repr)
    def test_query_rejects_what_is_not_an_int_id(self, query, v):
        # a bool is not an id, as it is not a neighbour in the rotations
        g = named("k4")
        if query == "classify_special":
            ask = partial(classify_special, g)
        else:
            ask = getattr(g, query)
        with pytest.raises(UnknownVertex):
            ask(v)

    @pytest.mark.parametrize("first", [True, False], ids=["first", "second"])
    @pytest.mark.parametrize("x", [True, 1.0, "1", None], ids=repr)
    def test_edge_queries_reject_what_is_not_an_int_id(self, x, first):
        # k4 joins every pair, so only the type of x can refuse the edge
        g = named("k4")
        pair = (x, 0) if first else (0, x)
        assert g.has_edge(*pair) is False
        with pytest.raises(UnknownVertex):
            g.edge_in_two_triangles(*pair)

    def test_distance_agrees_with_within_two(self, corpus_graph):
        # two vertices alone in one color conflict exactly when within two
        g = corpus_graph
        for u in range(g.n):
            dist = distances(g, u)
            for v in range(u + 1, g.n):
                pair = Coloring(palette=1, colors={u: 1, v: 1})
                assert conflict_sets(g, pair) == ([(u, v, 1)] if dist[v] <= 2 else [])

    def test_n2_matches_bfs(self, corpus_graph):
        g = corpus_graph
        for v in range(g.n):
            ball = {u for u, d in distances(g, v).items() if 0 < d <= 2}
            assert set(g.n2(v)) == ball
            assert g.d2(v) == len(ball)

    def test_corner_faces_cover_incident_faces(self, corpus_graph):
        g = corpus_graph
        fo, rs = g.face_of_dart, g.rot_start
        for v, row in enumerate(g.rotations):
            lo, hi = rs[v], rs[v + 1]
            if lo == hi:
                continue
            # corner i lies between rotation neighbours i and i + 1: its
            # face comes in along row[i] -> v and leaves along v -> row[i + 1]
            corners = [fo[rs[u] + g.rotations[u].index(v)] for u in row]
            assert corners == [fo[lo + (p - lo + 1) % (hi - lo)] for p in range(lo, hi)]
            assert set(corners) == set(fo[lo:hi])
            assert g.corner_lens(v) == tuple(min(g.face_lens[f], 5) for f in corners)

    def test_edge_faces_on_cube(self, cube):
        rots, rs, fo = cube.rotations, cube.rot_start, cube.face_of_dart
        for v, row in enumerate(rots):
            for p, u in enumerate(row, rs[v]):
                assert fo[p] != fo[rs[u] + rots[u].index(v)]  # no bridges
                assert not cube.edge_in_two_triangles(v, u)


class TestSerialization:
    def test_rotation_text_round_trip(self, corpus_graph):
        g = corpus_graph
        assert from_rotation_text(g.to_rotation_text()) == g

    def test_json_round_trip(self, corpus_graph):
        g = corpus_graph
        assert PlaneGraph.from_json(json.loads(json.dumps(g.to_json(), separators=(",", ":")))) == g

    @pytest.mark.parametrize(
        "doc",
        [
            {"n": 3, "m": 3, "rotations": ["12", "20", "01"]},
            {"n": 2, "m": 1, "rotations": [[1.9], [0.2]]},
            {"n": 2, "m": 1, "rotations": [[True], [False]]},
            {"n": 1, "m": 0, "rotations": [None]},
            {"n": 1, "m": 0, "rotations": 5},
            {"n": 2, "m": 1, "rotations": [[{}], [0]]},
            {"n": 2.0, "m": 1, "rotations": [[1], [0]]},
            {"n": 2, "m": True, "rotations": [[1], [0]]},
        ],
    )
    def test_json_rejects_what_is_not_ints(self, doc):
        with pytest.raises(ParseError):
            PlaneGraph.from_json(json.dumps(doc))

    def test_json_rejects_malformed_text(self):
        with pytest.raises(ParseError):
            PlaneGraph.from_json("{")

    def test_parse_with_comments(self):
        text = "# a triangle\n3 3\n0: 1 2\n1: 2 0\n2: 0 1\n"
        g = from_rotation_text(text)
        assert g.n == 3 and g.m == 3

    def test_parse_rejects_wrong_edge_count(self):
        with pytest.raises(ParseError):
            from_rotation_text("3 5\n0: 1 2\n1: 2 0\n2: 0 1\n")

    def test_parse_rejects_missing_vertex_line(self):
        with pytest.raises(ParseError):
            from_rotation_text("3 3\n0: 1 2\n2: 0 1\n")

    @pytest.mark.parametrize("text", [b"1 0\n0:\n", None, 5, ["1 0", "0:"]])
    def test_parse_rejects_what_is_not_a_str(self, text):
        with pytest.raises(ParseError):
            from_rotation_text(text)


@st.composite
def seeded_graph(draw):
    n = draw(st.integers(min_value=1, max_value=80))
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return random_plane(n, seed=seed)


class TestPlaneGraphProperties:
    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_euler_certificate(self, g):
        assert g.n - g.m + g.num_faces == 2

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_degree_sum_is_twice_edges(self, g):
        assert sum(g.deg) == 2 * g.m

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_face_lengths_sum_to_dart_count(self, g):
        assert sum(g.face_lens) == 2 * g.m

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_round_trip_text(self, g):
        assert from_rotation_text(g.to_rotation_text()) == g

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_n2_symmetric(self, g):
        pairs = {(a, b) for a in range(g.n) for b in g.n2(a)}
        assert all((b, a) in pairs for a, b in pairs)


def test_graph_stores_its_rotation_system_once():
    # the rotations with deg, rot_start, face_of_dart and face_lens hold
    # about 1.5 MiB at n = 12,447; flat copies of the darts and their
    # reverses beside them took 4.1 MiB
    rows = [list(row) for row in random_plane(20000, 1).rotations]
    tracemalloc.start()
    try:
        g = PlaneGraph(rows)
        held, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert g.n == 12_447
    assert held < 2.5 * 2**20, f"{held / 2**20:.2f} MiB"
