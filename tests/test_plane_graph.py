"""Structure checks: faces, Euler certificate, metrics, serialization."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


class TestConstruction:
    def test_k4_faces(self):
        g = named("k4")
        assert g.n == 4 and g.m == 6
        assert sorted(f.length for f in g.faces()) == [3, 3, 3, 3]

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
    def test_cube_metrics(self, cube):
        mt = cube.metrics(0)
        assert mt.d == 3
        assert mt.m4 == 3
        assert mt.m3 == 0
        assert mt.d2 == 6
        assert mt.n3 == 3

    def test_neighbors_in_rotation_order(self, cube):
        assert cube.neighbors(0) == cube.rotations[0]

    def test_has_edge_symmetric(self, corpus_graph):
        g = corpus_graph
        for u, v in g.edges():
            assert g.has_edge(u, v) and g.has_edge(v, u)

    def test_unknown_vertex_raises(self, cube):
        with pytest.raises(UnknownVertex):
            cube.degree(99)

    @pytest.mark.parametrize("u,v", [(5, 0), (-1, 0), (0, 5), (0, -1)])
    def test_within_two_rejects_unknown_vertex(self, u, v):
        with pytest.raises(UnknownVertex):
            named("k2").within_two(u, v)

    def test_corner_face_of_isolated_vertex_raises(self):
        with pytest.raises(UnknownVertex):
            named("k1").corner_face(0, 0)

    def test_within_two_against_n2_rows(self):
        g = random_plane(60, seed=4)
        rows = [set(g.n2(v)) for v in range(g.n)]
        for a in range(g.n):
            for b in range(g.n):
                assert g.within_two(a, b) == (a == b or b in rows[a])

    def test_distance_agrees_with_within_two(self, corpus_graph):
        g = corpus_graph
        for u in range(g.n):
            for v in range(g.n):
                d = g.distance(u, v)
                assert g.within_two(u, v) == (d is not None and d <= 2)

    def test_n2_matches_bfs(self, corpus_graph):
        g = corpus_graph
        for v in range(g.n):
            ball = {
                u
                for u in range(g.n)
                if u != v and g.distance(v, u) is not None and g.distance(v, u) <= 2
            }
            assert set(g.n2(v)) == ball
            assert g.d2(v) == len(ball)

    def test_corner_faces_cover_incident_faces(self, corpus_graph):
        g = corpus_graph
        for v in range(g.n):
            if g.degree(v) == 0:
                continue
            assert set(g.corner_faces(v)) == set(g.incident_faces(v))
            corners = tuple(g.corner_face(v, i) for i in range(g.degree(v)))
            assert corners == g.corner_faces(v)
            assert g.corner_lens(v) == tuple(min(g.face_lens[f], 5) for f in corners)

    def test_edge_faces_on_cube(self, cube):
        for u, v in cube.edges():
            f1, f2 = cube.edge_faces(u, v)
            assert f1 != f2  # no bridges in the cube
            assert not cube.edge_in_two_triangles(u, v)

    def test_girth(self):
        assert named("k4").girth() == 3
        assert named("cube").girth() == 4
        assert named("c5").girth() == 5
        assert named("star5").girth() is None

    def test_dual_of_cube_is_octahedron(self, cube):
        d = cube.dual()
        assert d.n == 6 and d.m == 12
        assert all(f.length == 3 for f in d.faces())
        assert all(d.degree(v) == 4 for v in range(d.n))


class TestSerialization:
    def test_rotation_text_round_trip(self, corpus_graph):
        g = corpus_graph
        assert from_rotation_text(g.to_rotation_text()) == g

    def test_json_round_trip(self, corpus_graph):
        g = corpus_graph
        assert PlaneGraph.from_json(json.loads(g.to_json_text())) == g

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

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_dual_euler(self, g):
        # two faces sharing several edges would need a multigraph dual,
        # which the constructor rejects; both outcomes are legitimate
        if g.n < 3 or g.girth() is None:
            return
        try:
            d = g.dual()
        except ParseError:
            return
        assert d.n - d.m + d.num_faces == 2
        assert d.num_faces == g.n
