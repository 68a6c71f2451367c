"""Named corpus shapes and the seeded random generator."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.errors import UnknownName
from planecolor.generators import NAMED_GRAPHS, named, random_plane

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


# (name, n, m, sorted face lengths)
CORPUS_SHAPES = [
    ("k1", 1, 0, [0]),
    ("k2", 2, 1, [2]),
    ("k4", 4, 6, [3, 3, 3, 3]),
    ("c5", 5, 5, [5, 5]),
    ("c6", 6, 6, [6, 6]),
    ("star5", 6, 5, [10]),
    ("cube", 8, 12, [4] * 6),
    ("pentagonal_prism", 10, 15, [4, 4, 4, 4, 4, 5, 5]),
    ("dodecahedron", 20, 30, [5] * 12),
    ("icosahedron", 12, 30, [3] * 20),
    ("fig1a", 12, 29, [3] * 18 + [4]),
    ("fig1b", 12, 28, [3] * 17 + [5]),
    ("fig2a", 12, 26, [3] * 13 + [4, 4, 5]),
    ("fig2b", 12, 26, [3] * 13 + [4, 4, 5]),
    ("fig2c", 12, 26, [3] * 12 + [4, 4, 4, 4]),
]


class TestNamedCorpus:
    def test_registry_is_complete(self):
        assert sorted(NAMED_GRAPHS) == sorted(name for name, *_ in CORPUS_SHAPES)

    @pytest.mark.parametrize("name,n,m,faces", CORPUS_SHAPES)
    def test_shape(self, name, n, m, faces):
        g = named(name)
        assert g.n == n
        assert g.m == m
        assert sorted(g.face_lens) == faces

    def test_unknown_name(self):
        with pytest.raises(UnknownName):
            named("k5")

    def test_instances_are_fresh(self):
        a = named("cube")
        b = named("cube")
        assert a is not b
        assert a.to_json_text() == b.to_json_text()


class TestRandomPlane:
    def test_tiny_sizes(self):
        assert random_plane(1, seed=0).n == 1
        g2 = random_plane(2, seed=0)
        assert g2.n == 2 and g2.m == 1

    def test_deterministic(self):
        a = random_plane(64, seed=77)
        b = random_plane(64, seed=77)
        assert a.to_json_text() == b.to_json_text()

    def test_seeds_differ(self):
        texts = {random_plane(40, seed=s).to_json_text() for s in range(8)}
        assert len(texts) > 1

    @PROPERTY_SETTINGS
    @given(
        st.integers(min_value=1, max_value=150),
        st.integers(min_value=0, max_value=99_999),
    )
    def test_contract(self, n, seed):
        g = random_plane(n, seed=seed)
        # size lands in [n/2, n], degrees capped, embedding certified
        assert n // 2 <= g.n <= n
        assert max(g.deg) <= 5
        assert g.n - g.m + g.num_faces == 2
