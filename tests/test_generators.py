"""Named corpus shapes and the seeded random generator."""

import hashlib
import json
import random
from time import perf_counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.errors import BadArgument, GenerationFailed, UnknownName
from planecolor.generators import (
    NAMED_GRAPHS,
    _grow_triangulation,
    _trim_to_degree_five,
    named,
    random_plane,
)

PROPERTY_SETTINGS = settings(max_examples=60, deadline=None)


def compact(g) -> str:
    return json.dumps(g.to_json(), separators=(",", ":"))


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
        assert compact(a) == compact(b)


class TestRandomPlane:
    @pytest.mark.parametrize("n", [2.5, True])
    def test_size_must_be_an_int(self, n):
        # 2.5 would otherwise give 3 vertices and True 1
        with pytest.raises(BadArgument):
            random_plane(n, seed=1)

    @pytest.mark.parametrize("seed", ["1", 1.0, True, None])
    def test_seed_must_be_an_int(self, seed):
        # "1" would otherwise give the graph of seed 1, the others another graph
        with pytest.raises(BadArgument):
            random_plane(40, seed=seed)

    def test_tiny_sizes(self):
        assert random_plane(1, seed=0).n == 1
        g2 = random_plane(2, seed=0)
        assert g2.n == 2 and g2.m == 1

    @pytest.mark.parametrize("n", [10**9, 2**18 + 1])
    def test_impossible_size_refused_at_once(self, n):
        start = perf_counter()
        with pytest.raises(GenerationFailed):
            random_plane(n, seed=0)
        assert perf_counter() - start < 1.0

    def test_deterministic(self):
        a = random_plane(64, seed=77)
        b = random_plane(64, seed=77)
        assert compact(a) == compact(b)

    def test_seeds_differ(self):
        texts = {compact(random_plane(40, seed=s)) for s in range(8)}
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


# sha256 of random_plane(N, seed).to_rotation_text(), written by the
# one-edge-at-a-time trim that reference_trim below keeps; the other
# pins of the generator stop at N = 200 and the 690 draws of perfbench
LARGE_PINS = [
    (690, 0, "f39c5f91567f7e501efeba475f918881c327df30ea7ad24dda0ccc1eed2983e4"),
    (690, 1, "50b5aca97ebbf28f7997bfef0da4c2519a9dfcec2c38bc625db9802372f332b4"),
    (690, 2, "85509733dbfc015b3790cba2915337f0dea4c5a39c2834e553e56c08fe62b90e"),
    (5000, 0, "c93209d05225523786365448a6e2d86e2d12470334b34d113014712c5e5fff90"),
    (5000, 1, "18c701317f8f60b3c1993d8206aad43a62baa2d266a216065bf7d9c2c0b80f7b"),
    (5000, 2, "3a7469dbb3e759334c9ce9c1ba0fd28285e13d51194c2f55287fada778d36a86"),
    (20000, 0, "274e284e55e1d08148a66b96560053eb1cb645a09ef1665b6d974602c2d60eb0"),
    (20000, 1, "96248de54737b4a315f8c74a9be0f045069b858b7fe7473e5a367cff0feace8a"),
    (20000, 2, "b3e70d719062ea4d2f5d68cc43f02ae378ef603c505427ccf5e5d673df7b7bf6"),
]


@pytest.mark.parametrize("n,seed,digest", LARGE_PINS)
def test_large_draws_pinned(n, seed, digest):
    text = random_plane(n, seed=seed).to_rotation_text()
    assert hashlib.sha256(text.encode()).hexdigest() == digest


def reference_trim(rots):
    """The trim as first written: one edge at a time, each toward the
    heaviest neighbour, smallest id on ties."""
    for v in range(len(rots)):
        while len(rots[v]) >= 6:
            u = max(rots[v], key=lambda t: (len(rots[t]), -t))
            rots[v].remove(u)
            rots[u].remove(v)


@PROPERTY_SETTINGS
@given(
    st.integers(min_value=3, max_value=400),
    st.integers(min_value=0, max_value=99_999),
)
def test_trim_matches_reference(n, seed):
    rots = _grow_triangulation(n, random.Random(seed))
    expected = [list(row) for row in rots]
    reference_trim(expected)
    _trim_to_degree_five(rots)
    assert rots == expected
