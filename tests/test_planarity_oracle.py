"""Planarity checked by networkx, independently of ``PlaneGraph``.

``PlaneGraph`` certifies a rotation system by Euler's formula over the
faces it traces.  Here networkx decides the same questions with its own
code: ``check_planarity`` for the graph, and ``PlanarEmbedding`` for the
rotation system itself.  networkx is needed only by these tests.
"""

from itertools import permutations, product

import pytest
from hypothesis import given, settings

from planecolor.errors import EngineError, NotPlanarEmbedding
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from planecolor.plane_graph import PlaneGraph, from_rotation_text
from strategies import rotation_systems

nx = pytest.importorskip("networkx")


def nx_graph(rows) -> "nx.Graph":
    g = nx.Graph()
    g.add_nodes_from(range(len(rows)))
    g.add_edges_from((v, u) for v, row in enumerate(rows) for u in row)
    return g


def nx_embedding_is_plane(rows) -> bool:
    """Does networkx accept the rotation system as a plane embedding?"""
    emb = nx.PlanarEmbedding()
    emb.set_data({v: list(row) for v, row in enumerate(rows)})
    try:
        emb.check_structure()
    except nx.NetworkXException:
        return False
    return True


def assert_plane(g: PlaneGraph) -> None:
    assert nx.check_planarity(nx_graph(g.rotations))[0]
    assert nx_embedding_is_plane(g.rotations)


@pytest.mark.parametrize("name", NAMED_GRAPHS)
def test_named_graphs_are_plane(name):
    assert_plane(named(name))


def test_criterion_1_inputs_are_plane():
    for i in range(200):
        assert_plane(random_plane(20 + i % 181, seed=i))


def every_rotation_system(adj: list[list[int]]):
    # a cyclic order is fixed by its first entry, so keep it in place
    choices = [[[row[0], *p] for p in permutations(row[1:])] for row in adj]
    return product(*choices)


@pytest.mark.parametrize(
    "adj,count",
    [
        ([[u for u in range(5) if u != v] for v in range(5)], 6**5),  # K5
        ([[3, 4, 5]] * 3 + [[0, 1, 2]] * 3, 2**6),  # K3,3
    ],
    ids=["K5", "K3,3"],
)
def test_every_rotation_system_of_a_kuratowski_graph_is_refused(adj, count):
    assert not nx.check_planarity(nx_graph(adj))[0]
    seen = 0
    for rows in every_rotation_system(adj):
        with pytest.raises(NotPlanarEmbedding):
            PlaneGraph(rows)
        seen += 1
    assert seen == count


@settings(max_examples=300, deadline=None)
@given(rotation_systems())
def test_random_rotation_systems_build_plane_graphs_or_raise_engine_errors(rows):
    try:
        g = PlaneGraph(rows)
    except NotPlanarEmbedding:
        # a connected, symmetric, simple system that networkx also refuses
        assert nx.is_connected(nx_graph(rows))
        assert not nx_embedding_is_plane(rows)
        return
    except EngineError:
        return
    assert_plane(g)
    edges = [[v, u] for v, row in enumerate(g.rotations) for u in row if v < u]
    assert sorted(map(sorted, nx_graph(rows).edges())) == sorted(edges)


@settings(max_examples=100, deadline=None)
@given(rotation_systems())
def test_random_rotation_texts_parse_or_raise_engine_errors(rows):
    text = f"{len(rows)} {sum(map(len, rows)) // 2}\n" + "".join(
        f"{v}: {' '.join(map(str, row))}\n" for v, row in enumerate(rows)
    )
    try:
        g = from_rotation_text(text)
    except EngineError:
        return
    assert g == PlaneGraph(rows)
    assert_plane(g)
