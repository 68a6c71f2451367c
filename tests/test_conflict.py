"""Distance-two conflict detection against a brute-force reference."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.conflict import Coloring, conflict_sets, validate
from planecolor.errors import BadArgument, ParseError
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from test_plane_graph import distances

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


def brute_violations(g, coloring):
    out = []
    colors = coloring.colors
    for u in range(g.n):
        dist = distances(g, u)
        for v in range(u + 1, g.n):
            if dist[v] <= 2:
                cu, cv = colors.get(u), colors.get(v)
                if cu is not None and cu == cv:
                    out.append((u, v, cu))
    return sorted(out)


def test_valid_coloring_accepted():
    g = named("c5")
    col = Coloring(palette=16, colors={v: v + 1 for v in range(5)})
    rep = validate(g, col)
    assert rep.valid
    assert rep.violations == ()
    assert rep.uncolored == ()


def test_conflict_found_on_c5():
    # distance between 0 and 2 is 2, same color must be flagged
    colors = {0: 1, 1: 2, 2: 1, 3: 3, 4: 4}
    rep = validate(named("c5"), Coloring(palette=16, colors=colors))
    assert not rep.valid
    assert (0, 2, 1) in rep.violations


def test_uncolored_vertices_reported():
    g = named("k4")
    rep = validate(g, Coloring(palette=16, colors={0: 1, 1: 2}))
    assert not rep.valid
    assert rep.uncolored == (2, 3)


def test_over_palette_flagged_but_separate():
    g = named("k2")
    rep = validate(g, Coloring(palette=4, colors={0: 1, 1: 9}))
    assert rep.over_palette == ((1, 9),)
    # a too-big color is still a distinct color: no violation entry
    assert rep.violations == ()
    # several out of the palette, keyed out of order: sorted by vertex
    cube = named("cube")
    colors = {6: 0, 1: 1, 7: 17, 0: 2, 3: -4, 2: 3, 5: 99, 4: 4}
    rep = validate(cube, Coloring(palette=4, colors=colors))
    assert rep.over_palette == ((3, -4), (5, 99), (6, 0), (7, 17))
    assert rep.violations == () and rep.valid


# a proper coloring of the cube: its distance-two pairs split into four
# antipodal classes
CUBE_COLORS = {"0": 1, "6": 1, "1": 2, "7": 2, "2": 3, "4": 3, "3": 4, "5": 4}


def test_ids_outside_graph_invalidate():
    cube = named("cube")
    rep = validate(cube, Coloring.from_json({"palette": 16, "colors": CUBE_COLORS}))
    assert rep.valid and rep.not_in_graph == ()
    extra = {**CUBE_COLORS, "8": 1, "99": 1}
    rep = validate(cube, Coloring.from_json({"palette": 16, "colors": extra}))
    assert not rep.valid
    assert rep.not_in_graph == (8, 99)
    assert rep.violations == () and rep.uncolored == ()
    assert rep.to_json()["not_in_graph"] == [8, 99]


def test_outside_ids_reported_beside_uncolored():
    # as many keys as the graph has vertices, but two of them are foreign
    rep = validate(named("k4"), Coloring(palette=16, colors={0: 1, 1: 2, 4: 3, 7: 4}))
    assert rep.uncolored == (2, 3)
    assert rep.not_in_graph == (4, 7)


@pytest.mark.parametrize(
    "palette,colors",
    [
        (16, {"x": 1}),
        (16, {0: "1"}),
        (16, {0: 1, 1: 2.0}),
        (16, {True: 1}),
        (16, {0: 1, 1: False}),
        ("16", {0: 1}),
        (True, {0: 1}),
        (16, [1, 2]),
        (16, None),
    ],
)
def test_validate_rejects_ids_and_colors_that_are_not_ints(palette, colors):
    with pytest.raises(BadArgument):
        validate(named("k4"), Coloring(palette=palette, colors=colors))
    with pytest.raises(BadArgument):
        conflict_sets(named("k4"), Coloring(palette=palette, colors=colors))


@pytest.mark.parametrize("check", [validate, conflict_sets])
@pytest.mark.parametrize("coloring", [None, {0: 1}, (16, {0: 1})], ids=["None", "dict", "tuple"])
def test_coloring_that_is_not_a_coloring_is_refused(check, coloring):
    with pytest.raises(BadArgument, match="Coloring"):
        check(named("k4"), coloring)


def test_validate_checks_its_arguments_once(monkeypatch):
    from planecolor import conflict

    calls = []
    require_int = conflict.require_int

    def counted(**named_ints):
        calls.append(named_ints)
        return require_int(**named_ints)

    monkeypatch.setattr(conflict, "require_int", counted)
    validate(named("k4"), Coloring(palette=16, colors={0: 1, 1: 2, 2: 3, 3: 4}))
    assert calls == [{"palette": 16}]


@pytest.mark.parametrize("key", ["-1", "-0", "-12"])
def test_negative_key_rejected(key):
    with pytest.raises(ParseError):
        Coloring.from_json({"palette": 16, "colors": {"0": 1, key: 2}})


def test_malformed_json_text_rejected():
    with pytest.raises(ParseError):
        Coloring.from_json("{")


def test_coloring_json_round_trip():
    col = Coloring(palette=16, colors={0: 3, 5: 1, 2: 16})
    again = Coloring.from_json(json.loads(json.dumps(col.to_json())))
    assert again == col


def test_report_json_shape():
    g = named("c5")
    rep = validate(g, Coloring(palette=16, colors={0: 1, 1: 1, 2: 2, 3: 3, 4: 4}))
    obj = rep.to_json()
    assert obj["valid"] is False
    assert obj["violations"] == [[0, 1, 1]]


WORST_CASES = {name: named(name) for name in NAMED_GRAPHS}
WORST_CASES.update({f"random_plane(60, seed={s})": random_plane(60, seed=s) for s in range(5)})


@pytest.mark.parametrize("g", WORST_CASES.values(), ids=WORST_CASES.keys())
def test_one_color_flags_every_pair_once(g):
    # every pair within distance two conflicts, and many share several N[x]
    one = Coloring(palette=1, colors=dict.fromkeys(range(g.n), 1))
    got = conflict_sets(g, one)
    assert got == brute_violations(g, one)
    assert len(set(got)) == len(got)


@st.composite
def graph_and_coloring(draw):
    n = draw(st.integers(min_value=1, max_value=40))
    seed = draw(st.integers(min_value=0, max_value=5_000))
    g = random_plane(n, seed=seed)
    palette = draw(st.integers(min_value=1, max_value=16))
    colors = {}
    for v in range(g.n):
        if draw(st.integers(min_value=0, max_value=9)) > 0:  # mostly colored
            colors[v] = draw(st.integers(min_value=1, max_value=palette))
    # now and then ids the graph does not have
    for v in draw(st.lists(st.integers(min_value=g.n, max_value=g.n + 5), max_size=2)):
        colors[v] = draw(st.integers(min_value=1, max_value=palette))
    return g, Coloring(palette=palette, colors=colors)


class TestConflictProperties:
    @PROPERTY_SETTINGS
    @given(graph_and_coloring())
    def test_matches_brute_force(self, gc):
        g, col = gc
        assert list(conflict_sets(g, col)) == brute_violations(g, col)

    @PROPERTY_SETTINGS
    @given(graph_and_coloring())
    def test_valid_iff_no_findings(self, gc):
        g, col = gc
        rep = validate(g, col)
        assert rep.valid == (
            not rep.violations and not rep.uncolored and not rep.not_in_graph
        )
        assert rep.not_in_graph == tuple(sorted(v for v in col.colors if v >= g.n))
