"""Reduction application, unwinding, and the full coloring pipeline."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor.configurations import iter_matches
from planecolor.conflict import validate
from planecolor.errors import (
    BadArgument,
    DegreeOverflow,
    EmbeddingBroken,
    NoAvailableColor,
)
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from planecolor.plane_graph import PlaneGraph
from planecolor.reducer import (
    PALETTE,
    ReductionTrace,
    apply,
    color16,
    extend,
    is_proper_wrt,
)
from test_configurations import CROSSING_CHORD_RULES
from test_working_graph import rebuild_apply

PROPERTY_SETTINGS = settings(max_examples=40, deadline=None)


@pytest.mark.parametrize("budget", ["x", 1.5, True])
def test_color16_budget_must_be_an_int(budget):
    # the icosahedron reduces without the exact fallback, so the check
    # must come before any reduction
    with pytest.raises(BadArgument):
        color16(named("icosahedron"), budget=budget)


class TestIsProperWrt:
    def test_path_after_cycle_deletion_is_not_proper(self):
        c5 = named("c5")
        # dropping vertex 0 without a chord stretches (1, 4) to distance 3
        path = PlaneGraph([[1], [0, 2], [1, 3], [2]])
        assert not is_proper_wrt(c5, path, 0)

    def test_chorded_deletion_is_proper(self):
        c5 = named("c5")
        # the bridge 1-4 keeps every surviving pair within two
        cycle4 = PlaneGraph([[3, 1], [0, 2], [1, 3], [2, 0]])
        assert is_proper_wrt(c5, cycle4, 0)


class TestApply:
    def test_single_step_on_icosahedron(self):
        g = named("icosahedron")
        m = next(iter_matches(g))
        h, trace = apply(g, m)
        assert h.n == g.n - 1
        assert trace.rule == "R-5m5"
        assert trace.added_edges == ()
        assert trace.v_plus_e_before > trace.v_plus_e_after

    def test_chord_is_added_when_missing(self):
        g = named("c5")
        m = next(iter_matches(g))  # R-2v at vertex 0
        h, trace = apply(g, m)
        assert h.n == 4 and h.m == 4
        assert len(trace.added_edges) == 1

    def test_applied_steps_satisfy_soundness(self):
        for name in NAMED_GRAPHS:
            g = named(name)
            for m in iter_matches(g):
                try:
                    h, trace = apply(g, m)
                except (EmbeddingBroken, DegreeOverflow):
                    assert m.rule_id in CROSSING_CHORD_RULES
                    continue
                assert h.n - h.m + h.num_faces == 2
                assert h.n == 1 or max(h.deg) <= 5
                assert h.n + h.m < g.n + g.m
                assert trace.observed_d2 <= 15

    def test_extend_picks_smallest_free_color(self):
        g = named("c5")
        m = next(iter_matches(g))
        h, trace = apply(g, m)
        colors_h = {0: 3, 1: 4, 2: 5, 3: 6}
        lifted = extend(g, trace, colors_h)
        assert lifted[trace.deleted] == 1  # colors 1 and 2 are free

    def test_extend_raises_when_ball_saturated(self):
        # real matches guarantee d2 <= 15, so saturation of all 16
        # colors only happens through a hand-built trace
        g = random_plane(80, seed=6)
        dv = max(range(g.n), key=g.d2)
        assert g.d2(dv) >= 16
        trace = ReductionTrace(
            step=0,
            rule="hand-built",
            deleted=dv,
            added_edges=(),
            v_plus_e_before=g.n + g.m,
            v_plus_e_after=g.n + g.m - 1,
            observed_d2=g.d2(dv),
        )
        ball = sorted(g.n2(dv))[:16]
        colors_h = {}
        for u in range(g.n):
            if u == dv:
                continue
            hu = u - 1 if u > dv else u
            colors_h[hu] = (ball.index(u) + 1) if u in ball else 16
        with pytest.raises(NoAvailableColor):
            extend(g, trace, colors_h)


class TestColor16:
    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_corpus_colors_validate(self, name):
        g = named(name)
        coloring, traces = color16(g)
        report = validate(g, coloring)
        assert report.valid
        assert coloring.palette == PALETTE
        assert max(coloring.colors.values()) <= PALETTE
        assert all(t.rule != "anomaly-exact-fallback" for t in traces)

    def test_small_graph_above_degree_five_needs_no_step(self):
        # at most 16 vertices get distinct colors, whatever their degrees
        star7 = PlaneGraph([[1, 2, 3, 4, 5, 6, 7]] + [[0]] * 7)
        coloring, traces = color16(star7)
        assert sorted(coloring.colors.values()) == list(range(1, 9))
        assert traces == []

    def test_random_plane_90_validates(self):
        g = random_plane(90, seed=13)
        coloring, traces = color16(g)
        assert validate(g, coloring).valid
        assert traces

    def test_sizes_strictly_decrease_along_trace(self):
        g = random_plane(150, seed=42)
        _, traces = color16(g)
        assert traces, "a 150-vertex graph must reduce"
        for t in traces:
            assert t.v_plus_e_after < t.v_plus_e_before
        for a, b in zip(traces, traces[1:]):
            assert b.v_plus_e_before == a.v_plus_e_after

    def test_deterministic_output(self):
        g = random_plane(120, seed=9)
        c1, t1 = color16(g)
        c2, t2 = color16(g)
        assert json.dumps(c1.to_json()) == json.dumps(c2.to_json())
        assert [t.to_json() for t in t1] == [t.to_json() for t in t2]

    def test_trace_json_round_trips_through_dumps(self):
        g = random_plane(40, seed=5)
        _, traces = color16(g)
        for t in traces:
            obj = json.loads(json.dumps(t.to_json()))
            assert obj["rule"]
            assert obj["v_plus_e_after"] < obj["v_plus_e_before"]


@st.composite
def seeded_graph(draw):
    n = draw(st.integers(min_value=1, max_value=120))
    seed = draw(st.integers(min_value=0, max_value=9_999))
    return random_plane(n, seed=seed)


class TestReducerProperties:
    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_pipeline_always_validates(self, g):
        coloring, _ = color16(g)
        assert validate(g, coloring).valid

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_every_step_sound(self, g):
        cur = g
        _, traces = color16(g)
        for t in traces:
            assert t.v_plus_e_after < t.v_plus_e_before
            assert 0 <= t.observed_d2 <= 15

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_apply_failures_only_from_crossing_rules(self, g):
        for m in iter_matches(g):
            try:
                apply(g, m)
            except (EmbeddingBroken, DegreeOverflow):
                assert m.rule_id in CROSSING_CHORD_RULES

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_apply_decisions_match_rebuild(self, g):
        # every accept or refuse, and every accepted result, equals a
        # from-scratch build plus is_proper_wrt
        for m in iter_matches(g):
            try:
                want = rebuild_apply(g, m)
            except (EmbeddingBroken, DegreeOverflow):
                want = None
            try:
                got = apply(g, m)
            except (EmbeddingBroken, DegreeOverflow):
                got = None
            assert (got is None) == (want is None), m.to_json()
            if got is not None:
                assert got == want
