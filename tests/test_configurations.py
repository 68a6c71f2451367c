"""Rule table, detection priority, and the degree-5 taxonomy."""

import json
from collections import Counter
from itertools import islice, product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor import reducer
from planecolor.configurations import (
    _EVERY,
    _FAMILIES,
    _FAR,
    _PRIORITY,
    _SHOWN,
    SPECIAL_KINDS,
    MatchQueue,
    _Ctx,
    _frame_corners,
    classify_special,
    detect,
    iter_matches,
    rule_table,
)
from planecolor.errors import (
    DegreeOverflow,
    DegreeTooHigh,
    EmbeddingBroken,
    UnknownVertex,
)
from planecolor.generators import DESIGNATED_VERTEX, NAMED_GRAPHS, named, random_plane
from planecolor.plane_graph import PlaneGraph
from planecolor.reducer import PALETTE, color16
from planecolor.working_graph import WorkingGraph, _crossing
from test_working_graph import (
    SNUB_GRAPHS,
    center_matches,
    medial_plus,
    snub,
    snub_rotations,
)

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)

RANK = {rule.id: r for r, rule in enumerate(_PRIORITY)}

# ring chords of these rules cross inside the deletion hole, so the
# in-place patch cannot stay plane when both chords are missing; apply
# refuses them and the search moves on (README, "Known rule-table caveat")
CROSSING_CHORD_RULES = {
    "R-5t4n-b1",
    "R-good-c",
    "R-good-d1",
    "R-good-d2",
    "R-good-e",
    "R-supp-a",
    "R-supp-b1",
}


class TestRuleTable:
    def test_size_and_unique_ids(self):
        rules = rule_table()
        assert len(rules) == 54
        assert len({r.id for r in rules}) == 54

    def test_bounds_within_palette(self):
        for r in rule_table():
            assert 1 <= r.claimed_d2_bound <= 15

    def test_delete_role_is_consistent(self):
        for r in rule_table():
            if r.bind is not None:
                assert r.delete != "v"
            else:
                assert r.delete == "v"

    def test_add_edges_reference_known_roles(self):
        roles = {"v", "v1", "v2", "v3", "v4", "v5", "x", "y"}
        for r in rule_table():
            for a, b in r.add_edges:
                assert a in roles and b in roles and a != b

    def test_crossing_chord_rules_are_exactly_the_known_set(self):
        # positions on the ring pentagon; two chords cross iff exactly
        # one endpoint of the second lies strictly between the first's
        def crosses(c1, c2, size=5):
            (a, b), (c, d) = sorted(c1), sorted(c2)
            if len({a, b, c, d}) < 4:
                return False
            between = lambda x, lo, hi: lo < x < hi
            return between(c, a, b) != between(d, a, b)

        pos = {f"v{i + 1}": i for i in range(5)}
        found = set()
        for r in rule_table():
            if r.delete != "v":
                continue  # binding rules: test_binding_rule_chords_never_cross
            chords = [
                (pos[a], pos[b])
                for a, b in r.add_edges
                if a in pos and b in pos
            ]
            for i in range(len(chords)):
                for j in range(i + 1, len(chords)):
                    if crosses(chords[i], chords[j]):
                        found.add(r.id)
        assert found == CROSSING_CHORD_RULES

    def test_crossing_chord_rules_leave_at_most_one_long_corner(self):
        # so their centre, of degree 5, is no cut vertex
        # (test_few_long_corners_mean_no_cut_vertex), and delete loses
        # no match by refusing crossing chords outright
        most = {
            r.id: (r.degree, max(c.count(5) for c in r.corners))
            for r in rule_table()
            if r.id in CROSSING_CHORD_RULES
        }
        assert most == {
            "R-5t4n-b1": (5, 0),
            "R-good-c": (5, 0),
            "R-good-d1": (5, 1),
            "R-good-d2": (5, 1),
            "R-good-e": (5, 1),
            "R-supp-a": (5, 0),
            "R-supp-b1": (5, 1),
        }

    def test_binding_rule_chords_never_cross(self):
        # R-deg's chords share x; each of R-degmid's joins two
        # neighbouring slots of the deleted vertex's rotation (v, a, c, d, b)
        graphs = [snub(name) for name in SNUB_GRAPHS]
        graphs += [medial_plus(40, s, extra=30) for s in range(3)]
        seen = Counter()
        for g in graphs:
            ctx = _Ctx(g)
            for rule in rule_table():
                if rule.bind is None:
                    continue
                for v in range(g.n):
                    if g.deg[v] != rule.degree:
                        continue
                    for m in center_matches(ctx, rule, v):
                        pos = {w: i for i, w in enumerate(g.rotations[m.deleted])}
                        assert not _crossing(m.added_edges(), pos), m
                        seen[m.rule_id] += 1
        assert seen.keys() == {"R-deg", "R-degmid"}, seen


class TestDetection:
    @pytest.mark.parametrize(
        "name,rule",
        [
            ("k1", None),
            ("k2", "R-1v"),
            ("star5", "R-1v"),
            ("c5", "R-2v"),
            ("c6", "R-2v"),
            ("k4", "R-3in3f"),
            ("cube", "R-3two4f"),
            ("pentagonal_prism", "R-3two4f"),
            ("dodecahedron", "R-3adj4"),
            ("icosahedron", "R-5m5"),
            ("fig1a", "R-4three3f"),
        ],
    )
    def test_corpus_first_match(self, name, rule):
        m = detect(named(name))
        assert (m.rule_id if m else None) == rule

    def test_match_includes_bound_evidence(self):
        m = detect(named("icosahedron"))
        assert m.observed_d2 == 10
        assert m.claimed_bound == 15
        assert m.observed_d2 == named("icosahedron").d2(m.deleted)

    def test_rejects_degree_six(self):
        star6 = PlaneGraph([[1, 2, 3, 4, 5, 6]] + [[0]] * 6)
        with pytest.raises(DegreeTooHigh):
            detect(star6)

    def test_detect_is_deterministic(self):
        g = random_plane(80, seed=11)
        a = json.dumps(detect(g).to_json(), sort_keys=True)
        b = json.dumps(detect(g).to_json(), sort_keys=True)
        assert a == b

    def test_priority_respects_claimed_bounds(self):
        # forward scan never yields a larger bound before a smaller one
        # on a graph rich in low-degree vertices
        g = named("dodecahedron")
        bounds = [m.claimed_bound for m in iter_matches(g)]
        seen_min = bounds[0]
        for b in bounds:
            seen_min = min(seen_min, b)
        assert bounds[0] == seen_min


@pytest.mark.parametrize("g", [named("c5"), random_plane(100, seed=0)], ids=["c5", "rp100"])
def test_detect_examines_nothing_past_its_match(g, monkeypatch):
    # a search examines a centre with one ``shown`` call; detect's must
    # be the (rank, centre) pairs up to its match's, in that order
    shown = _Ctx.shown
    examined = []

    def counted(ctx, v, corners):
        examined.append((v, corners))
        return shown(ctx, v, corners)

    monkeypatch.setattr(_Ctx, "shown", counted)
    first = detect(g)
    assert first.rule_id == _PRIORITY[0].id == "R-2v"
    last = (RANK[first.rule_id], first.binding["v"])
    assert examined == [
        (v, rule.corners)
        for r, rule in enumerate(_PRIORITY)
        for v in range(g.n)
        if g.deg[v] == rule.degree and (r, v) <= last
    ]


def brute_force_matches(g) -> list:
    """Every match, rule by rule in priority order, centres by id."""
    ctx = _Ctx(g)
    return [
        m
        for rule in _PRIORITY
        for v in range(g.n)
        if g.deg[v] == rule.degree
        for m in center_matches(ctx, rule, v)
    ]


DETECTION_ORDER_GRAPHS = (
    [pytest.param(lambda n=n: named(n), id=n) for n in NAMED_GRAPHS]
    + [pytest.param(lambda i=i: random_plane(20 + i % 181, seed=i), id=f"sweep{i}")
       for i in range(50)]
    + [pytest.param(lambda: medial_plus(40, 0, extra=30), id="medial0")]
)


@pytest.mark.parametrize("make", DETECTION_ORDER_GRAPHS)
def test_iter_matches_is_the_brute_force_scan(make):
    # iter_matches reads a fresh MatchQueue; this scan shares none of
    # its heaps, so it checks the queue's order from outside
    g = make()
    assert list(iter_matches(g)) == brute_force_matches(g)


class TestClassifier:
    @pytest.mark.parametrize(
        "name,kind",
        [
            ("fig1a", "bad"),
            ("fig1b", "semi-bad"),
            ("fig2a", "strong"),
            ("fig2b", "good"),
            ("fig2c", "support"),
        ],
    )
    def test_designated_vertices(self, name, kind):
        g = named(name)
        sc = classify_special(g, DESIGNATED_VERTEX[name])
        assert sc is not None
        assert sc.kind == kind
        assert kind in SPECIAL_KINDS

    def test_ring_is_a_rotation_of_the_neighborhood(self):
        g = named("fig2a")
        sc = classify_special(g, DESIGNATED_VERTEX["fig2a"])
        assert set(sc.ring) == set(g.rotations[sc.center])

    def test_non_five_vertices_are_never_special(self):
        g = named("cube")
        assert all(classify_special(g, v) is None for v in range(g.n))

    def test_icosahedron_has_no_special_vertices(self):
        # every corner is a triangle: no frame has a non-triangle slot
        g = named("icosahedron")
        assert all(classify_special(g, v) is None for v in range(g.n))

    @pytest.mark.parametrize("v", [-1, -4, 4, 99])
    def test_vertex_outside_the_graph_is_refused(self, v):
        with pytest.raises(UnknownVertex):
            classify_special(named("k4"), v)

    def test_classification_json(self):
        sc = classify_special(named("fig1a"), 0)
        obj = sc.to_json()
        assert obj["kind"] == "bad" and obj["center"] == 0
        assert len(obj["ring"]) == 5


def bad_kind_by_frames(g, v: int):
    if g.deg[v] != 5:
        return None
    for _, c in frames_by_formula(g, v):
        if c[0] == c[1] == c[2] == c[3] == 3 and c[4] >= 4:
            return "bad" if c[4] == 4 else "semi-bad"
    return None


def classify_by_every_frame(g, v: int):
    """The degree-5 taxonomy as (kind, ring), scanning every frame of v
    for each class in turn, with no count of v's triangles first."""
    if g.deg[v] != 5:
        return None
    frames = frames_by_formula(g, v)
    for w, c in frames:
        if c[0] == c[1] == c[2] == c[3] == 3 and c[4] >= 4:
            return ("bad" if c[4] == 4 else "semi-bad"), w
    for w, c in frames:
        if (
            c[0] == c[1] == c[3] == 3
            and c[2] >= 4
            and c[4] >= 4
            and max(c[2], c[4]) >= 5
            and bad_kind_by_frames(g, w[1]) is not None
        ):
            return "strong", w
    for w, c in frames:
        if (
            c[0] == c[1] == c[2] == 3
            and c[3] >= 4
            and c[4] >= 4
            and bad_kind_by_frames(g, w[1]) == "semi-bad"
            and all(
                g.has_edge(a, b) and g.edge_in_two_triangles(a, b)
                for a, b in ((w[0], w[1]), (w[1], w[2]))
            )
        ):
            return "good", w
    for w, c in frames:
        if (
            c[0] == c[1] == 3
            and min(c[2], c[3], c[4]) >= 4
            and bad_kind_by_frames(g, w[1]) is not None
        ):
            return "support", w
    return None


REFERENCE_GRAPHS = {
    **{f"medial_plus(40, {s})": lambda s=s: medial_plus(40, s, extra=30) for s in range(6)},
    **{
        f"medial_plus(30, {s}, extra=400)": lambda s=s: medial_plus(30, s, extra=400)
        for s in range(3)
    },
    **{f"random_plane(150, {s})": lambda s=s: random_plane(150, seed=s) for s in range(3)},
    **{name: lambda name=name: named(name) for name in NAMED_GRAPHS},
    **{f"snub({name})": lambda name=name: snub(name) for name in SNUB_GRAPHS},
}


class TestClassifierReference:
    @pytest.mark.parametrize("name", REFERENCE_GRAPHS)
    def test_classify_special_matches_every_frame_scan(self, name):
        g = REFERENCE_GRAPHS[name]()
        got = [classify_special(g, v) for v in range(g.n)]
        assert [(sc.kind, sc.ring) if sc else None for sc in got] == [
            classify_by_every_frame(g, v) for v in range(g.n)
        ]

    def test_reference_sees_every_kind(self):
        kinds = {
            got[0]
            for s in range(6)
            for g in [medial_plus(40, s, extra=30), medial_plus(30, s, extra=400)]
            for got in map(lambda v: classify_by_every_frame(g, v), range(g.n))
            if got
        }
        kinds |= {
            classify_by_every_frame(named(name), DESIGNATED_VERTEX[name])[0]
            for name in ("fig1a", "fig1b", "fig2a", "fig2b", "fig2c")
        }
        assert kinds == set(SPECIAL_KINDS)


@st.composite
def seeded_graph(draw):
    n = draw(st.integers(min_value=3, max_value=90))
    seed = draw(st.integers(min_value=0, max_value=9_999))
    return random_plane(n, seed=seed)


class TestMatchProperties:
    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_every_match_is_well_formed(self, g):
        for m in iter_matches(g):
            assert 0 <= m.deleted < g.n
            assert m.observed_d2 == g.d2(m.deleted)
            assert m.observed_d2 <= m.claimed_bound <= 15
            for u, v in m.added_edges():
                assert u != v
                assert 0 <= u < g.n and 0 <= v < g.n

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_match_respects_degree_cap(self, g):
        # simulate the patch: no endpoint may pass degree 5
        for m in iter_matches(g):
            gain = {}
            for u, v in m.added_edges():
                if not g.has_edge(u, v):
                    gain[u] = gain.get(u, 0) + 1
                    gain[v] = gain.get(v, 0) + 1
            for x, extra in gain.items():
                after = g.degree(x) + extra - (1 if g.has_edge(x, m.deleted) else 0)
                assert after <= 5

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_detection_never_comes_up_empty(self, g):
        # the core claim at desk scale: every generated graph has one
        assert detect(g) is not None

    @PROPERTY_SETTINGS
    @given(seeded_graph())
    def test_special_kinds_valid(self, g):
        for v in range(g.n):
            sc = classify_special(g, v)
            if sc is not None:
                assert g.degree(v) == 5
                assert sc.kind in SPECIAL_KINDS
                assert set(sc.ring) == set(g.rotations[v])


# ======================================================================
# frames against the index formula
# ======================================================================


def frames_by_formula(g, v: int) -> list[tuple]:
    """Every labeling of v written out index by index: forward from each
    offset o, then, for d > 2, reversed from each offset."""
    rot = list(g.rotations[v])
    d = len(rot)
    cl = g.corner_lens(v)
    if d == 1:
        return [((rot[0],), ())]
    out = []
    for o in range(d):
        idx = [(o + i) % d for i in range(d)]
        out.append((tuple(rot[j] for j in idx), tuple(cl[j] for j in idx)))
    if d > 2:
        for o in range(d):
            out.append(
                (
                    tuple(rot[(o - i) % d] for i in range(d)),
                    tuple(cl[(o - i - 1) % d] for i in range(d)),
                )
            )
    return out


def assert_indices_match_formula(ctx, v: int, ref: list, corners) -> None:
    """The index query names, in frame order, the formula's frames that
    show ``corners``, and the frame query builds each of them."""
    ks = ctx.shown(v, corners)
    assert list(ks) == [k for k, (_, c) in enumerate(ref) if c in corners], v
    assert [ctx.frame(v, k) for k in ks] == [ref[k][0] for k in ks]


def assert_frames_match_formula(g, live) -> None:
    ctx = _Ctx(g)
    refs = {v: frames_by_formula(g, v) for v in live if 1 <= g.deg[v] <= 5}
    tables = set(_SHOWN)
    for v, ref in refs.items():
        corners = enumerate(_frame_corners(g.corner_lens(v)))
        assert [(ctx.frame(v, k), c) for k, c in corners] == ref, v
    assert set(_SHOWN) == tables  # frames leave the query's table alone
    assert refs or not any(g.deg)
    for v, ref in refs.items():
        for rule in _PRIORITY:
            if rule.degree == g.deg[v]:
                assert_indices_match_formula(ctx, v, ref, rule.corners)


def color16_steps(g: PlaneGraph):
    """Take the steps of ``color16`` on a working graph of g, through one
    search sent each step's reach, the last step's too.  Before each
    step and after the last, yields the graph, the search and the match
    it returned last, or None once it ended.  A caller that reads the
    search further ends the steps."""
    wg = WorkingGraph(g)
    search = MatchQueue(wg).matches()
    m = next(search, None)
    while True:
        yield wg, search, m
        if wg.n <= PALETTE:
            return
        while True:
            try:
                _, _, reach = reducer._step(wg, m)
            except (EmbeddingBroken, DegreeOverflow):
                m = next(search)
                continue
            break
        try:
            m = search.send(reach)
        except StopIteration:
            m = None


def reduced(g: PlaneGraph, steps: int) -> WorkingGraph:
    """A working graph after the first ``steps`` steps of ``color16``."""
    for done, (wg, _, _) in enumerate(color16_steps(g)):
        if done == steps:
            return wg
    raise ValueError(f"color16 takes fewer than {steps} steps")


@pytest.mark.parametrize(
    "make",
    [lambda i=i: random_plane(20 + i, seed=i) for i in range(0, 36, 7)]
    + [lambda: medial_plus(40, 0, extra=30)]
    + [lambda: PlaneGraph(snub_rotations(named("icosahedron").rotations))],
    ids=[f"random_plane({20 + i}, {i})" for i in range(0, 36, 7)]
    + ["medial_plus(40, 0)", "snub(icosahedron)"],
)
def test_incremental_queue_is_a_fresh_queue_at_every_step(make):
    """The search ``color16`` resumes across its steps, read to the end
    after any step, yields what a queue made afresh on the current graph
    yields: the logs by degree lose no centre, and a resumed search loses
    none of the centres it put back."""
    g = make()
    steps = sum(1 for _ in color16_steps(g))
    for s in range(steps):
        for done, (wg, search, first) in enumerate(color16_steps(g)):
            if done == s:
                rest = [] if first is None else [first, *search]
                assert rest == list(MatchQueue(wg).matches()), s
                break
    assert steps > 1


@pytest.mark.parametrize("n,seed", [(150, 1), (120, 3), (100, 0)])
def test_resumed_search_keeps_a_refused_centre(n, seed):
    """No step of these inputs is refused, so one is made up: the first
    centre's matches are passed over, a match elsewhere lands, and the
    search it is sent to still holds the first centre."""
    wg = WorkingGraph(random_plane(n, seed=seed))
    search = MatchQueue(wg).matches()
    m = next(search)
    centre = m.binding["v"]
    while m.binding["v"] == centre:
        m = next(search)
    _, _, reach = reducer._step(wg, m)
    assert centre not in reach
    rest = [search.send(reach), *search]
    assert rest == list(MatchQueue(wg).matches())
    assert any(m.binding["v"] == centre for m in rest)


@pytest.mark.parametrize("n,seed", [(120, 3), (100, 0), (60, 2)])
def test_resumed_search_drops_a_kept_centre_whose_degree_moved(n, seed):
    """The first centre's match is passed over and a step next to it
    changes its degree: once the search is sent that step, the centre is
    pending at a rank of its new degree, as every live vertex is."""
    wg = WorkingGraph(random_plane(n, seed=seed))
    queue = MatchQueue(wg)
    search = queue.matches()
    centre = next(search).binding["v"]
    degree = wg.deg[centre]
    for m in MatchQueue(wg).matches():
        chords = [e for e in m.added_edges() if centre in e and not wg.has_edge(*e)]
        if m.deleted in wg.rotations[centre] and len(chords) != 1:
            break
    _, _, reach = reducer._step(wg, m)
    assert wg.deg[centre] not in (0, degree)
    rest = [search.send(reach)]
    # every live vertex is pending at a rank of its degree, or past the last
    pending, deg = queue._pending, wg.deg
    assert all(
        pending[v] == len(_PRIORITY) or _PRIORITY[pending[v]].degree == deg[v]
        for v in wg.alive()
    )
    assert rest + list(search) == list(MatchQueue(wg).matches())


def live_ids(m, live: list[int]):
    """A match on the densely relabelled graph, in the working graph's ids."""
    return m._replace(binding={r: live[x] for r, x in m.binding.items()})


REFUSAL_GRAPHS = {
    **{
        f"random_plane({n}, {s})": lambda n=n, s=s: random_plane(n, seed=s)
        for n, s in ((60, 2), (100, 0), (150, 1))
    },
    **{f"medial_plus(40, {s})": lambda s=s: medial_plus(40, s, extra=30) for s in range(2)},
    **{
        f"snub({name})": lambda name=name: snub(name)
        for name in ("cube", "dodecahedron", "triangulation(40, 0)")
    },
}


@pytest.mark.parametrize("name", REFUSAL_GRAPHS)
def test_search_with_refusals_is_a_fresh_scan_at_every_state(name):
    """At each state of a reduction, the resumed search is pulled for j
    = 1, 2 or 3 matches in turn, refusing the first j - 1: they must be
    the first j matches of a fresh scan of the graph rebuilt from
    scratch.  The j-th is applied and its reach sent, so the paths for
    refused matches and for the centres a search keeps run on real
    inputs, whose steps ``color16`` never refuses."""
    wg = WorkingGraph(REFUSAL_GRAPHS[name]())
    search = MatchQueue(wg).matches()
    reach, refused, state = None, 0, 0
    while wg.n > PALETTE:
        live = wg.alive()
        fresh = (live_ids(m, live) for m in iter_matches(wg.to_plane_graph()))
        want = list(islice(fresh, 3))
        j = min(1 + state % 3, len(want))
        got = [next(search) if reach is None else search.send(reach)]
        got += [next(search) for _ in range(j - 1)]
        assert got == want[:j], (name, state)
        refused += j - 1
        while True:
            try:
                _, _, reach = reducer._step(wg, got[-1])
                break
            except (EmbeddingBroken, DegreeOverflow):
                got.append(next(search))
                k = len(got) - 1
                assert got[-1] == (want[k] if k < len(want) else next(fresh))
        state += 1
    assert state > 2 and refused


@pytest.mark.parametrize(
    "name", [name for name in REFUSAL_GRAPHS if name != "snub(triangulation(40, 0))"]
)
def test_search_past_the_far_ranks_is_a_fresh_scan_at_every_state(name):
    """At each state of a reduction, the resumed search is pulled up to
    its first match at a far rank, or up to as many matches as a fresh
    scan of the rebuilt graph has, and must give that scan's first
    matches.  The last pulled match that lands is applied and its reach
    sent, so the search keeps centres at several ranks, some of them far,
    and puts them back after a step it did not yield last."""
    wg = WorkingGraph(REFUSAL_GRAPHS[name]())
    search = MatchQueue(wg).matches()
    reach, state = None, 0
    while wg.n > PALETTE:
        live = wg.alive()
        want = []
        for m in iter_matches(wg.to_plane_graph()):
            want.append(live_ids(m, live))
            if _FAR[RANK[m.rule_id]]:
                break
        got = [next(search) if reach is None else search.send(reach)]
        got += [next(search) for _ in want[1:]]
        assert got == want, (name, state)
        for m in reversed(got):
            try:
                _, _, reach = reducer._step(wg, m)
                break
            except (EmbeddingBroken, DegreeOverflow):
                pass
        else:
            raise AssertionError(f"{name}, state {state}: no pulled match lands")
        state += 1
    assert state > 2


def test_color16_opens_one_search(monkeypatch):
    opened = []
    matches = MatchQueue.matches

    def counted(queue):
        opened.append(queue)
        return matches(queue)

    monkeypatch.setattr(MatchQueue, "matches", counted)
    graphs = [random_plane(20 + 13 * i, seed=i) for i in range(5)]
    steps = [len(color16(g)[1]) for g in graphs]
    assert len(opened) == len(graphs) and min(steps) > 1


FRAME_GRAPHS = {
    **{name: lambda name=name: named(name) for name in NAMED_GRAPHS},
    "random_plane(120, 3)": lambda: random_plane(120, seed=3),
    "medial_plus(40, 0)": lambda: medial_plus(40, 0, extra=30),
}


class TestFrames:
    @pytest.mark.parametrize("name", FRAME_GRAPHS)
    def test_plane_graph_frames_match_formula(self, name):
        g = FRAME_GRAPHS[name]()
        assert_frames_match_formula(g, range(g.n))

    @pytest.mark.parametrize("name", ["random_plane(120, 3)", "medial_plus(40, 0)"])
    def test_working_graph_frames_match_formula(self, name):
        wg = reduced(FRAME_GRAPHS[name](), 12)
        assert len(wg.alive()) < len(wg.rotations)
        assert_frames_match_formula(wg, wg.alive())


def assert_query_matches_reference(g, live) -> None:
    """Asked for a rule's corners, or a degree-5 class's, at a live
    centre, the frame query returns the centre's frames that show them,
    in frame order, and the index query their indices.  The queries run in
    turn, so a centre's frame indices kept for one rule's corners serve
    every later centre with the same corner lengths."""
    ctx = _Ctx(g)
    frames = {v: frames_by_formula(g, v) for v in live if 1 <= g.deg[v] <= 5}
    sets = [r.corners for r in _PRIORITY] + [c for c, _ in _FAMILIES.values()]
    shown = 0
    for corners in sets:
        for v, ref in frames.items():
            got = ctx.showing(v, corners)
            assert got == [w for w, c in ref if c in corners], v
            assert_indices_match_formula(ctx, v, ref, corners)
            shown += len(got)
    assert shown or not frames
    assert set(_SHOWN) <= set(sets)  # one table per corner set of the rules


QUERY_GRAPHS = {
    **{name: lambda name=name: named(name) for name in NAMED_GRAPHS},
    **{f"snub({name})": lambda name=name: snub(name) for name in SNUB_GRAPHS},
    **{
        f"random_plane({n}, {s})": lambda n=n, s=s: random_plane(n, seed=s)
        for n, s in ((40, 1), (120, 3), (150, 7))
    },
}


class TestFrameQuery:
    @pytest.mark.parametrize("name", QUERY_GRAPHS)
    def test_plane_graph(self, name):
        g = QUERY_GRAPHS[name]()
        assert_query_matches_reference(g, range(g.n))

    @pytest.mark.parametrize("name", [n for n in QUERY_GRAPHS if "random" in n])
    def test_working_graph_halfway_through_color16(self, name):
        g = QUERY_GRAPHS[name]()
        wg = reduced(g, (g.n - PALETTE) // 2)
        assert_query_matches_reference(wg, wg.alive())


def assert_every_corner_is_shown(g, live) -> int:
    """Every corner of a live vertex of degree 2 or more has capped
    length 3, 4 or 5, so ``shown``, which answers the set of every
    corner tuple of the vertex's degree without reading its corners,
    answers what filtering its frames' corners gives.  Returns the
    number of vertices checked."""
    ctx = _Ctx(g)
    checked = 0
    for v in live:
        d = g.deg[v]
        if d < 2:
            continue
        cl = g.corner_lens(v)
        assert set(cl) <= {3, 4, 5}, (v, cl)
        if d > 5:
            continue
        every = frozenset(product((3, 4, 5), repeat=d))
        assert every in _EVERY
        assert ctx.shown(v, every) == tuple(
            k for k, c in enumerate(_frame_corners(cl)) if c in every
        ), v
        checked += 1
    return checked


class TestEveryCornerShown:
    def test_named_corpus(self, corpus_graph):
        g = corpus_graph
        assert_every_corner_is_shown(g, range(g.n))

    @pytest.mark.parametrize("seed", range(12))
    def test_random_plane(self, seed):
        g = random_plane(20 + 23 * seed, seed=seed)
        assert assert_every_corner_is_shown(g, range(g.n))

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_plane(150, seed=7),
            lambda: medial_plus(40, 0, extra=30),
            lambda: snub("dodecahedron"),
        ],
        ids=["random_plane(150, 7)", "medial_plus(40, 0)", "snub(dodecahedron)"],
    )
    def test_working_graph_during_color16(self, make):
        # every 7th graph that color16's steps leave, down to its last
        checked = 0
        for i, (wg, _, _) in enumerate(color16_steps(make())):
            if i % 7 == 0 or wg.n <= PALETTE:
                checked += assert_every_corner_is_shown(wg, wg.alive())
        assert checked


def count_frames(monkeypatch) -> list:
    """The rings of the frames detection builds from now on."""
    built = []
    frame = _Ctx.frame

    def counted(ctx, v, k):
        w = frame(ctx, v, k)
        built.append(w)
        return w

    monkeypatch.setattr(_Ctx, "frame", counted)
    return built


class TestFramesBuilt:
    def test_color16_builds_one_frame_per_step(self, monkeypatch):
        # on these inputs every step's match is the first frame its
        # search reaches, and a search stops at its first match
        built = count_frames(monkeypatch)
        steps = sum(
            len(color16(random_plane(20 + 13 * i, seed=i))[1]) for i in range(10)
        )
        assert len(built) == steps > 0

    @pytest.mark.parametrize("name", ["cube", "random_plane(120, 3)"])
    def test_refused_corners_build_no_frame(self, name, monkeypatch):
        g = FRAME_GRAPHS[name]()
        ctx = _Ctx(g)
        built = count_frames(monkeypatch)
        refused = 0
        for rule in _PRIORITY:
            for v in range(g.n):
                if g.deg[v] == rule.degree and not ctx.shown(v, rule.corners):
                    assert list(center_matches(ctx, rule, v)) == []
                    refused += 1
        assert built == [] and refused

    def test_color16_examines_few_centres(self, monkeypatch):
        # a step's reach is its distance-two ball, and only the ranks
        # that read past a centre's ring look one step further; when
        # every rank also read the ball's neighbours, these inputs made
        # 1,113 examinations for 625 steps
        # an examination asks which of the centre's frames show the
        # rule's corners
        examined = []

        def counted(ctx, v, corners):
            examined.append(v)
            return shown(ctx, v, corners)

        shown = _Ctx.shown
        monkeypatch.setattr(_Ctx, "shown", counted)
        steps = sum(
            len(color16(random_plane(20 + 13 * i, seed=i))[1]) for i in range(10)
        )
        assert steps == 625 and len(examined) <= 930


# ======================================================================
# how far each rule reads
# ======================================================================


class ReadPastRing(Exception):
    """Detection read past a centre's ring."""


class CentreRows:
    def __init__(self, view):
        self.view = view

    def __getitem__(self, v):
        return self.view.g.rotations[self.view.own(v)]


class CentreView:
    """A graph that answers a centre's rotation, corners and d2, every
    degree and which edges exist and lie in two triangles, and raises
    ``ReadPastRing`` for the rotation, corners or d2 of any other vertex."""

    def __init__(self, g, centre: int):
        self.g, self.centre, self.deg = g, centre, g.deg
        self.rotations = CentreRows(self)

    def own(self, v: int) -> int:
        if v != self.centre:
            raise ReadPastRing(v)
        return v

    def corner_lens(self, v: int):
        return self.g.corner_lens(self.own(v))

    def d2(self, v: int) -> int:
        return self.g.d2(self.own(v))

    def has_edge(self, a: int, b: int) -> bool:
        return self.g.has_edge(a, b)

    def edge_in_two_triangles(self, a: int, b: int) -> bool:
        return self.g.edge_in_two_triangles(a, b)


RADIUS_GRAPHS = {
    **{name: lambda name=name: named(name) for name in NAMED_GRAPHS},
    **{f"snub({name})": lambda name=name: snub(name) for name in SNUB_GRAPHS},
    **{f"medial_plus(40, {s})": lambda s=s: medial_plus(40, s, extra=30) for s in range(6)},
    # the one input here whose frames show R-supp-b1's and R-supp-b2's corners
    "random_plane(150, 1)": lambda: random_plane(150, seed=1),
}


def test_near_rules_read_nothing_past_the_ring(monkeypatch):
    """``MatchQueue`` gives the near ranks a step's reach alone, which
    holds every centre whose corners, ring, ring degrees, ring ``in2`` or
    d2 can change.  So a near rule must read nothing else: with
    ``bad_kind`` and every other vertex's rotation, corners and d2
    raising, it runs at every centre of these graphs.  Every far rule
    reads past the ring somewhere, so the guard bites."""

    def bad_kind(ctx, v):
        raise ReadPastRing(v)

    monkeypatch.setattr(_Ctx, "bad_kind", bad_kind)
    far = set()
    for name, make in RADIUS_GRAPHS.items():
        g = make()
        for r, rule in enumerate(_PRIORITY):
            for v in range(g.n):
                if g.deg[v] != rule.degree:
                    continue
                try:
                    list(center_matches(_Ctx(CentreView(g, v)), rule, v))
                except ReadPastRing:
                    assert _FAR[r], (name, rule.id, v)
                    far.add(rule.id)
    assert far == {rule.id for rule, f in zip(_PRIORITY, _FAR) if f}
    assert len(far) == 16
