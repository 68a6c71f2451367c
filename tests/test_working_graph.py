"""In-place reduction against the rebuild-everything reference.

``rebuild_apply`` below is the reduction step as it was before the
working graph: patch the rotations, build a fresh ``PlaneGraph`` (which
checks Euler's formula and connectivity) and compare the full two-hop
tables with ``is_proper_wrt``.  ``stepwise_color16`` is the reduction
loop as it was: ``iter_matches`` + ``apply`` + ``extend`` on a fresh
graph per step.  Both are kept here only as oracles.
"""

import copy
import json
import random
from array import array
from collections import Counter, deque
from itertools import combinations

import pytest
from hypothesis import given, settings

from planecolor import reducer
from planecolor.configurations import (
    _FAR,
    _PRIORITY,
    MatchQueue,
    _Ctx,
    _frame_matches,
    iter_matches,
)
from planecolor.conflict import Coloring, validate
from planecolor.errors import (
    AnomalyNoConfiguration,
    DegreeOverflow,
    Disconnected,
    EmbeddingBroken,
    EngineError,
    NotPlanarEmbedding,
)
from planecolor.exact_solver import UNKNOWN
from planecolor.generators import NAMED_GRAPHS, _grow_triangulation, named, random_plane
from planecolor.plane_graph import PlaneGraph, two_hop
from planecolor.reducer import (
    PALETTE,
    ReductionTrace,
    apply,
    color16,
    extend,
    is_proper_wrt,
)
from planecolor.working_graph import (
    WorkingGraph,
    _crossing,
    _merge,
    _root,
    _targets_in_order,
)
from strategies import rotation_systems
from test_kernels import reference_walks

CROSSING_MATCH_RULES = {"R-good-c", "R-good-d1", "R-good-d2", "R-5t4n-b1"}


# ======================================================================
# oracles
# ======================================================================


def rebuild_delete(g: PlaneGraph, dv: int, chords) -> PlaneGraph:
    """Delete dv, add chords, rebuild and check everything globally."""
    chords_at: dict[int, list[int]] = {}
    for a, b in chords:
        chords_at.setdefault(a, []).append(b)
        chords_at.setdefault(b, []).append(a)
    rows = []
    for v in range(g.n):
        if v == dv:
            continue
        row = list(g.rotations[v])
        if dv in row:
            i = row.index(dv)
            row[i : i + 1] = _targets_in_order(
                g.rotations[dv], v, chords_at.get(v, [])
            )
        rows.append([u - 1 if u > dv else u for u in row])
    try:
        h = PlaneGraph(rows)
    except (NotPlanarEmbedding, Disconnected) as exc:
        raise EmbeddingBroken(str(exc)) from exc
    if h.n + h.m >= g.n + g.m:
        raise EmbeddingBroken("size did not drop")
    if h.n > 1 and max(h.deg) > 5:
        raise DegreeOverflow("reduced graph has degree > 5")
    if not is_proper_wrt(g, h, dv):
        raise EmbeddingBroken("a distance-two pair fell apart")
    return h


def rebuild_apply(g: PlaneGraph, match) -> tuple[PlaneGraph, ReductionTrace]:
    dv = match.deleted
    adds = [e for e in match.added_edges() if not g.has_edge(*e)]
    gain: dict[int, int] = {}
    for a, b in adds:
        gain[a] = gain.get(a, 0) + 1
        gain[b] = gain.get(b, 0) + 1
    for x, extra in gain.items():
        if g.degree(x) - (1 if g.has_edge(x, dv) else 0) + extra > 5:
            raise DegreeOverflow(f"vertex {x}")
    h = rebuild_delete(g, dv, adds)
    trace = ReductionTrace(
        step=-1,
        rule=match.rule_id,
        deleted=dv,
        added_edges=tuple(adds),
        v_plus_e_before=g.n + g.m,
        v_plus_e_after=h.n + h.m,
        observed_d2=match.observed_d2,
    )
    return h, trace


def stepwise_color16(g: PlaneGraph):
    stack = []
    cur = g
    while cur.n > PALETTE:
        for match in iter_matches(cur):
            try:
                nxt, trace = apply(cur, match)
            except (EmbeddingBroken, DegreeOverflow):
                continue
            stack.append((cur, trace._replace(step=len(stack))))
            cur = nxt
            break
        else:
            raise AssertionError(f"no configuration applies at n={cur.n}")
    colors = {v: v + 1 for v in range(cur.n)}
    for frame, trace in reversed(stack):
        colors = extend(frame, trace, colors)
    return Coloring(palette=PALETTE, colors=colors), [t for _, t in stack]


def center_matches(ctx: _Ctx, rule, v: int):
    """Matches of one rule centred at v, in frame order."""
    for k in ctx.shown(v, rule.corners):
        yield from _frame_matches(ctx, rule, v, k)


def _as_json(coloring, traces) -> str:
    return json.dumps(
        {"coloring": coloring.to_json(), "trace": [t.to_json() for t in traces]},
        sort_keys=True,
    )


def color_large_input() -> PlaneGraph:
    # the default-seed input of the color-large benchmark workload
    draws = [random_plane(690, seed=j) for j in range(12)]
    return min(draws, key=lambda g: abs(g.n + g.m - 1700))


# ======================================================================
# working-graph state against a rebuild
# ======================================================================


def assert_matches_rebuild(wg: WorkingGraph) -> None:
    """The working graph agrees with a PlaneGraph built from scratch on
    its rotations: sizes, labels, d2, degrees, and the exact and the
    capped length of the face in every corner."""
    h = wg.to_plane_graph()
    live = wg.alive()
    assert [[live[u] for u in row] for row in h.rotations] == [
        wg.rotations[v] for v in live
    ]
    assert all(not wg.rotations[v] for v in set(range(len(wg.rotations))) - set(live))
    assert (wg.n, wg.m) == (h.n, h.m)
    for i, v in enumerate(live):
        assert wg.label(v) == i
        assert wg.d2(v) == h.d2(i)
        assert wg.deg[v] == h.degree(i)
        # corner i of v is traced by the dart v -> rot[v][i + 1]
        lo, hi = h.rot_start[i], h.rot_start[i + 1]
        faces = h.face_of_dart[lo + 1 : hi] + h.face_of_dart[lo : min(lo + 1, hi)]
        exact = [wg._flen[_root(wg._up, f)] for f in wg._faces[v]]
        assert exact == [h.face_lens[f] for f in faces]
        assert wg.corner_lens(v) == tuple(min(ln, 5) for ln in h.corner_lens(i))


def snapshot(wg: WorkingGraph):
    size = len(wg.rotations)
    buckets: dict[int, list[int]] = {}
    for v in range(size):
        buckets.setdefault(wg.deg[v], []).append(v)
    return (
        copy.deepcopy(wg.rotations),
        [wg.corner_lens(v) for v in range(size)],
        [wg.d2(v) for v in range(size)],
        buckets,
        (wg.n, wg.m),
        [wg.label(v) for v in range(size)],
    )


class TestWorkingGraph:
    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_fresh_graph_matches_rebuild(self, name):
        assert_matches_rebuild(WorkingGraph(named(name)))

    # (214, 194) and (258, 518) delete a leaf whose face comes out of
    # length at most 4, and have holes of many chords whose regions
    # share a face
    @pytest.mark.parametrize(
        "n,seed", [(60, 1), (150, 2), (300, 3), (200, 11), (214, 194), (258, 518)]
    )
    def test_every_color16_step_matches_rebuild(self, n, seed, monkeypatch):
        original = reducer._step
        steps = []

        def checked(wg, match, step):
            out = original(wg, match, step)
            assert_matches_rebuild(wg)
            assert out[0].step == step == len(steps)
            steps.append(out[0])
            return out

        monkeypatch.setattr(reducer, "_step", checked)
        g = random_plane(n, seed=seed)
        _, traces = color16(g)
        assert steps == traces and len(traces) == g.n - PALETTE

    # random_plane(354, 5287) deletes a leaf whose face comes out of length
    # at most 4 with a corner of that face past the leaf's ball: when a
    # step reports the ball alone as its reach, a centre there is not
    # examined again, and color16 takes another match and colors the
    # graph otherwise
    @pytest.mark.parametrize("n,seed", [(354, 5287), (214, 194), (258, 518)])
    def test_each_step_takes_a_fresh_queues_first_match(self, n, seed, monkeypatch):
        original = reducer._step
        refused = []  # the matches refused since the last step landed

        def checked(wg, match, step):
            fresh = MatchQueue(wg).matches()
            assert match == next(m for m in fresh if m not in refused), step
            try:
                out = original(wg, match, step)
            except (EmbeddingBroken, DegreeOverflow):
                refused.append(match)
                raise
            refused.clear()
            return out

        monkeypatch.setattr(reducer, "_step", checked)
        g = random_plane(n, seed=seed)
        assert len(color16(g)[1]) == g.n - PALETTE

    def test_labels_across_blocks(self, monkeypatch):
        """A label counts the tombstones of whole blocks below v, then of
        v's own block; the rebuild checks above see only the least block
        size.  Here blocks are bigger, and at every 97th step each
        block's first and last live id gets its dense label."""
        g = PlaneGraph(snub_rotations(_grow_triangulation(700, random.Random(0))))
        original = reducer._step
        checked = []

        def sampled(wg, match, step):
            out = original(wg, match, step)
            if step % 97 == 0:
                live, block = wg.alive(), wg._block
                first, last = {}, {}
                for v in live:
                    first.setdefault(v // block, v)
                    last[v // block] = v
                for v in {*first.values(), *last.values()}:
                    assert wg.label(v) == live.index(v), (step, v)
                checked.append(len(first))
            return out

        monkeypatch.setattr(reducer, "_step", sampled)
        color16(g)
        assert g.n == 4188 and WorkingGraph(g)._block > 64
        assert len(checked) == 44 and min(checked) > 1

    @pytest.mark.parametrize("name", ["fig2b", "fig2c"])
    def test_refused_step_rolls_back(self, name):
        g = named(name)
        matches = list(iter_matches(g))
        crossing = [
            i for i, m in enumerate(matches) if m.rule_id in CROSSING_MATCH_RULES
        ]
        assert crossing
        for i in crossing:
            wg = WorkingGraph(g)
            before = snapshot(wg)
            with pytest.raises(EmbeddingBroken):
                reducer._step(wg, matches[i])
            assert snapshot(wg) == before
            # the search moves on past refused matches; in fig2b the
            # crossing matches come last, so it wraps to the first ones
            for nxt in matches[i + 1 :] + matches[:i]:
                try:
                    want_h, want_trace = rebuild_apply(g, nxt)
                except (EmbeddingBroken, DegreeOverflow):
                    with pytest.raises((EmbeddingBroken, DegreeOverflow)):
                        reducer._step(wg, nxt)
                    assert snapshot(wg) == before
                    continue
                trace = reducer._step(wg, nxt)[0]
                assert trace == want_trace
                assert wg.to_plane_graph() == want_h
                assert_matches_rebuild(wg)
                break
            else:
                raise AssertionError("no match after the refused one applies")

    @pytest.mark.parametrize(
        "make",
        [lambda: random_plane(300, seed=3)]
        + [lambda s=s: medial_plus(40, s, extra=30) for s in range(3)],
        ids=["random_plane(300, 3)"] + [f"medial_plus(40, {s})" for s in range(3)],
    )
    def test_ball_of_every_color16_step_is_current(self, make, monkeypatch):
        """The ball ``delete`` returns is dv's distance-two ball in the
        graph the step starts from."""
        balls = record_balls(monkeypatch)
        g = make()
        _, traces = color16(g)
        assert len(balls) == len(traces) == g.n - PALETTE
        assert all(got == want for got, want in balls)

    @pytest.mark.parametrize("name", ["fig2b", "fig2c"])
    def test_ball_after_refused_steps_is_current(self, name, monkeypatch):
        """A refused step leaves the graph as it was, so the step the
        search tries next returns the ball of the unchanged graph."""
        g = named(name)
        matches = list(iter_matches(g))
        crossing = [
            i for i, m in enumerate(matches) if m.rule_id in CROSSING_MATCH_RULES
        ]
        assert crossing
        balls = record_balls(monkeypatch)
        for i in crossing:
            wg = WorkingGraph(g)
            with pytest.raises(EmbeddingBroken):
                reducer._step(wg, matches[i])
            for nxt in matches[i + 1 :] + matches[:i]:
                try:
                    reducer._step(wg, nxt)
                except (EmbeddingBroken, DegreeOverflow):
                    continue
                break
        assert len(balls) == len(crossing)
        assert all(got == want for got, want in balls)

    def test_certificate_matches_rebuild_on_random_chord_sets(self):
        """Arbitrary chord sets, crossing or not, at cut vertices or not:
        sets that do not cross are refused exactly when the rebuild
        refuses them, and crossing sets are always refused."""
        rng = random.Random(7)
        seen = Counter()
        for g in certificate_inputs(rng):
            for dv in range(g.n):
                ring = g.rotations[dv]
                missing = [
                    (a, b)
                    for a, b in combinations(sorted(ring), 2)
                    if not g.has_edge(a, b)
                ]
                for _ in range(6):
                    k = rng.randrange(len(missing) // 2, len(missing) + 1)
                    chords = rng.sample(missing, k)
                    seen[check_against_rebuild(g, dv, chords)] += 1
        # every outcome occurs, crossing sets the rebuild accepts too
        assert len(seen) == 4, seen

    @pytest.mark.parametrize(
        "rows",
        [
            [[1, 2, 3, 4, 5], [0], [0], [0], [0], [0]],  # star: five components
            [[1, 2, 3, 4], [2, 0], [0, 1], [4, 0], [0, 3]],  # bowtie: two
            [[1, 2, 3, 4], [0, 5], [0], [0, 6], [0], [1], [3]],  # spider
        ],
    )
    def test_certificate_matches_rebuild_on_every_chord_set_at_a_cut_vertex(self, rows):
        g = PlaneGraph(rows)
        missing = [
            (a, b) for a, b in combinations(sorted(rows[0]), 2) if not g.has_edge(a, b)
        ]
        seen = Counter()
        for mask in range(1 << len(missing)):
            chords = [e for i, e in enumerate(missing) if mask >> i & 1]
            seen[check_against_rebuild(g, 0, chords)] += 1
        assert seen["accepted"] > 0
        # crossing sets the rebuild accepts, which delete refuses
        assert seen["crossing", "plane"] > 0, seen

    @pytest.mark.parametrize("seed", range(6))
    def test_random_steps_on_degree_five_graphs(self, seed):
        """Apply random matches, not just the first, so the degree-5
        rules run too.  Each step must equal the rebuild; every centre
        whose matches change must lie in the step's reach for a rule that
        reads nothing past the centre's ring, and next to it for a rule
        that does (``MatchQueue``); a context made before the walk and
        never called in between must answer ``bad_kind`` and ``in2`` as
        a fresh one does."""
        near = {rule.id for rule, far in zip(_PRIORITY, _FAR) if not far}
        rng = random.Random(seed)
        g = medial_plus(40, seed, extra=30)
        wg = WorkingGraph(g)
        ctx = _Ctx(wg)
        kept = _Ctx(wg)
        applied = Counter()
        while len(applied) < 8 or sum(applied.values()) < 40:
            if wg.n <= PALETTE:
                break
            before = all_matches(ctx, wg)
            cur = wg.to_plane_graph()
            live = wg.alive()
            pool = [m for ms in before.values() for m in ms]
            rng.shuffle(pool)
            for m in pool:
                dense = m._replace(
                    binding={r: live.index(u) for r, u in m.binding.items()}
                )
                try:
                    want = rebuild_apply(cur, dense)
                except (EmbeddingBroken, DegreeOverflow):
                    with pytest.raises((EmbeddingBroken, DegreeOverflow)):
                        reducer._step(wg, m)
                    continue
                trace, _, reach = reducer._step(wg, m)
                assert (wg.to_plane_graph(), trace) == want
                applied[m.rule_id] += 1
                break
            else:
                break
            assert_matches_rebuild(wg)
            fresh = _Ctx(wg)
            for v in wg.alive():
                assert kept.bad_kind(v) == fresh.bad_kind(v), v
                for u in wg.rotations[v]:
                    assert kept.in2(v, u) == fresh.in2(v, u), (v, u)
            after = all_matches(ctx, wg)
            wide = reach.union(*(wg.rotations[v] for v in reach))
            for key in before.keys() | after.keys():
                if before.get(key) != after.get(key) and wg.deg[key[1]]:
                    assert key[1] in (reach if key[0] in near else wide), key
        assert len(applied) >= 5, applied


def check_against_rebuild(g: PlaneGraph, dv: int, chords):
    """Run ``delete`` on a fresh working graph of g and hold it to
    ``rebuild_delete``; return how the chord set fared."""
    try:
        want = rebuild_delete(g, dv, chords)
    except (EmbeddingBroken, DegreeOverflow):
        want = None
    wg = WorkingGraph(g)
    before = snapshot(wg)
    if _crossing(chords, {w: i for i, w in enumerate(g.rotations[dv])}):
        with pytest.raises(EmbeddingBroken):
            wg.delete(dv, chords)
        assert snapshot(wg) == before
        return "crossing", "plane" if want else "broken"
    try:
        wg.delete(dv, chords)
    except (EmbeddingBroken, DegreeOverflow):
        assert want is None, (g.rotations, dv, chords)
        assert snapshot(wg) == before
        return "refused"
    assert want is not None, (g.rotations, dv, chords)
    assert wg.to_plane_graph() == want
    assert_matches_rebuild(wg)
    return "accepted"


def record_balls(monkeypatch) -> list:
    """Patch ``WorkingGraph.delete`` to record, for each step it applies,
    the ball it returns and dv's distance-two ball taken just before."""
    balls = []
    delete = WorkingGraph.delete

    def recorded(self, dv, chords, rule=""):
        want = two_hop(self.rotations, dv)
        out = delete(self, dv, chords, rule)
        balls.append((out[0], want))
        return out

    monkeypatch.setattr(WorkingGraph, "delete", recorded)
    return balls


def split_face(rows: list[list[int]], cycle: list[int]) -> list[list[int]]:
    """Put a new vertex inside the face that walks ``cycle`` and join it
    to every corner of that face."""
    w = len(rows)
    for x, y in zip(cycle[-1:] + cycle[:-1], cycle):
        rows[y].insert(rows[y].index(x) + 1, w)
    rows.append(cycle[::-1])
    return rows


def bipyramid(shift: int) -> PlaneGraph:
    """Hubs 5 and 6 over the rim 0..4, each rim rotation turned so that
    hub 5 sits in slot ``shift``."""
    rim = [[(i + 1) % 5, (i - 1) % 5] for i in range(5)]
    rows = split_face(split_face(rim, [0, 1, 2, 3, 4]), [4, 3, 2, 1, 0])
    for w in range(5):
        i = rows[w].index(5) - shift
        rows[w] = rows[w][i:] + rows[w][:i]
    return PlaneGraph(rows)


def rebuild_live(wg: WorkingGraph, dv: int, chords) -> PlaneGraph:
    """``rebuild_delete`` on the live part of wg, in its dense labels."""
    label = wg.label
    chords = [(label(a), label(b)) for a, b in chords]
    return rebuild_delete(wg.to_plane_graph(), label(dv), chords)


def delete_and_check(wg: WorkingGraph, dv: int, chords) -> None:
    want = rebuild_live(wg, dv, chords)
    wg.delete(dv, chords)
    assert wg.to_plane_graph() == want
    assert_matches_rebuild(wg)


def cycle(k: int) -> list[list[int]]:
    """Rotations of the k-cycle 0, 1, ..., k - 1, which walks a face."""
    return [[(i + 1) % k, (i - 1) % k] for i in range(k)]


def drop_edges(rows: list[list[int]], v: int, gone) -> list[list[int]]:
    for u in gone:
        rows[v].remove(u)
        rows[u].remove(v)
    return rows


# a hub, the last vertex, inside a cycle: joined to the even vertices of
# a hexagon and of a 10-cycle, and to every vertex of the path 0..4
HEX_HUB = drop_edges(split_face(cycle(6), list(range(6))), 6, [1, 3, 5])
DECAGON_HUB = drop_edges(split_face(cycle(10), list(range(10))), 10, [1, 3, 5, 7, 9])
FAN = drop_edges(split_face(cycle(5), list(range(5))), 0, [4])


class RowReads(list):
    """Rotations that note which rows are read."""

    def __init__(self, rows):
        super().__init__(rows)
        self.read = set()

    def __getitem__(self, v):
        self.read.add(v)
        return super().__getitem__(v)


class TestSplice:
    """Hand-built steps at the places where corner ids are spliced
    and faces merged."""

    @pytest.mark.parametrize("chords", [[], [(1, 2)], [(1, 2), (4, 5)]])
    def test_four_face_whose_far_corner_is_on_the_ring(self, chords):
        # the kite 0-1-3-2 with the diagonal 0-3 drawn outside it, so the
        # 4-face 0,1,3,2 has its far corner at 3, a neighbour of 0
        rows = [[1, 3, 2], [3, 0], [0, 3], [2, 0, 1]]
        g = PlaneGraph(split_face(split_face(rows, [0, 3, 1]), [0, 2, 3]))
        assert [(0, 1), (1, 3), (3, 2), (2, 0)] in reference_walks(g)[1]
        delete_and_check(WorkingGraph(g), 0, chords)

    @pytest.mark.parametrize("shift", range(4))
    @pytest.mark.parametrize("chords", [[], [(0, 2)], [(0, 2), (0, 3)]])
    def test_every_slot_and_two_targets(self, shift, chords):
        # shift 0 and 3 put the deleted hub in the first and the last
        # slot of every rim rotation; the fan gives vertex 0 two targets
        g = bipyramid(shift)
        assert all(g.rotations[w].index(5) == shift for w in range(5))
        delete_and_check(WorkingGraph(g), 5, chords)

    @pytest.mark.parametrize("shift", [0, 3])
    def test_refused_step_on_spliced_keys(self, shift):
        wg = WorkingGraph(bipyramid(shift))
        delete_and_check(wg, 5, [(0, 2), (0, 3)])
        before = snapshot(wg)
        crossing = [(1, 3), (2, 4)]
        with pytest.raises(EmbeddingBroken):
            rebuild_live(wg, 6, crossing)
        with pytest.raises(EmbeddingBroken):
            wg.delete(6, crossing)
        assert snapshot(wg) == before
        delete_and_check(wg, 6, [(1, 3)])

    def test_long_faces_are_merged_not_walked(self):
        # the 10-cycle with the chord 0-5 drawn through vertex 10: faces
        # of length 7, 7 and 10
        rows = cycle(10)
        rows[0].insert(1, 10)
        rows[5].insert(1, 10)
        wg = WorkingGraph(PlaneGraph(rows + [[0, 5]]))
        m = next(MatchQueue(wg).matches())
        assert (m.rule_id, m.binding) == ("R-2v", {"v": 1, "v1": 2, "v2": 0})
        near = two_hop(wg.rotations, 1) | {1}
        wg.rotations = RowReads(wg.rotations)
        reducer._step(wg, m)
        # the chord 0-2 closes faces of length 6 and 9, each through a
        # vertex three steps from 1, so a walk of either would read a
        # row outside 1's distance-two ball
        assert wg.rotations.read <= near
        assert sorted(wg.to_plane_graph().face_lens) == [6, 7, 9]
        assert_matches_rebuild(wg)

    @pytest.mark.parametrize(
        "rows,dv,chords,lens",
        [
            # R-3adj4 at hub 6 of a hexagon, v1 = 2 in the middle of its
            # ring 4, 2, 0: the wedge at 2 between its two chords lies
            # outside both, on the face 0, 2, 4, 5
            (HEX_HUB, 6, ("R-3adj4", 2), [3, 3, 4, 6]),
            # chords 0-2, 2-4, 4-0 at the hub of a fan: the triangle
            # they close holds no old face
            (FAN, 5, [(0, 2), (2, 4), (4, 0)], [3, 3, 3, 5]),
            # R-5n5 at hub 10 of a 10-cycle: the pentagon of its chords
            (DECAGON_HUB, 10, ("R-5n5", 8), [3, 3, 3, 3, 3, 5, 10]),
            # the cut vertex 0 between a triangle and the path 0-3-4:
            # the chord 2-3 is a bridge, so its two sides are one face
            ([[1, 2, 3], [2, 0], [0, 1], [0, 4], [3]], 0, [(2, 3)], [6]),
            # the middle of the path 1-0-2: the chord takes its place at
            # both corners of the one face
            ([[1, 2], [0], [0]], 0, [(1, 2)], [2]),
        ],
        ids=[
            "3adj4-wedge",
            "chord-triangle",
            "5n5-pentagon",
            "cut-vertex-bridge",
            "cut-vertex-two-corners",
        ],
    )
    def test_hole_faces(self, rows, dv, chords, lens):
        g = PlaneGraph(rows)
        if isinstance(chords, tuple):  # the chords of a match at dv
            rule_id, v1 = chords
            rule = next(r for r in _PRIORITY if r.id == rule_id)
            chords = next(
                m.added_edges()
                for m in center_matches(_Ctx(g), rule, dv)
                if m.binding["v1"] == v1
            )
        wg = WorkingGraph(g)
        delete_and_check(wg, dv, chords)
        assert sorted(wg.to_plane_graph().face_lens) == lens

    def test_merge_counts_each_face_once(self):
        up = array("i", range(4))
        flen = array("i", [3, 7, 4, 5])
        cap = array("b", [3, 5, 4, 5])
        assert _merge(up, flen, cap, [0, 2], 1) == 2
        assert (flen[2], cap[2], cap[0], _root(up, 0)) == (6, 5, 0, 2)
        # id 0 now stands for face 2, and id 1 comes twice: faces 1, 2
        # and 3 count once each, and 1, the longest, keeps its id
        assert _merge(up, flen, cap, [0, 3, 1, 2, 1], 4) == 1
        assert (flen[1], cap[1]) == (7 + 6 + 5 - 4, 5)
        assert [cap[f] for f in (0, 2, 3)] == [0, 0, 0]
        assert [_root(up, f) for f in range(4)] == [1, 1, 1, 1]

    def test_leaf_face_reaches_past_the_ball(self):
        # the 4-cycle 0, 1, 2, 3 with a leaf 4 at 0 inside it and a leaf
        # 5 at 2 outside it: deleting 4 turns a 6-face into a 4-face
        # through 2, three steps from 4, so the centres next to 2 are
        # examined again, 5 too, four steps from 4
        rows = cycle(4)
        rows[0].insert(1, 4)
        rows[2].insert(0, 5)
        wg = WorkingGraph(PlaneGraph(rows + [[0], [2]]))
        assert wg.corner_lens(2) == (5, 5, 5)
        ball, reach = wg.delete(4, [])
        assert ball == {0, 1, 3} and reach >= {2, 5}
        assert wg.corner_lens(2) == (5, 4, 5)
        assert_matches_rebuild(wg)


def all_matches(ctx: _Ctx, wg: WorkingGraph) -> dict:
    """(rule, centre) -> the matches there, for every rule and live centre."""
    out = {}
    for rule in _PRIORITY:
        for v in wg.alive():
            if wg.deg[v] == rule.degree:
                got = list(center_matches(ctx, rule, v))
                if got:
                    out[rule.id, v] = got
    return out


def medial_plus(n: int, seed: int, extra: int) -> PlaneGraph:
    """The medial graph of a random triangulation (4-regular), with
    ``extra`` diagonals drawn inside faces to bring vertices to degree 5."""
    rng = random.Random(seed)
    tri = _grow_triangulation(n, rng)
    ids: dict[frozenset, int] = {}
    for u, row in enumerate(tri):
        for v in row:
            ids.setdefault(frozenset((u, v)), len(ids))

    def e(a, b):
        return ids[frozenset((a, b))]

    rows: list[list[int]] = [[] for _ in ids]
    for u, row in enumerate(tri):
        for k, v in enumerate(row):
            if u < v:
                rv = tri[v]
                j = rv.index(u)
                rows[e(u, v)] = [
                    e(u, row[(k + 1) % len(row)]),
                    e(u, row[k - 1]),
                    e(v, rv[(j + 1) % len(rv)]),
                    e(v, rv[j - 1]),
                ]
    g = PlaneGraph(rows)
    for _ in range(extra):
        darts = rng.choice([w for w in reference_walks(g)[1] if len(w) >= 4])
        pairs = [
            (p, q)
            for i, p in enumerate(darts)
            for q in darts[i + 2 :]
            if p[0] != q[0]
            and g.degree(p[0]) < 5
            and g.degree(q[0]) < 5
            and not g.has_edge(p[0], q[0])
        ]
        if pairs:
            (x, hx), (y, hy) = rng.choice(pairs)
            rows = [list(r) for r in g.rotations]
            rows[x].insert(rows[x].index(hx), y)
            rows[y].insert(rows[y].index(hy), x)
            g = PlaneGraph(rows)
    return g


def snub_rotations(rot) -> list[list[int]]:
    """Clockwise rotations of the snub of a plane graph whose degrees
    are all at least 3: every degree is 5.  Corner (u, i), between
    ``rot[u][i]`` and ``rot[u][i + 1]``, becomes vertex
    ``start[u] + i``; the corners around u and around each face become
    faces of the same length, and every edge two triangles."""
    start = [0]
    for row in rot:
        start.append(start[-1] + len(row))
    at = [{x: i for i, x in enumerate(row)} for row in rot]

    def corner(u, i):
        return start[u] + i % len(rot[u])

    out = []
    for u, row in enumerate(rot):
        for i, a in enumerate(row):
            b = row[(i + 1) % len(row)]
            j, k = at[b][u], at[a][u] - 1
            out.append([corner(a, k), corner(b, j), corner(b, j - 1),
                        corner(u, i + 1), corner(u, i - 1)])
    return out


# every snub input: three named polyhedra and four grown triangulations
SNUB_GRAPHS = {
    **{name: lambda name=name: named(name).rotations
       for name in ("cube", "dodecahedron", "pentagonal_prism")},
    **{f"triangulation({n}, {s})": lambda n=n, s=s: _grow_triangulation(n, random.Random(s))
       for n, s in ((16, 0), (40, 0), (40, 1), (200, 2))},
}


def snub(name: str) -> PlaneGraph:
    return PlaneGraph(snub_rotations(SNUB_GRAPHS[name]()))


@pytest.mark.parametrize(
    "name,n,m,faces",
    [("cube", 24, 60, {3: 32, 4: 6}), ("dodecahedron", 60, 150, {3: 80, 5: 12})],
)
def test_snub_counts(name, n, m, faces):
    g = snub(name)
    assert (g.n, g.m, Counter(g.face_lens), set(g.deg)) == (n, m, faces, {5})


def random_tree(n: int, rng: random.Random) -> PlaneGraph:
    """Every vertex is a cut vertex or a leaf; any rotation is plane."""
    rows: list[list[int]] = [[]]
    for v in range(1, n):
        u = rng.choice([x for x in range(v) if len(rows[x]) < 5])
        rows[u].insert(rng.randrange(len(rows[u]) + 1), v)
        rows.append([u])
    return PlaneGraph(rows)


def certificate_inputs(rng: random.Random) -> list[PlaneGraph]:
    """Small random plane graphs, trees and graphs glued at a cut vertex."""
    graphs = [random_plane(rng.randrange(12, 30), seed=s) for s in range(12)]
    graphs += [random_tree(rng.randrange(6, 20), rng) for _ in range(12)]
    graphs += [glued(rng) for _ in range(12)]
    return graphs


def glued(rng: random.Random) -> PlaneGraph:
    """Two random plane graphs sharing one vertex, which becomes a cut
    vertex: the second graph's rotation there fills one corner."""
    g1 = random_plane(rng.randrange(6, 16), seed=rng.randrange(10**6))
    g2 = random_plane(rng.randrange(4, 12), seed=rng.randrange(10**6))
    x = min(range(g1.n), key=g1.degree)
    y = min(range(g2.n), key=g2.degree)
    if g1.degree(x) + g2.degree(y) > 5:  # keep the degree bound
        g2 = random_tree(rng.randrange(4, 12), rng)
        y = g2.n - 1  # a leaf
    shift = {u: (x if u == y else g1.n + u - (u > y)) for u in range(g2.n)}
    rows = [list(r) for r in g1.rotations]
    rows += [[shift[u] for u in g2.rotations[v]] for v in range(g2.n) if v != y]
    i = rng.randrange(len(rows[x]) + 1)
    rows[x][i:i] = [shift[u] for u in g2.rotations[y]]
    return PlaneGraph(rows)


# ======================================================================
# face lengths settle face identity
# ======================================================================


def assert_short_faces_meet_once(g: PlaneGraph) -> None:
    """The two facts that let corners carry lengths only: a vertex of
    degree at least 3 meets each face of length at most 4 at one corner,
    and an edge with a 3-face on each side has two faces."""
    for v in range(g.n):
        if g.deg[v] >= 3:
            faces = g.face_of_dart[g.rot_start[v] : g.rot_start[v + 1]]
            short = [f for f in faces if g.face_lens[f] <= 4]
            assert len(set(short)) == len(short), v
    rots, rs = g.rotations, g.rot_start
    for v, row in enumerate(rots):
        for p, u in enumerate(row, rs[v]):
            f1, f2 = g.face_of_dart[p], g.face_of_dart[rs[u] + rots[u].index(v)]
            if g.face_lens[f1] == g.face_lens[f2] == 3:
                assert f1 != f2, (v, u)


SHORT_FACE_INPUTS = {
    "named": lambda: map(named, NAMED_GRAPHS),
    # the first 200 inputs of acceptance criterion 1
    "criterion-1": lambda: (random_plane(20 + i % 181, seed=i) for i in range(200)),
    "medial_plus": lambda: (medial_plus(40, s, extra=30) for s in range(15)),
}


class TestShortFacesMeetOnce:
    @pytest.mark.parametrize("inputs", SHORT_FACE_INPUTS)
    def test_corpus(self, inputs):
        for g in SHORT_FACE_INPUTS[inputs]():
            assert_short_faces_meet_once(g)

    @settings(max_examples=600, deadline=None)
    @given(rows=rotation_systems())
    def test_rotation_systems(self, rows):
        try:
            g = PlaneGraph(rows)
        except EngineError:
            return  # only rotation systems that build are plane graphs
        assert_short_faces_meet_once(g)

    def test_two_vertex_meets_a_four_face_twice(self):
        # the path a-v-b: why the degree must be at least 3
        g = PlaneGraph([[1], [0, 2], [1]])
        assert g.corner_lens(1) == (4, 4)
        assert len(set(g.face_of_dart[g.rot_start[1] : g.rot_start[2]])) == 1


# ======================================================================
# crossing chords never come at a cut vertex
# ======================================================================


def is_cut_vertex(g: PlaneGraph, v: int) -> bool:
    """Does deleting v disconnect g?  A breadth-first search from one
    neighbour of v that never enters v."""
    rots = g.rotations
    start = rots[v][0]
    seen = {v, start}
    queue = deque([start])
    while queue:
        for u in rots[queue.popleft()]:
            if u not in seen:
                seen.add(u)
                queue.append(u)
    return len(seen) < g.n


def test_few_long_corners_mean_no_cut_vertex():
    """A vertex of degree at least 3 with at most one corner of length
    5+ is no cut vertex.  Every frame of a rule whose chords cross has
    at most one such corner (test_configurations), so no such match
    sits at a cut vertex, the one place where crossing chords could
    still be drawn, and ``delete`` loses nothing by refusing them."""
    seen = Counter()
    for g in certificate_inputs(random.Random(7)):
        for v in range(g.n):
            if g.deg[v] >= 3:
                cut = is_cut_vertex(g, v)
                assert not cut or g.corner_lens(v).count(5) >= 2, (g.rotations, v)
                seen[cut] += 1
    assert seen[True] > 0 and seen[False] > 0, seen


# ======================================================================
# color16 against the stepwise oracle
# ======================================================================


class TestOracle:
    def test_criterion_1_sweep_first_200_seeds(self):
        for i in range(200):
            g = random_plane(20 + i % 181, seed=i)
            assert _as_json(*color16(g)) == _as_json(*stepwise_color16(g)), i

    @pytest.mark.parametrize("name", NAMED_GRAPHS)
    def test_named_graphs(self, name):
        g = named(name)
        assert _as_json(*color16(g)) == _as_json(*stepwise_color16(g))

    def test_color_large_input(self):
        g = color_large_input()
        assert _as_json(*color16(g)) == _as_json(*stepwise_color16(g))


# ======================================================================
# the anomaly fallback
# ======================================================================


class TestAnomalyFallback:
    def test_exact_fallback_colors_when_detection_finds_nothing(self, monkeypatch):
        g = random_plane(30, seed=4)
        assert 20 <= g.n <= 30
        budgets = []
        color_with_k = reducer.color_with_k

        def spy(h, k, budget):
            budgets.append(budget)
            return color_with_k(h, k, budget=budget)

        monkeypatch.setattr(MatchQueue, "matches", lambda self: iter(()))
        monkeypatch.setattr(reducer, "color_with_k", spy)
        coloring, traces = color16(g, budget=12345)
        assert budgets == [12345]
        assert [t.rule for t in traces] == ["anomaly-exact-fallback"]
        assert traces[0].deleted == -1
        assert traces[0].v_plus_e_before == traces[0].v_plus_e_after == g.n + g.m
        assert validate(g, coloring).valid
        assert max(coloring.colors.values()) <= PALETTE

    def test_unknown_from_the_exact_solver_raises(self, monkeypatch):
        g = random_plane(30, seed=4)
        monkeypatch.setattr(MatchQueue, "matches", lambda self: iter(()))
        monkeypatch.setattr(reducer, "color_with_k", lambda h, k, budget: UNKNOWN)
        with pytest.raises(AnomalyNoConfiguration):
            color16(g)
