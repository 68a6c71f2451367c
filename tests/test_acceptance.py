"""Top-level acceptance gate.

One test per shipping criterion, so ``pytest -v`` prints one pass or
fail line for each.  Everything here is exact: no tolerances, no
sampling shortcuts inside a criterion, and any counterinstance is
written to ``falsifications/`` before the assert trips.
"""

import json
import time
from fractions import Fraction
from pathlib import Path

from planecolor.configurations import classify_special, detect, iter_matches
from planecolor.conflict import validate
from planecolor.discharging import (
    AMOUNTS,
    DENOM,
    apply_rules,
    initial_charges,
)
from planecolor.errors import DegreeOverflow, EmbeddingBroken
from planecolor.exact_solver import chi2_exact
from planecolor.generators import DESIGNATED_VERTEX, NAMED_GRAPHS, named, random_plane
from planecolor.reducer import apply, color16, is_proper_wrt

DUMP_DIR = Path(__file__).resolve().parent.parent / "falsifications"


def _dump(g, tag: str) -> None:
    DUMP_DIR.mkdir(exist_ok=True)
    (DUMP_DIR / f"acceptance_{tag}_{g.n}v.rot").write_text(g.to_rotation_text())


def _reduction_steps(g):
    """Replay the coloring pipeline, yielding every applied step."""
    cur = g
    while cur.n > 16:
        advanced = False
        for match in iter_matches(cur):
            try:
                h, _ = apply(cur, match)
            except (EmbeddingBroken, DegreeOverflow):
                continue
            yield cur, match, h
            cur = h
            advanced = True
            break
        if not advanced:
            break


def test_criterion_1_sixteen_colors_on_thousand_random_graphs():
    """1000 seeded graphs up to n=200 plus the corpus, all valid, <5min."""
    start = time.monotonic()
    checked = 0
    for i in range(1000):
        n = 20 + i % 181  # sweep 20..200
        g = random_plane(n, seed=i)
        coloring, _ = color16(g)
        report = validate(g, coloring)
        if not report.valid or coloring.palette != 16:
            _dump(g, f"c1_seed{i}")
        assert report.valid, f"seed {i} n {n}"
        assert coloring.palette == 16
        checked += 1
    for name in NAMED_GRAPHS:
        g = named(name)
        coloring, _ = color16(g)
        assert validate(g, coloring).valid, name
        checked += 1
    elapsed = time.monotonic() - start
    assert checked == 1000 + len(NAMED_GRAPHS)
    assert elapsed < 300.0, f"took {elapsed:.1f}s"


def test_criterion_2_exact_chromatic_numbers():
    """Exact oracle finishes at <=16 on all small corpus graphs."""
    for name in NAMED_GRAPHS:
        g = named(name)
        if g.n > 14:
            continue
        value = chi2_exact(g)
        assert isinstance(value, int) and value <= 16, name
    assert chi2_exact(named("c5")) == 5
    assert chi2_exact(named("star5")) == 6
    assert chi2_exact(named("k4")) == 4
    assert chi2_exact(named("icosahedron")) == 6


def test_criterion_3_initial_charge_totals():
    """Initial charge sums to exactly -8 everywhere."""
    for name in NAMED_GRAPHS:
        led = initial_charges(named(name))
        assert led.total() == -8 * DENOM, name
    ico = initial_charges(named("icosahedron"))
    assert sorted(ico.vertices) == [DENOM] * 12
    assert sorted(ico.faces) == [-DENOM] * 20


def test_criterion_4_conservation_and_amounts():
    """Discharging moves charge but never creates or destroys it."""
    allowed = {
        Fraction(1, 3),
        Fraction(1, 9),
        Fraction(1, 5),
        Fraction(1, 15),
        Fraction(2, 15),
    }
    graphs = [named(name) for name in NAMED_GRAPHS]
    graphs += [random_plane(40 + 7 * s, seed=s) for s in range(30)]
    for g in graphs:
        after, recs = apply_rules(g)
        assert after.total() == -8 * DENOM
        for r in recs:
            assert r.amount in AMOUNTS
            assert Fraction(r.amount, DENOM) in allowed


def test_criterion_5_no_graph_escapes_both_nets():
    """A graph with no configuration must keep some negative charge."""
    for name in NAMED_GRAPHS:
        g = named(name)
        match = detect(g)
        after, _ = apply_rules(g)
        escaped = match is None and not after.negatives()
        if escaped:
            _dump(g, f"c5_{name}")
        assert not escaped, name
    for s in range(200):
        g = random_plane(10 + (s * 37) % 190, seed=1000 + s)
        if detect(g) is None:
            _dump(g, f"c5_seed{s}")
            raise AssertionError(f"no configuration found, seed {1000 + s}")


def test_criterion_6_reduction_step_soundness():
    """Every applied step: plane, degree-capped, shrinking, bound honest."""
    graphs = [named(name) for name in NAMED_GRAPHS]
    graphs += [random_plane(30 + 11 * s, seed=2000 + s) for s in range(12)]
    steps = 0
    for g in graphs:
        for before, match, after in _reduction_steps(g):
            assert after.n - after.m + after.num_faces == 2
            assert after.n == 0 or max(after.deg) <= 5
            assert after.n + after.m < before.n + before.m
            assert is_proper_wrt(before, after, match.deleted)
            assert match.observed_d2 <= match.claimed_bound <= 15
            steps += 1
    assert steps > 0


def test_criterion_7_classifier_fixtures():
    """The five constructed neighbourhoods land in their classes."""
    expected = {
        "fig1a": "bad",
        "fig1b": "semi-bad",
        "fig2a": "strong",
        "fig2b": "good",
        "fig2c": "support",
    }
    for name, kind in expected.items():
        sc = classify_special(named(name), DESIGNATED_VERTEX[name])
        assert sc is not None, name
        assert sc.kind == kind, name


def test_criterion_8_byte_identical_reruns():
    """color16, detect and apply_rules are reproducible bit for bit."""
    graphs = [named("icosahedron"), named("dodecahedron")]
    graphs += [random_plane(80, seed=s) for s in (5, 6, 7)]
    for g in graphs:
        runs = []
        for _ in range(2):
            coloring, traces = color16(g)
            match = detect(g)
            _, recs = apply_rules(g)
            runs.append(
                json.dumps(
                    {
                        "coloring": coloring.to_json(),
                        "trace": [t.to_json() for t in traces],
                        "detect": match.to_json() if match else None,
                        "transfers": [r.to_json() for r in recs],
                    },
                    sort_keys=True,
                )
            )
        assert runs[0] == runs[1]
