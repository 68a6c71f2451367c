"""Charge ledger: exact totals, conservation, rule amounts, audits."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from planecolor import discharging
from planecolor.discharging import (
    AMOUNTS,
    DENOM,
    FIFTH,
    NINTH,
    THIRD,
    ChargeLedger,
    TransferRecord,
    apply_rules,
    audit,
    initial_charges,
)
from planecolor.errors import EulerIdentityViolated
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from test_kernels import reference_walks
from test_working_graph import medial_plus

PROPERTY_SETTINGS = settings(max_examples=50, deadline=None)


def as_fraction(text):
    p, q = text.split("/")
    return Fraction(int(p), int(q))


class TestInitialCharges:
    def test_total_is_minus_eight(self, corpus_graph):
        led = initial_charges(corpus_graph)
        assert led.total() == -8 * DENOM

    def test_icosahedron_decomposition(self):
        led = initial_charges(named("icosahedron"))
        # 12 vertices at +1, 20 triangles at -1
        assert list(led.vertices) == [DENOM] * 12
        assert list(led.faces) == [-DENOM] * 20

    def test_k1_accounting(self):
        led = initial_charges(named("k1"))
        assert led.vertices == (-4 * DENOM,)
        assert led.faces == (-4 * DENOM,)

    def test_json_uses_forty_fifths(self):
        obj = initial_charges(named("cube")).to_json()
        assert obj["vertices"]["0"] == "-45/45"
        assert as_fraction(obj["total"]) == -8


class TestApplyRules:
    def test_icosahedron_only_triangle_payments(self):
        after, rec = apply_rules(named("icosahedron"))
        assert {r.rule for r in rec} == {"R1"}
        assert len(rec) == 60
        assert set(after.vertices) == {-30}  # -2/3 each
        assert set(after.faces) == {0}

    def test_cube_moves_nothing(self):
        after, rec = apply_rules(named("cube"))
        assert rec == []
        assert set(after.vertices) == {-45}
        assert set(after.faces) == {0}

    def test_c5_moves_nothing(self):
        after, rec = apply_rules(named("c5"))
        assert rec == []
        assert set(after.vertices) == {-2 * DENOM}
        assert set(after.faces) == {DENOM}

    def test_dodecahedron_face_payments(self):
        # every 3-vertex collects 1/3 from its three pentagons
        after, rec = apply_rules(named("dodecahedron"))
        assert {r.rule for r in rec} == {"R3"}
        assert set(after.vertices) == {0}
        assert set(after.faces) == {-30}

    def test_conservation_on_corpus(self, corpus_graph):
        after, _ = apply_rules(corpus_graph)
        assert after.total() == -8 * DENOM

    def test_amounts_are_from_the_rule_set(self, corpus_graph):
        _, rec = apply_rules(corpus_graph)
        allowed = {
            Fraction(1, 3),
            Fraction(1, 9),
            Fraction(1, 5),
            Fraction(1, 15),
            Fraction(2, 15),
        }
        for r in rec:
            assert r.amount in AMOUNTS
            assert Fraction(r.amount, DENOM) in allowed

    def test_transfer_records_are_deterministic(self):
        g = random_plane(70, seed=21)
        _, r1 = apply_rules(g)
        _, r2 = apply_rules(g)
        assert [t.to_json() for t in r1] == [t.to_json() for t in r2]

    def test_transfer_json_shape(self):
        _, rec = apply_rules(named("icosahedron"))
        obj = rec[0].to_json()
        assert obj["rule"] == "R1"
        assert obj["source"][0] == "vertex"
        assert obj["sink"][0] == "face"
        assert obj["amount"] == "15/45"


def face_rules_from_face_list(g):
    """R1 and R5/R6 read off the reference face walks of
    ``test_kernels``: the walks themselves, not the dart tables
    ``apply_rules`` reads."""
    # each face by id as the vertices of its walk, one per dart
    faces = [[v for v, _ in walk] for walk in reference_walks(g)[1]]
    r1 = [
        TransferRecord("R1", ("vertex", v), ("face", f), THIRD)
        for f, walk in enumerate(faces)
        if len(walk) == 3
        for v in sorted(walk)
    ]
    r56 = []
    for v in range(g.n):
        if g.deg[v] != 5:
            continue
        small = {u for u in g.rotations[v] if g.deg[u] == 3}
        for f, walk in enumerate(faces):
            if v not in walk or len(walk) < 5:
                continue
            if small & set(walk):
                r56.append(TransferRecord("R6", ("face", f), ("vertex", v), NINTH))
            else:
                r56.append(TransferRecord("R5", ("face", f), ("vertex", v), FIFTH))
    return r1, r56


def replay(g, records) -> ChargeLedger:
    led = initial_charges(g)
    charge = {"vertex": list(led.vertices), "face": list(led.faces)}
    for r in records:
        charge[r.source[0]][r.source[1]] -= r.amount
        charge[r.sink[0]][r.sink[1]] += r.amount
    return ChargeLedger(tuple(charge["vertex"]), tuple(charge["face"]))


# faces of length up to 19 on the medial graphs, which have no R6
# payment, and 394-1211 on the random ones
LONG_FACE_GRAPHS = (
    [pytest.param(lambda s=s: medial_plus(40, s, extra=30), {"R5"}, id=f"medial{s}")
     for s in range(3)]
    + [pytest.param(lambda s=s: random_plane(2000, seed=s), {"R5", "R6"},
                    id=f"random2000-{s}")
       for s in range(3)]
)


@pytest.mark.parametrize("make,big_face_rules", LONG_FACE_GRAPHS)
def test_face_rules_agree_with_the_face_list(make, big_face_rules):
    g = make()
    r1, r56 = face_rules_from_face_list(g)
    ledger, records = apply_rules(g)
    # R1 comes first, R2-R4 before R5/R6, and R7-R10 after them
    others = [r for r in records if r.rule not in ("R1", "R5", "R6")]
    middle = [r for r in others if r.rule in ("R2", "R3", "R4")]
    late = others[len(middle):]
    assert records == r1 + middle + r56 + late
    assert ledger == replay(g, records)
    assert r1 and {r.rule for r in r56} == big_face_rules


class TestAudit:
    def test_fields(self, corpus_graph):
        rep = audit(corpus_graph)
        assert rep["conservation"] == "-8"
        assert as_fraction(rep["initial_total"]) == -8
        assert as_fraction(rep["final_total"]) == -8
        assert rep["falsification"] is False

    def test_negatives_match_ledger(self):
        g = named("icosahedron")
        rep = audit(g)
        assert len(rep["negatives"]) == 12
        assert all(n["kind"] == "vertex" for n in rep["negatives"])
        assert all(n["charge"] == "-30/45" for n in rep["negatives"])

    def test_audit_is_json_serializable(self, corpus_graph):
        json.dumps(audit(corpus_graph))

    def test_k1_keeps_falsification_false_via_negatives(self):
        rep = audit(named("k1"))
        assert rep["configuration"] is None
        assert rep["negatives"]  # both the vertex and the empty face
        assert rep["falsification"] is False


class TestAuditShortcuts:
    """``audit`` counts the transfers of the pass ``apply_rules`` records,
    without making a record of each."""

    def test_audit_agrees_with_apply_rules_on_sweep_graphs(self, monkeypatch):
        def no_records(*args):
            raise AssertionError("audit built a TransferRecord")

        for i in range(50):
            g = random_plane(20 + i % 181, seed=i)  # as in test_pinned_outputs
            ledger, records = apply_rules(g)
            with monkeypatch.context() as m:
                m.setattr(discharging, "TransferRecord", no_records)
                rep = audit(g)
                after, count = discharging._transfer_pass(g)
            assert rep["transfers"] == len(records) == count, i
            assert after == ledger == replay(g, records), i
            assert rep["final_total"] == ledger.to_json()["total"]
            assert [(n["kind"], n["id"]) for n in rep["negatives"]] == [
                (kind, k) for kind, k, _ in ledger.negatives()
            ]


class TestDischargeProperties:
    @PROPERTY_SETTINGS
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=9_999),
    )
    def test_conservation_always(self, n, seed):
        g = random_plane(n, seed=seed)
        after, rec = apply_rules(g)
        assert after.total() == -8 * DENOM
        assert all(r.amount in AMOUNTS for r in rec)

    @PROPERTY_SETTINGS
    @given(
        st.integers(min_value=1, max_value=100),
        st.integers(min_value=0, max_value=9_999),
    )
    def test_never_falsified(self, n, seed):
        g = random_plane(n, seed=seed)
        assert audit(g)["falsification"] is False
