"""Engine outputs, pinned by digest.

``pinned_outputs.json`` holds, per graph, the sha256 of the JSON of
five outputs: ``color16``'s coloring and trace, every match of
``iter_matches`` in order, ``classify_special`` of every vertex,
``audit``, and the ledger and transfer records of ``apply_rules``.  The
digests were written by an earlier build of the engine with
``python3 tests/test_pinned_outputs.py`` and ``src`` on the path, so a
refactor that moves a match, a class, a transfer or a color shows here
even where the other tests only compare the code with itself.
"""

import hashlib
import json
from pathlib import Path

import pytest

from planecolor.configurations import classify_special, iter_matches
from planecolor.discharging import apply_rules, audit
from planecolor.generators import NAMED_GRAPHS, named, random_plane
from planecolor.reducer import color16
from test_working_graph import SNUB_GRAPHS, medial_plus, snub

PINNED = Path(__file__).with_name("pinned_outputs.json")
SWEEP = 200  # the first inputs of acceptance criterion 1
MEDIAL_SEEDS = (0, 1, 2)


def sweep_graph(i: int):
    return random_plane(20 + i % 181, seed=i)


def medial_graph(s: int):
    return medial_plus(40, s, extra=30)


def _sha(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def outputs(g) -> dict:
    coloring, traces = color16(g)
    special = [classify_special(g, v) for v in range(g.n)]
    ledger, records = apply_rules(g)
    return {
        "color16": _sha([coloring.to_json(), [t.to_json() for t in traces]]),
        "matches": _sha([m.to_json() for m in iter_matches(g)]),
        "special": _sha([sc.to_json() if sc else None for sc in special]),
        "audit": _sha(audit(g)),
        "apply_rules": _sha([ledger.to_json(), [r.to_json() for r in records]]),
    }


def _pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_named_graph_outputs(name):
    assert outputs(named(name)) == _pinned()["named"][name]


def test_sweep_outputs():
    pinned = _pinned()["sweep"]
    assert len(pinned) == SWEEP
    drifted = [i for i in range(SWEEP) if outputs(sweep_graph(i)) != pinned[i]]
    assert drifted == []


@pytest.mark.parametrize("seed", MEDIAL_SEEDS)
def test_medial_outputs(seed):
    assert outputs(medial_graph(seed)) == _pinned()["medial"][str(seed)]


@pytest.mark.parametrize("name", SNUB_GRAPHS)
def test_snub_outputs(name):
    assert outputs(snub(name)) == _pinned()["snub"][name]


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        "named": {name: outputs(named(name)) for name in sorted(NAMED_GRAPHS)},
        "sweep": [outputs(sweep_graph(i)) for i in range(SWEEP)],
        "medial": {str(s): outputs(medial_graph(s)) for s in MEDIAL_SEEDS},
        "snub": {name: outputs(snub(name)) for name in SNUB_GRAPHS},
    }, indent=1) + "\n")
    print(f"wrote {PINNED}")
