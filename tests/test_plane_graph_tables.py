"""PlaneGraph's tables, pinned by digest.

``plane_graph_tables.json`` holds, per graph, the sha256 of the JSON of
every table a ``PlaneGraph`` exposes: the rotation CSR, mirrors, face
ids and lengths, corner faces, two-hop rows, d2 and the per-vertex
counts of ``metrics``.  The digests were written by the numpy build of
``PlaneGraph`` that came before the plain-Python one, with
``python3 tests/test_plane_graph_tables.py`` and ``src`` on the path, so
any change to a face id, a dart order or a two-hop row shows here.
"""

import hashlib
import json
from pathlib import Path

import pytest

from planecolor.generators import NAMED_GRAPHS, named, random_plane

PINNED = Path(__file__).with_name("plane_graph_tables.json")
SWEEP = 200  # the first inputs of acceptance criterion 1


def sweep_graph(i: int):
    return random_plane(20 + i % 181, seed=i)


def tables(g) -> dict:
    ints = lambda xs: [int(x) for x in xs]  # noqa: E731
    mts = [g.metrics(v) for v in range(g.n)]
    return {
        "deg": ints(g.deg),
        "rot_start": ints(g.rot_start),
        "rot_flat": ints(g.rot_flat),
        "dart_tail": ints(g.dart_tail),
        "mirror": ints(g.mirror),
        "face_of_dart": ints(g.face_of_dart),
        "face_lens": ints(g.face_lens),
        "corner_faces": [ints(g.corner_faces(v)) for v in range(g.n)],
        "n2": [ints(g.n2(v)) for v in range(g.n)],
        "d2": [g.d2(v) for v in range(g.n)],
        "counts": [[mt.n3, mt.n4, mt.n5, mt.m3, mt.m4, mt.m5plus] for mt in mts],
    }


def digest(g) -> str:
    text = json.dumps(tables(g), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _pinned() -> dict:
    return json.loads(PINNED.read_text())


@pytest.mark.parametrize("name", sorted(NAMED_GRAPHS))
def test_named_graph_tables(name):
    assert digest(named(name)) == _pinned()["named"][name]


def test_sweep_tables():
    pinned = _pinned()["sweep"]
    assert len(pinned) == SWEEP
    drifted = [i for i in range(SWEEP) if digest(sweep_graph(i)) != pinned[i]]
    assert drifted == []


if __name__ == "__main__":
    PINNED.write_text(json.dumps({
        "named": {name: digest(named(name)) for name in sorted(NAMED_GRAPHS)},
        "sweep": [digest(sweep_graph(i)) for i in range(SWEEP)],
    }, indent=1) + "\n")
    print(f"wrote {PINNED}")
