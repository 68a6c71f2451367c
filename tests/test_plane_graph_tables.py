"""PlaneGraph's tables, pinned by digest.

``plane_graph_tables.json`` holds, per graph, the sha256 of the JSON of
the rotation CSR (degrees, row starts, each dart's head and tail), each
dart's reverse, the face ids and lengths, the two-hop rows and d2, and
two things derived from them: the face in each corner of each vertex,
and per vertex the counts of neighbours of degree 3, 4 and 5 and of
distinct faces of length 3, 4 and at least 5.  The digests were written
by the numpy build of ``PlaneGraph`` that came before the plain-Python
one, with ``python3 tests/test_plane_graph_tables.py`` and ``src`` on
the path, when ``PlaneGraph`` still stored the flat heads, tails and
reverses as tables and had ``corner_faces`` and ``metrics`` queries;
the test now derives all of those from ``rotations`` and the tables
that remain.  So any change to a face id, a dart order or a two-hop row
shows here.
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
    rots, rs = g.rotations, g.rot_start
    # dart rs[v] + i is v -> rots[v][i]; its reverse is u -> v
    heads = [u for row in rots for u in row]
    tails = [v for v, row in enumerate(rots) for _ in row]
    mirror = [rs[u] + rots[u].index(v) for v, u in zip(tails, heads)]
    corner_faces, counts = [], []
    for v, row in enumerate(rots):
        # corner i of v is traced by the dart v -> rot[v][i + 1]
        faces = g.face_of_dart[rs[v] : rs[v + 1]]
        corner_faces.append(ints(faces[1:] + faces[:1]))
        near = [g.deg[u] for u in row]
        lens = [g.face_lens[f] for f in set(faces)]
        counts.append([
            near.count(3), near.count(4), near.count(5),
            lens.count(3), lens.count(4), sum(ln >= 5 for ln in lens),
        ])
    return {
        "deg": ints(g.deg),
        "rot_start": ints(g.rot_start),
        "rot_flat": heads,
        "dart_tail": tails,
        "mirror": mirror,
        "face_of_dart": ints(g.face_of_dart),
        "face_lens": ints(g.face_lens),
        "corner_faces": corner_faces,
        "n2": [ints(g.n2(v)) for v in range(g.n)],
        "d2": [g.d2(v) for v in range(g.n)],
        "counts": counts,
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
