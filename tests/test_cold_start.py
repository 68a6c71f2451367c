"""Importing the package stays cheap.

A fresh interpreter imports ``planecolor`` and ``planecolor.cli``.  The
records are named tuples, so nothing loads ``dataclasses`` or the
``inspect`` it pulls in; and a ``PlaneGraph`` keeps no distance-two
table: ``n2(v)`` reads v's row off the rotations on call, and the exact
solver builds all the rows it needs on each call.
"""

import json
import subprocess
import sys
from itertools import accumulate, chain
from pathlib import Path

import planecolor
from planecolor.generators import random_plane

SCRIPT = """
import json
import sys

import planecolor
from planecolor import cli

print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def test_import_loads_neither_dataclasses_nor_inspect():
    src = str(Path(planecolor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []


def test_plane_graph_keeps_no_distance_two_table():
    g = random_plane(60, seed=1)
    rows = tuple(g.n2(v) for v in range(g.n))
    flat = tuple(chain.from_iterable(rows))
    offsets = (0, *accumulate(map(len, rows)))
    for name in type(g).__slots__:
        assert "n2" not in name and "d2" not in name, name
        assert getattr(g, name) not in (rows, flat, offsets), name
