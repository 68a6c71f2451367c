"""Importing the package stays cheap.

A fresh interpreter imports ``planecolor``, every export (which loads
every submodule that defines one) and ``planecolor.cli``.  The
records are named tuples, so nothing loads ``dataclasses`` or the
``inspect`` it pulls in; and a ``PlaneGraph`` keeps no distance-two
table: ``n2(v)`` reads v's row off the rotations on call, and the exact
solver builds all the rows it needs on each call.  The package loads
each layer on first use, so the generator, the exact solver and
``validate`` run without the reduction engine and the discharging audit
ever being compiled.
"""

import json
import subprocess
import sys
from itertools import accumulate, chain
from pathlib import Path

import pytest

import planecolor
from planecolor.generators import random_plane

ENGINE = {
    "planecolor.configurations",
    "planecolor.working_graph",
    "planecolor.reducer",
    "planecolor.discharging",
}

SCRIPT = """
import json
import sys

import planecolor
from planecolor import *
from planecolor import cli

print(json.dumps(sorted({"dataclasses", "inspect"} & set(sys.modules))))
"""


def last_json_line(script: str):
    """Run ``script`` in a fresh interpreter; its last line of output, read as JSON."""
    src = str(Path(planecolor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_import_loads_neither_dataclasses_nor_inspect():
    assert last_json_line(SCRIPT) == []


LOADED = """
import json, sys
print(json.dumps([m for m in sys.modules if m.startswith("planecolor.")]))
"""


def loaded_after(code: str) -> set:
    """The ``planecolor`` submodules a fresh interpreter holds after ``code``."""
    return set(last_json_line(code + LOADED))


def test_import_loads_no_submodule():
    assert loaded_after("import planecolor") == set()


LIGHT = {
    "exact oracle": """
import planecolor as pc
g = pc.random_plane(8, seed=1)
assert pc.chi2_exact(g) == 7
assert pc.validate(g, pc.color_with_k(g, 7)).valid
""",
    "cli import": "import planecolor.cli",
    "cli gen": "from planecolor import cli; cli.run(['gen', '--n', '30'])",
}


@pytest.mark.parametrize("code", LIGHT.values(), ids=LIGHT.keys())
def test_light_entry_points_load_no_engine(code):
    loaded = loaded_after(code)
    assert loaded.isdisjoint(ENGINE), sorted(loaded & ENGINE)


def test_color16_and_audit_load_the_engine():
    loaded = loaded_after("""
import planecolor as pc
g = pc.random_plane(30, seed=1)
pc.color16(g)
assert pc.audit(g)["falsification"] is False
""")
    assert ENGINE <= loaded


def test_plane_graph_keeps_no_distance_two_table():
    g = random_plane(60, seed=1)
    rows = tuple(g.n2(v) for v in range(g.n))
    flat = tuple(chain.from_iterable(rows))
    offsets = (0, *accumulate(map(len, rows)))
    for name in type(g).__slots__:
        assert "n2" not in name and "d2" not in name, name
        assert getattr(g, name) not in (rows, flat, offsets), name
