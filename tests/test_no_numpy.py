"""The package imports and runs without numpy.

The check runs in a fresh interpreter in which ``import numpy`` fails,
so neither the package nor anything it imports can load it.
"""

import json
import subprocess
import sys
from pathlib import Path

import planecolor
from planecolor.generators import named

SCRIPT = """
import sys
sys.modules["numpy"] = None  # any import of numpy now raises ImportError

import planecolor as pc
from planecolor import cli

ico, rnd = pc.named("icosahedron"), pc.random_plane(120, seed=3)
for g in (ico, rnd):
    coloring, _ = pc.color16(g)
    assert pc.validate(g, coloring).valid
    assert pc.audit(g)["conservation"] == "-8"
assert pc.chi2_exact(ico) == 6
assert pc.chi2_exact(rnd, budget=10**5) is pc.UNKNOWN  # too large to settle

sys.argv = ["planecolor", "color", "--in", sys.argv[1]]
try:
    cli.main()
except SystemExit as exc:
    assert exc.code == 0, exc.code
assert sys.modules.get("numpy") is None
"""


def test_package_runs_without_numpy(tmp_path):
    path = tmp_path / "ico.rot"
    path.write_text(named("icosahedron").to_rotation_text())
    src = str(Path(planecolor.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT, str(path)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": src},
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    assert line["valid"] is True and line["colors_used"] <= 16
