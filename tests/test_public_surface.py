"""The package's public names, and the names perfbench's tracer wraps.

The exports and ``PlaneGraph``'s public attributes are pinned as lists,
so a name that is added or removed shows up as a diff to this file.
``perfbench/tracer.py`` wraps functions inside the package by name; the
last test installs it, runs the traced entry points and uninstalls it,
so a rename there breaks here and not only in
``perfbench/run.py --trace 1``.
"""

import importlib.util
import sys
from pathlib import Path

import planecolor
from planecolor.generators import random_plane

EXPORTS = [
    "PlaneGraph",
    "from_rotation_text",
    "Coloring",
    "ConflictReport",
    "conflict_sets",
    "validate",
    "color_with_k",
    "chi2_exact",
    "INFEASIBLE",
    "UNKNOWN",
    "ConfigMatch",
    "ReductionRule",
    "SpecialClass",
    "classify_special",
    "detect",
    "iter_matches",
    "rule_table",
    "color16",
    "PALETTE",
    "ReductionTrace",
    "ChargeLedger",
    "TransferRecord",
    "initial_charges",
    "apply_rules",
    "audit",
    "named",
    "random_plane",
    "NAMED_GRAPHS",
]

PLANE_GRAPH_PUBLIC = [
    "corner_lens",
    "d2",
    "dart_tail",
    "deg",
    "degree",
    "edge_in_two_triangles",
    "face_lens",
    "face_of_dart",
    "from_json",
    "has_edge",
    "m",
    "mirror",
    "n",
    "n2",
    "num_faces",
    "rot_flat",
    "rot_start",
    "rotations",
    "to_json",
    "to_rotation_text",
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_exports():
    assert planecolor.__all__ == EXPORTS
    assert all(hasattr(planecolor, name) for name in EXPORTS)


def test_plane_graph_public_attributes():
    public = [a for a in dir(planecolor.PlaneGraph) if not a.startswith("_")]
    assert sorted(public) == PLANE_GRAPH_PUBLIC


def package_namespaces() -> dict:
    """Every attribute of every loaded planecolor module."""
    return {
        name: dict(vars(mod))
        for name, mod in sys.modules.items()
        if name == "planecolor" or name.startswith("planecolor.")
    }


def test_perfbench_tracer_wraps_and_restores():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer_module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer_module)

    before = package_namespaces()
    init = planecolor.PlaneGraph.__init__
    tracer = tracer_module.Tracer()
    tracer.install(planecolor)
    try:
        assert planecolor.color16 is not before["planecolor"]["color16"]
        g = random_plane(60, seed=1)
        coloring, _ = planecolor.color16(g)
        assert planecolor.validate(g, coloring).valid
        assert planecolor.audit(g)["falsification"] is False
        # a small budget: the search is reached, not finished
        planecolor.chi2_exact(g, budget=1000)
    finally:
        tracer.uninstall()

    seen = {span[tracer_module.NAME] for span in tracer.spans}
    assert {
        "PlaneGraph.__init__",
        "color16",
        "validate",
        "audit",
        "chi2_exact",
        "color_with_k",
        "solve_k_coloring",
    } <= seen
    # functions compare by identity, so a wrapper left behind shows here
    assert planecolor.PlaneGraph.__init__ is init
    assert package_namespaces() == before
