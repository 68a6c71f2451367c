"""The package's public names, and the names perfbench's tracer wraps.

The exports and ``PlaneGraph``'s public attributes are pinned as lists,
so a name that is added or removed shows up as a diff to this file.
The package loads its submodules on first use; each name it resolves is
pinned to the module that defines it, which is where the package
imported it from when it loaded every submodule up front.
``perfbench/tracer.py`` wraps functions inside the package by name; the
last test installs it, runs the traced entry points and uninstalls it,
so a rename there breaks here and not only in
``perfbench/run.py --trace 1``.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

import planecolor
from planecolor.errors import BadArgument
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
    "deg",
    "degree",
    "edge_in_two_triangles",
    "face_lens",
    "face_of_dart",
    "from_json",
    "has_edge",
    "m",
    "n",
    "n2",
    "num_faces",
    "rot_start",
    "rotations",
    "to_json",
    "to_rotation_text",
]

# each export, under the submodule that defines it
HOMES = {
    "PlaneGraph": "plane_graph",
    "from_rotation_text": "plane_graph",
    "Coloring": "conflict",
    "ConflictReport": "conflict",
    "conflict_sets": "conflict",
    "validate": "conflict",
    "color_with_k": "exact_solver",
    "chi2_exact": "exact_solver",
    "INFEASIBLE": "exact_solver",
    "UNKNOWN": "exact_solver",
    "ConfigMatch": "configurations",
    "ReductionRule": "configurations",
    "SpecialClass": "configurations",
    "classify_special": "configurations",
    "detect": "configurations",
    "iter_matches": "configurations",
    "rule_table": "configurations",
    "color16": "reducer",
    "PALETTE": "reducer",
    "ReductionTrace": "reducer",
    "ChargeLedger": "discharging",
    "TransferRecord": "discharging",
    "initial_charges": "discharging",
    "apply_rules": "discharging",
    "audit": "discharging",
    "named": "generators",
    "random_plane": "generators",
    "NAMED_GRAPHS": "generators",
}

# the submodules that are attributes of the package without being named
# in an import of their own
SUBMODULES = [
    "_kernels",
    "configurations",
    "conflict",
    "discharging",
    "errors",
    "exact_solver",
    "generators",
    "plane_graph",
    "reducer",
    "working_graph",
]

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

# every export that takes a graph first, with the arguments after it
GRAPH_TAKERS = {
    "color16": (),
    "audit": (),
    "apply_rules": (),
    "initial_charges": (),
    "detect": (),
    "iter_matches": (),
    "classify_special": (0,),
    "validate": ("coloring",),
    "conflict_sets": ("coloring",),
    "chi2_exact": (),
    "color_with_k": (3,),
}


def test_exports():
    assert planecolor.__all__ == EXPORTS
    assert all(hasattr(planecolor, name) for name in EXPORTS)
    assert planecolor.__version__ == "0.1.0"


@pytest.mark.parametrize("name", EXPORTS)
def test_export_is_the_defining_modules_object(name):
    home = importlib.import_module(f"planecolor.{HOMES[name]}")
    assert getattr(planecolor, name) is getattr(home, name)


@pytest.mark.parametrize("name", SUBMODULES)
def test_submodule_is_reachable_from_the_package(name):
    assert getattr(planecolor, name) is importlib.import_module(f"planecolor.{name}")


def test_dir_lists_exports_and_submodules():
    assert set(EXPORTS) | set(SUBMODULES) <= set(dir(planecolor))


def test_star_import_binds_every_export():
    namespace: dict = {}
    exec("from planecolor import *", namespace)
    assert all(namespace[name] is getattr(planecolor, name) for name in EXPORTS)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        planecolor.no_such_name
    assert not hasattr(planecolor, "Color16")


def test_package_keeps_no_resolved_export():
    for name in EXPORTS:
        getattr(planecolor, name)
    assert set(EXPORTS).isdisjoint(vars(planecolor))


def test_patch_of_the_defining_module_shows_through(monkeypatch):
    from planecolor import reducer

    original = reducer.color16

    def stub(g, budget=0):
        raise AssertionError("stub")

    with monkeypatch.context() as patch:
        patch.setattr(reducer, "color16", stub)
        assert planecolor.color16 is stub
    assert planecolor.color16 is original


@pytest.mark.parametrize("name", GRAPH_TAKERS)
@pytest.mark.parametrize("g", ["x", None, [[1], [0]]], ids=["str", "None", "rows"])
def test_graph_that_is_not_a_plane_graph_is_refused(name, g):
    args = [
        planecolor.Coloring(palette=16, colors={0: 1, 1: 2}) if a == "coloring" else a
        for a in GRAPH_TAKERS[name]
    ]
    with pytest.raises(BadArgument, match="PlaneGraph"):
        getattr(planecolor, name)(g, *args)


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

    # the package loads its layers on first use: load every one install
    # wraps before the snapshot, so only what the tracer does can differ
    color16 = planecolor.color16
    importlib.import_module("planecolor.discharging")
    before = package_namespaces()
    init = planecolor.PlaneGraph.__init__
    tracer = tracer_module.Tracer()
    tracer.install(planecolor)
    try:
        assert planecolor.color16 is not color16
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
