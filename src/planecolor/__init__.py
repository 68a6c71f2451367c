"""Plane-graph engine: constructive 16-coloring at distance two for
planar graphs of maximum degree five, plus an exact charge audit.

``import planecolor`` loads no submodule.  An export, or a submodule
such as ``planecolor.reducer``, is imported when first read, and each
read returns the defining module's object as it stands, so a patched or
wrapped function shows through the package.  ``random_plane``,
``chi2_exact`` and ``validate`` load neither the reduction engine
(``configurations``, ``working_graph``, ``reducer``) nor
``discharging``, which ``color16``, ``detect`` and ``audit`` load.
"""

from __future__ import annotations

import sys

_EXPORTS = {
    "plane_graph": ("PlaneGraph", "from_rotation_text"),
    "conflict": ("Coloring", "ConflictReport", "conflict_sets", "validate"),
    "exact_solver": ("color_with_k", "chi2_exact", "INFEASIBLE", "UNKNOWN"),
    "configurations": (
        "ConfigMatch",
        "ReductionRule",
        "SpecialClass",
        "classify_special",
        "detect",
        "iter_matches",
        "rule_table",
    ),
    "reducer": ("color16", "PALETTE", "ReductionTrace"),
    "discharging": (
        "ChargeLedger",
        "TransferRecord",
        "initial_charges",
        "apply_rules",
        "audit",
    ),
    "generators": ("named", "random_plane", "NAMED_GRAPHS"),
}
_HOME = {name: f"{__name__}.{mod}" for mod, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "_kernels", "errors", "working_graph"})

__all__ = list(_HOME)

__version__ = "0.1.0"


def __getattr__(name: str):
    # nothing is cached here: the next read sees the defining module again
    if name in _HOME:
        return getattr(_load(_HOME[name]), name)
    if name in _SUBMODULES:
        return _load(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _load(module: str):
    # __import__, not importlib: it is faster once the module is loaded,
    # and python -X importtime reports it
    __import__(module)
    return sys.modules[module]


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_SUBMODULES})
