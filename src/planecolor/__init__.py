"""Plane-graph engine: constructive 16-coloring at distance two for
planar graphs of maximum degree five, plus an exact charge audit."""

from __future__ import annotations

from .configurations import (
    ConfigMatch,
    ReductionRule,
    SpecialClass,
    classify_special,
    detect,
    iter_matches,
    rule_table,
)
from .conflict import Coloring, ConflictReport, conflict_sets, validate
from .discharging import (
    ChargeLedger,
    TransferRecord,
    apply_rules,
    audit,
    initial_charges,
)
from .exact_solver import INFEASIBLE, UNKNOWN, chi2_exact, color_with_k
from .generators import NAMED_GRAPHS, named, random_plane
from .plane_graph import PlaneGraph, from_rotation_text
from .reducer import PALETTE, ReductionTrace, color16

__all__ = [
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

__version__ = "0.1.0"
