"""Exception hierarchy for the plane-graph coloring engine.

Everything raised on purpose derives from EngineError so callers can
catch one base class at the CLI boundary.
"""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all engine errors."""


class ParseError(EngineError):
    """Malformed rotation-format document."""


class AsymmetricRotation(EngineError):
    """u lists v as a neighbour but v does not list u (or multiplicity mismatch)."""


class NotPlanarEmbedding(EngineError):
    """Face tracing did not certify genus 0 (|V| - |E| + |F| != 2)."""


class Disconnected(EngineError):
    """Input graph is not connected."""


class BadArgument(EngineError):
    """An argument of the wrong type: a graph that is not a PlaneGraph,
    or an id, color, palette, budget or k that is not an int (a bool is
    not an int), or colors that are not a dict."""


def require_int(**args) -> None:
    """Raise BadArgument unless every keyword's value is an int."""
    for name, value in args.items():
        if type(value) is not int:
            raise BadArgument(f"{name} must be an int, got {value!r}")


class UnknownVertex(EngineError):
    """Vertex id that is not an int in [0, n)."""


class DegreeTooHigh(EngineError):
    """Operation requires maximum degree <= 5."""


class EmbeddingBroken(EngineError):
    """A reduction produced rotations that no longer certify a plane graph."""


class DegreeOverflow(EngineError):
    """A reduction would push some vertex beyond degree 5."""


class NoAvailableColor(EngineError):
    """All 16 colors are blocked at extension time: a falsified bound."""


class InvalidColoring(EngineError):
    """A constructed coloring failed its distance-two check: the unwinding is at fault."""


class AnomalyNoConfiguration(EngineError):
    """No reducible configuration matched a graph that the theory says must contain one."""


class EulerIdentityViolated(EngineError):
    """Initial charges did not sum to -8."""


class UnknownName(EngineError):
    """No named graph under that key."""


class GenerationFailed(EngineError):
    """Random generation could not meet its postconditions within the retry budget."""
