"""Exception types shared across the package.

Errors that carry a combinatorial witness (a cycle, a violating pair)
expose it as an attribute so callers can report it without re-deriving.
"""
from __future__ import annotations


class QuiverDtError(Exception):
    """Base class for all library errors."""


class QuiverParseError(QuiverDtError):
    """Quiver file is malformed or violates structural constraints."""


class UnknownVertexError(QuiverDtError):
    """A vertex name does not belong to the quiver."""


class KeyMismatchError(QuiverDtError):
    """A dimension vector is keyed by the wrong vertex tuple."""


class CyclicQuiverError(QuiverDtError):
    """Raised where a directed cycle rules the operation out."""

    def __init__(self, witness: tuple[str, ...]):
        self.witness = tuple(witness)
        super().__init__("directed cycle: " + " -> ".join(self.witness))


class NotConnectedError(QuiverDtError):
    """The quiver (or a block) is empty or not connected."""


class NotDynkinError(QuiverDtError):
    """A quiver required to be simply laced Dynkin is not.

    ``kind`` is one of "multi-edge", "cycle", "branching".
    """

    def __init__(self, message: str, *, kind: str = ""):
        self.kind = kind
        super().__init__(message)


class NotAPartitionError(QuiverDtError):
    """Blocks overlap, miss vertices, or name unknown vertices."""


class NotAdmissibleError(QuiverDtError):
    """The contraction of a subquiver partition has a directed cycle."""

    def __init__(self, witness: tuple[str, ...]):
        self.witness = tuple(witness)
        super().__init__("contraction has a directed cycle: " + " -> ".join(self.witness))


class ConstraintCycleError(QuiverDtError):
    """The precedence constraints on a root set are cyclic."""

    def __init__(self, witness: tuple):
        self.witness = tuple(witness)
        super().__init__(f"cyclic precedence constraints among roots: {self.witness}")


class InvalidOrderError(QuiverDtError):
    """A candidate root order is not usable (wrong multiset, or rule violation)."""


class EnumerationCapError(QuiverDtError):
    """An enumeration exceeded the configured cap."""


class TruncationMismatchError(QuiverDtError):
    """Operands carry different truncation data (order, bound, or quiver)."""


class BoundExceededError(QuiverDtError):
    """A dimension vector lies outside the truncation bound."""


class NotTypeAError(QuiverDtError):
    """Operation implemented only for quivers whose underlying graph is a path."""


class InvalidInputError(QuiverDtError):
    """An argument is outside the operation's domain."""


class InconsistencyError(QuiverDtError):
    """An internal cross-check failed; indicates a bug, not bad input."""
