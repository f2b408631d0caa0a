"""Root orders attached to admissible subquiver partitions.

Within one Dynkin block the roots are sorted so that any root pair
(phi_u before phi_v) has non-negative skew form; across blocks the
blocks appear as contiguous groups in contraction order, which makes
every cross-block pair's skew form non-positive.  The within-block sort
is the block's memoized RootSet.inner (dynkin), built once per distinct
block quiver; the block order is the sort of the partition's contraction
(partitions).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Sequence

from .dynkin import positive_roots
from .errors import InvalidOrderError
from .partitions import SubquiverPartition, _check_partition, order_blocks
from .quiver import DimVector, Quiver


class RootEntry(NamedTuple):
    root: DimVector  # keyed by the full quiver's vertices
    block: int


@dataclass(frozen=True)
class RootOrder:
    """A total order on the roots of all blocks of a partition."""

    quiver: Quiver
    partition: SubquiverPartition
    entries: tuple[RootEntry, ...]
    provenance: str = "constructed"


@dataclass(frozen=True)
class OrderVerdict:
    """Result of checking a candidate order against the pairing rules.

    On failure, violation holds (position u, position v, rule name,
    skew form value) for the first offending pair in scan order.
    """

    valid: bool
    violation: tuple[int, int, str, int] | None = None


def reineke_inner_order(block: Quiver) -> tuple[DimVector, ...]:
    """Admissible order of one Dynkin quiver's positive roots (RootSet.inner)."""
    rs = positive_roots(block)
    return tuple(rs.roots[i] for i in rs.inner())


def admissible_total_order(q: Quiver, p: SubquiverPartition) -> RootOrder:
    """Block-ordered concatenation of per-block root orders.

    Blocks are first permuted into contraction order (raising
    NotAdmissibleError with a witness if none exists), then each block
    contributes its roots, embedded into the full quiver.
    """
    _check_partition(q, p)
    ordered = order_blocks(q, p)
    entries: list[RootEntry] = []
    for j in range(ordered.size):
        for root in reineke_inner_order(ordered.induced[j]):
            entries.append(RootEntry(root.embed(q.vertices), j))
    return RootOrder(q, ordered, tuple(entries))


def expected_root_multiset(q: Quiver, p: SubquiverPartition) -> Counter:
    """The (embedded root, block) pairs any valid order must enumerate."""
    expected: Counter = Counter()
    for j in range(p.size):
        for root in positive_roots(p.induced[j]).roots:
            expected[RootEntry(root.embed(q.vertices), j)] += 1
    return expected


def validate_order(
    q: Quiver, p: SubquiverPartition, candidate: RootOrder | Sequence[RootEntry]
) -> OrderVerdict:
    """Check the pairing rules on a candidate order for p.

    Rules: same block, u before v: skew(phi_u, phi_v) >= 0; different
    blocks: skew(phi_u, phi_v) <= 0.

    Raises InvalidOrderError, naming what is missing and what is extra,
    when the candidate is not a permutation of expected_root_multiset.
    """
    _check_partition(q, p)
    entries = tuple(candidate.entries if isinstance(candidate, RootOrder) else candidate)
    expected = expected_root_multiset(q, p)
    got = Counter(entries)
    if got != expected:
        missing = list((expected - got).elements())
        extra = list((got - expected).elements())
        raise InvalidOrderError(
            f"candidate is not a permutation of the expected roots; "
            f"missing {[(str(e.root), e.block) for e in missing]}, "
            f"extra {[(str(e.root), e.block) for e in extra]}"
        )
    pairs = q._arrow_pairs
    for u in range(len(entries)):
        ru, ju = entries[u]
        row = [0] * q.n  # skew(ru, w) = sum of row[i] * w[i]
        for t, h in pairs:
            row[h] += ru.values[t]
            row[t] -= ru.values[h]
        for v in range(u + 1, len(entries)):
            rv, jv = entries[v]
            val = sum(map(mul, row, rv.values))
            if ju == jv and val < 0:
                return OrderVerdict(False, (u, v, "within-block", val))
            if ju != jv and val > 0:
                return OrderVerdict(False, (u, v, "across-blocks", val))
    return OrderVerdict(True, None)
