"""Root orders attached to admissible subquiver partitions.

Within one Dynkin block the roots are sorted so that any root pair
(phi_u before phi_v) has non-negative skew form; across blocks the
blocks appear as contiguous groups in contraction order, which makes
every cross-block pair's skew form non-positive.  The within-block sort
is a topological sort of the precedence constraints "b must precede a
whenever skew(a, b) < 0", with ties broken by library root order: the
one Kahn sort of quiver on root indices, whose failure would take its
witness from quiver's one cycle search.  The block order is the same
sort of the partition's contraction (partitions).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from operator import mul
from typing import NamedTuple, Sequence

from .dynkin import DynkinType, positive_roots
from .errors import ConstraintCycleError, InvalidOrderError
from .partitions import SubquiverPartition, order_blocks
from .quiver import DimVector, Quiver, _kahn_order, _shortest_cycle, skew_form


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
    """Admissible order of one Dynkin quiver's positive roots.

    Kahn's algorithm on the precedence digraph; the tie-break by library
    root order makes the result deterministic.  A constraint cycle would
    mean the block admits no valid order and is reported, not asserted
    away: a shortest one among the roots the sort left over is the witness.
    """
    roots = positive_roots(block).roots
    n = len(roots)
    succ: list[list[int]] = [[] for _ in range(n)]
    for i in range(n):
        for j in range(n):
            if i != j and skew_form(block, roots[i], roots[j]) < 0:
                succ[j].append(i)
    out = _kahn_order(succ)
    if len(out) != n:
        witness = _shortest_cycle(succ, set(range(n)) - set(out))
        raise ConstraintCycleError(tuple(str(roots[i]) for i in witness))
    return tuple(roots[i] for i in out)


def admissible_total_order(q: Quiver, p: SubquiverPartition) -> RootOrder:
    """Block-ordered concatenation of per-block root orders.

    Blocks are first permuted into contraction order (raising
    NotAdmissibleError with a witness if none exists), then each block
    contributes its roots, embedded into the full quiver.
    """
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


def _root_count(t: DynkinType) -> int:
    """Number of positive roots of a simply laced Dynkin type."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


def _is_root_permutation(q: Quiver, p: SubquiverPartition, entries: tuple) -> bool:
    """True when entries list every positive root of every block of p once,
    decided without enumerating any root (see validate_order)."""
    if p.quiver != q or len(set(entries)) != len(entries):
        return False
    block_of = {q.index(v): j for j, b in enumerate(p.blocks) for v in b}
    count = [0] * p.size
    for entry in entries:
        if not isinstance(entry, tuple) or len(entry) != 2 or not isinstance(entry[0], DimVector):
            return False
        root, j = entry
        if root.vertices != q.vertices or type(j) is not int or not 0 <= j < p.size:
            return False
        if any(x and block_of[i] != j for i, x in enumerate(root.values)):
            return False
        if q.euler_values(root.values, root.values) != 1:
            return False
        count[j] += 1
    return count == [_root_count(t) for t in p.types]


def validate_order(
    q: Quiver, p: SubquiverPartition, candidate: RootOrder | Sequence[RootEntry]
) -> OrderVerdict:
    """Check the pairing rules on a candidate order for p.

    Rules: same block, u before v: skew(phi_u, phi_v) >= 0; different
    blocks: skew(phi_u, phi_v) <= 0.

    Raises InvalidOrderError when the candidate is not a permutation of
    the expected root multiset.  That is decided without enumerating the
    roots again.  By Gabriel's theorem the positive roots of a Dynkin
    block are exactly its non-negative vectors of Tits form
    q(x) = sum x_i^2 - sum_arrows x_t x_h equal to 1, and the full
    quiver's Tits form on a vector supported inside a block is the
    block's own, since the block keeps every arrow between its vertices.
    So a candidate whose entries are distinct, each of Tits form 1 and
    supported inside its block, and whose block j has as many entries as
    p.types[j] has positive roots (A_n: n(n+1)/2, D_n: n(n-1), E6/E7/E8:
    36/63/120), lists each block's roots exactly once.  Any other
    candidate is compared with expected_root_multiset, which names what is
    missing and what is extra.
    """
    entries = tuple(candidate.entries if isinstance(candidate, RootOrder) else candidate)
    if not _is_root_permutation(q, p, entries):
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
