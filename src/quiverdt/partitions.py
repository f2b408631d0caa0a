"""Dynkin subquiver partitions, admissibility, block ordering, Kostant series.

A subquiver partition splits the vertex set into blocks whose induced
subquivers are connected and simply laced Dynkin.  Blocks carry all
induced arrows.  A partition is admissible when its contraction (one
node per block, cross-block arrows kept) has no directed cycle.  The
contraction is block-index successor lists, not a Quiver; check_admissible,
order_blocks and strata share its one Kahn sort, which gives the block
order, and a failed sort takes its witness from quiver's one cycle search.

check_admissible also accepts raw blocks whose induced subquiver fails
to be Dynkin because of parallel arrows or an undirected cycle: those
blocks are collapsed along a spanning tree and every leftover internal
arrow becomes a self-edge of the contraction, which then witnesses the
failure.  make_partition always rejects such blocks.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product as iter_product
from typing import Iterable, Sequence

from .dynkin import (
    DEFAULT_CAP,
    DynkinType,
    KostantPartition,
    NotDynkin,
    classify_dynkin,
    kostant_partitions,
)
from .errors import (
    EnumerationCapError,
    InvalidInputError,
    NotAdmissibleError,
    NotConnectedError,
    NotDynkinError,
)
from .quiver import (
    DimVector,
    Quiver,
    _check_keys,
    _kahn_order,
    _shortest_cycle,
    check_vertex_partition,
    induced_subquiver,
    underlying_connected,
)


@dataclass(frozen=True)
class SubquiverPartition:
    """An ordered list of blocks with their induced subquivers and types."""

    quiver: Quiver
    blocks: tuple[tuple[str, ...], ...]
    induced: tuple[Quiver, ...]
    types: tuple[DynkinType, ...]

    @property
    def size(self) -> int:
        return len(self.blocks)

    def __str__(self) -> str:
        return "".join("[" + ",".join(b) + "]" for b in self.blocks)


@dataclass(frozen=True)
class AdmissibilityVerdict:
    """Outcome of the contraction acyclicity test.

    witness is a closed directed walk in the contraction (block names,
    start repeated; a self-edge repeats one name).  ordered reports whether
    the contraction order is the blocks' listed order, that is whether
    every cross-block arrow's head block is already listed first.
    """

    admissible: bool
    witness: tuple[str, ...] | None
    ordered: bool


def make_partition(q: Quiver, blocks: Sequence[Iterable[str]]) -> SubquiverPartition:
    """Validate blocks and build the partition; blocks keep the given order."""
    normalized = check_vertex_partition(q, blocks)
    induced, types = [], []
    for block in normalized:
        sub = induced_subquiver(q, block)
        if not underlying_connected(sub):
            raise NotConnectedError(f"block {{{','.join(block)}}} is not connected")
        ct = classify_dynkin(sub)
        if isinstance(ct, NotDynkin):
            raise NotDynkinError(f"block {{{','.join(block)}}} is {ct}", kind=ct.kind)
        induced.append(sub)
        types.append(ct)
    return SubquiverPartition(q, normalized, tuple(induced), tuple(types))


def _contraction_order(q: Quiver, blocks: tuple[tuple[str, ...], ...]) -> list[int]:
    """Block indices in contraction order (ties as given), or NotAdmissibleError.

    The contraction has one node per block and keeps every arrow between
    blocks with its multiplicity.  A spanning forest of each block's induced
    arrows is absorbed; an internal arrow beyond it becomes a self-edge, a
    one-block cycle.  For valid partitions every induced subquiver is a tree
    and no internal arrow is left over.  The witness names each block by
    joining its members with "+" (prefixed "B<j>:" if two such names collide).
    """
    of = {q.index(v): j for j, b in enumerate(blocks) for v in b}
    parent = list(range(q.n))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    # tail block -> head block of every arrow the forest leaves, in arrow order
    forward: list[list[int]] = [[] for _ in blocks]
    for t, h in q._arrow_pairs:
        if of[t] == of[h]:
            rt, rh = find(t), find(h)
            if rt != rh:
                parent[rt] = rh
                continue
        forward[of[t]].append(of[h])
    succ: list[list[int]] = [[] for _ in blocks]
    for t, heads in enumerate(forward):
        for h in heads:
            succ[h].append(t)  # a head block precedes its tail block
    order = _kahn_order(succ)
    if len(order) == len(blocks):
        return order
    # the witness follows the arrows, tail to head
    cycle = _shortest_cycle(forward, set(range(len(blocks))) - set(order))
    names = ["+".join(b) for b in blocks]
    if len(set(names)) != len(names):
        names = [f"B{j}:{name}" for j, name in enumerate(names)]
    raise NotAdmissibleError(tuple(names[j] for j in cycle))


def check_admissible(
    q: Quiver, partition: SubquiverPartition | Sequence[Iterable[str]]
) -> AdmissibilityVerdict:
    """Decide admissibility; diagnose raw blocks with cyclic insides.

    Raw blocks must still partition the vertex set and be connected.
    A block whose induced graph is a tree of the wrong shape has no
    cycle to witness and is rejected outright.
    """
    if isinstance(partition, SubquiverPartition):
        blocks = partition.blocks
    else:
        blocks = check_vertex_partition(q, partition)
        for block in blocks:
            sub = induced_subquiver(q, block)
            if not underlying_connected(sub):
                raise NotConnectedError(f"block {{{','.join(block)}}} is not connected")
            ct = classify_dynkin(sub)
            if isinstance(ct, NotDynkin) and ct.kind == "branching":
                raise NotDynkinError(f"block {{{','.join(block)}}} is {ct}", kind=ct.kind)
    try:
        perm = _contraction_order(q, blocks)
    except NotAdmissibleError as e:
        return AdmissibilityVerdict(False, e.witness, False)
    return AdmissibilityVerdict(True, None, perm == sorted(perm))


def order_blocks(q: Quiver, p: SubquiverPartition) -> SubquiverPartition:
    """Permute blocks so every cross-block arrow's head block comes first.

    Ties keep the current block order.  Raises NotAdmissibleError with a
    cycle witness when no such order exists.
    """
    perm = _contraction_order(q, p.blocks)
    return SubquiverPartition(
        q,
        tuple(p.blocks[j] for j in perm),
        tuple(p.induced[j] for j in perm),
        tuple(p.types[j] for j in perm),
    )


def enumerate_partitions(
    q: Quiver, admissible_only: bool = False, cap: int = DEFAULT_CAP
) -> list[SubquiverPartition]:
    """All partitions of the vertex set into connected Dynkin blocks.

    Deterministic: each partition lists its blocks by minimum vertex
    (input order), and partitions are generated by recursing on the first
    uncovered vertex with candidate blocks sorted by size then members.
    Raises EnumerationCapError at the first partition past cap, admissible
    or not, and InvalidInputError on a quiver with no vertices.
    """
    n = q.n
    if not n:
        raise InvalidInputError("cannot partition the empty quiver: it has no vertices")
    out: list[SubquiverPartition] = []

    @lru_cache(maxsize=None)  # one entry per remaining vertex set reached in this call
    def candidates(available: tuple[int, ...]) -> list[tuple]:
        """(indices, members, induced subquiver, type) of each Dynkin block on available[0]."""
        pivot = available[0]
        rest = available[1:]
        found = []
        for mask in range(1 << len(rest)):
            subset = (pivot,) + tuple(rest[i] for i in range(len(rest)) if mask >> i & 1)
            members = tuple(q.vertices[i] for i in subset)
            sub = induced_subquiver(q, members)
            try:
                shape = classify_dynkin(sub)
            except NotConnectedError:
                continue
            if not isinstance(shape, NotDynkin):
                found.append((subset, members, sub, shape))
        found.sort(key=lambda c: (len(c[0]), c[0]))
        return found

    def rec(available: tuple[int, ...], chosen: list[tuple]) -> None:
        if not available:
            if len(out) == cap:
                raise EnumerationCapError(f"more than {cap} partitions of the vertex set")
            _, blocks, induced, types = zip(*chosen)
            out.append(SubquiverPartition(q, blocks, induced, types))
            return
        for block in candidates(available):
            taken = set(block[0])
            rec(tuple(i for i in available if i not in taken), chosen + [block])

    rec(tuple(range(n)), [])
    if admissible_only:
        out = [p for p in out if check_admissible(q, p).admissible]
    return out


@dataclass(frozen=True)
class KostantSeries:
    """A choice of Kostant partition of gamma's restriction in every block."""

    partition: SubquiverPartition
    per_block: tuple[KostantPartition, ...]

    def gamma(self) -> DimVector:
        q = self.partition.quiver
        total = q.zero()
        for kp in self.per_block:
            total = total + kp.dimension_vector().embed(q.vertices)
        return total

    def multiplicities(self) -> list[int]:
        """All block multiplicities, flattened in block order."""
        out: list[int] = []
        for kp in self.per_block:
            out.extend(kp.multiplicities)
        return out

    def entries(self) -> list[tuple[int, DimVector, DimVector, int]]:
        """(block index, local root, embedded root, multiplicity) per root."""
        q = self.partition.quiver
        rows = []
        for j, kp in enumerate(self.per_block):
            for r, m in zip(kp.root_set.roots, kp.multiplicities):
                rows.append((j, r, r.embed(q.vertices), m))
        return rows

    def __str__(self) -> str:
        return " | ".join(str(kp) for kp in self.per_block)


def kostant_series(
    q: Quiver, p: SubquiverPartition, gamma: DimVector, cap: int = DEFAULT_CAP
) -> list[KostantSeries]:
    """Per-block Kostant partitions of gamma, combined across blocks.

    The output order is the lexicographic product of the per-block
    enumeration orders.  Raises EnumerationCapError past the cap.
    """
    _check_keys(q, gamma)
    per_block_lists = []
    total = 1
    for j, block in enumerate(p.blocks):
        local = gamma.restrict(block)
        per_block_lists.append(kostant_partitions(p.induced[j], local, cap=cap))
        total *= len(per_block_lists[-1])
        if total > cap:
            raise EnumerationCapError(f"more than {cap} Kostant series for gamma={gamma}")
    return [KostantSeries(p, combo) for combo in iter_product(*per_block_lists)]
