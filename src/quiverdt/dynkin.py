"""Simply laced Dynkin classification, positive roots, Kostant partitions.

Positive roots of a Dynkin quiver are the non-negative nonzero dimension
vectors of Tits form one; they are enumerated by a bounded box scan
(entries up to 6, enough for every simply laced type through E8) and kept
in a fixed library order, by height and then lexicographically.  A root
set is memoized per equal quiver and builds its Reineke inner order, the
permutation of this list that factorizations and strata read, at most once
(RootSet.inner).

Kostant partitions are walked over the non-simple roots only: the simple
multiplicities are forced by the remainder, so every leaf is a partition,
and the leaves are sorted into library order at the end (see
kostant_partitions).  On one-block E6 at gamma = (2,4,6,4,2,3), 58,984
partitions, this took the enumeration from about 100 s to under 1 s
(Python 3.11 on 2 vCPUs).
"""
from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import product

from .errors import (
    ConstraintCycleError,
    EnumerationCapError,
    InvalidInputError,
    NotConnectedError,
    NotDynkinError,
)
from .quiver import DimVector, Quiver, underlying_connected, _check_keys, _kahn_order, _shortest_cycle

ROOT_ENTRY_BOUND = 6
DEFAULT_CAP = 10**6


@dataclass(frozen=True)
class DynkinType:
    family: str
    rank: int

    def __str__(self) -> str:
        return f"{self.family}{self.rank}"


@dataclass(frozen=True)
class NotDynkin:
    """Classification failure with the offending feature.

    kind is "multi-edge", "cycle" or "branching".
    """

    kind: str
    detail: str

    def __str__(self) -> str:
        return f"not Dynkin ({self.kind}): {self.detail}"


def classify_dynkin(q: Quiver) -> DynkinType | NotDynkin:
    """Classify the underlying graph as A/D/E or report why it is not.

    The input must be nonempty and connected; orientation is ignored.
    """
    if not q.vertices:
        raise NotConnectedError("empty quiver")
    if not underlying_connected(q):
        raise NotConnectedError("quiver is not connected")
    seen_pairs: dict[frozenset, str] = {}
    for a in q.arrows:
        pair = frozenset((a.tail, a.head))
        if pair in seen_pairs:
            return NotDynkin(
                "multi-edge",
                f"arrows {seen_pairs[pair]!r} and {a.name!r} join {a.tail!r} and {a.head!r}",
            )
        seen_pairs[pair] = a.name
    n = q.n
    if len(q.arrows) != n - 1:
        return NotDynkin("cycle", "underlying graph contains a cycle")
    deg = Counter(v for a in q.arrows for v in (a.tail, a.head))
    for v in q.vertices:
        if deg[v] > 3:
            return NotDynkin("branching", f"vertex {v!r} has degree {deg[v]}")
    branch = [v for v in q.vertices if deg[v] == 3]
    if not branch:
        return DynkinType("A", n)
    if len(branch) > 1:
        return NotDynkin("branching", f"two branch vertices {branch[0]!r} and {branch[1]!r}")
    center = branch[0]
    adj: dict[str, list[str]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        adj[a.tail].append(a.head)
        adj[a.head].append(a.tail)
    legs = []
    for first in adj[center]:
        length, prev, cur = 1, center, first
        while True:
            nxt = [w for w in adj[cur] if w != prev]
            if not nxt:
                break
            prev, cur = cur, nxt[0]
            length += 1
        legs.append(length)
    legs.sort()
    a_, b_, c_ = legs
    if a_ == 1 and b_ == 1:
        return DynkinType("D", n)
    if (a_, b_) == (1, 2) and c_ in (2, 3, 4):
        return DynkinType("E", n)
    return NotDynkin("branching", f"leg lengths {tuple(legs)} fit no simply laced type")


@dataclass(frozen=True)
class RootSet:
    """Positive roots of a Dynkin quiver in library order (height, then lex),
    named by library position, as in the tables ext() and inner() build once."""

    quiver: Quiver
    dynkin_type: DynkinType
    roots: tuple[DimVector, ...]
    _ext: tuple | None = field(init=False, repr=False, compare=False, default=None)
    _inner: tuple | None = field(init=False, repr=False, compare=False, default=None)

    def ext(self) -> tuple[tuple[int, ...], ...]:
        """ext[i][j] = dim Ext^1(U_i, U_j) = max(0, -euler(roots[i], roots[j])) for the
        indecomposable U_i of dimension roots[i] (Hom or Ext^1 vanishes); built once."""
        if self._ext is None:
            vs = [r.values for r in self.roots]
            ext = tuple(tuple(max(0, -self.quiver.euler_values(a, b)) for b in vs) for a in vs)
            object.__setattr__(self, "_ext", ext)
        return self._ext

    def inner(self) -> tuple[int, ...]:
        """Library positions of the roots in the inner order; built once.

        Kahn's sort of the constraints "b precedes a whenever skew(a, b) < 0",
        ties broken by library order.  A constraint cycle would mean the block
        admits no valid order and raises ConstraintCycleError, with a shortest
        cycle among the roots the sort left over as the witness.
        """
        if self._inner is None:
            vs = [r.values for r in self.roots]
            succ = [[i for i, a in enumerate(vs) if self.quiver.skew_values(a, b) < 0] for b in vs]
            out = _kahn_order(succ)
            if len(out) != len(vs):
                witness = _shortest_cycle(succ, set(range(len(vs))) - set(out))
                raise ConstraintCycleError(tuple(str(self.roots[i]) for i in witness))
            object.__setattr__(self, "_inner", tuple(out))
        return self._inner


@lru_cache(maxsize=256)
def positive_roots(q: Quiver) -> RootSet:
    """Enumerate positive roots by scanning the bounded coordinate box.

    Memoized per equal quiver and shared, ext() table included, so callers
    must not mutate the result; a non-Dynkin quiver raises on every call.
    """
    ct = classify_dynkin(q)
    if isinstance(ct, NotDynkin):
        raise NotDynkinError(str(ct), kind=ct.kind)
    pairs = q._arrow_pairs
    found = []
    for values in product(range(ROOT_ENTRY_BOUND + 1), repeat=q.n):
        if not any(values):
            continue
        tits = sum(x * x for x in values) - sum(values[t] * values[h] for t, h in pairs)
        if tits == 1:
            found.append(values)
    found.sort(key=lambda vs: (sum(vs), vs))
    roots = tuple(DimVector(q.vertices, vs) for vs in found)
    return RootSet(q, ct, roots)


def _root_count(t: DynkinType) -> int:
    """Number of positive roots of a simply laced Dynkin type."""
    n = t.rank
    if t.family == "A":
        return n * (n + 1) // 2
    if t.family == "D":
        return n * (n - 1)
    return {6: 36, 7: 63, 8: 120}[n]


@dataclass(frozen=True)
class KostantPartition:
    """Multiplicity vector over a root set, aligned with library order."""

    root_set: RootSet
    multiplicities: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "multiplicities", tuple(self.multiplicities))
        if len(self.multiplicities) != len(self.root_set.roots):
            raise InvalidInputError("multiplicity tuple does not match the root set")

    def dimension_vector(self) -> DimVector:
        q = self.root_set.quiver
        total = [0] * q.n
        for m, r in zip(self.multiplicities, self.root_set.roots):
            for i, x in enumerate(r.values):
                total[i] += m * x
        return DimVector(q.vertices, tuple(total))

    def orbit_codim(self) -> int:
        """Codimension of the orbit of M = sum m_i U_i: dim Ext^1(M, M) = sum m_i m_j ext[i][j]."""
        ext = self.root_set.ext()
        nz = [(i, m) for i, m in enumerate(self.multiplicities) if m]
        return sum(a * b * ext[i][j] for i, a in nz for j, b in nz)

    def nonzero(self) -> list[tuple[DimVector, int]]:
        return [
            (r, m) for r, m in zip(self.root_set.roots, self.multiplicities) if m
        ]

    def __str__(self) -> str:
        parts = [f"{m}x{r}" for r, m in self.nonzero()]
        return " + ".join(parts) if parts else "0"


def kostant_partitions(q: Quiver, gamma: DimVector, cap: int = DEFAULT_CAP) -> list[KostantPartition]:
    """All ways to write gamma as a non-negative combination of positive roots.

    Every simple root is a positive root, so once the multiplicities of the
    non-simple roots leave a remainder r >= 0, the simple multiplicities are
    forced: m(e_v) = r_v.  The walk therefore branches only over the
    non-simple roots, each from 0 to the most that fits the remainder, and
    every leaf is a partition: there are no dead ends.  The leaves are sorted
    at the end, so the output is duplicate-free and ordered lexicographically
    by library-order multiplicity tuple.  The cap is checked at each output,
    and since each visited node leads to an output, it also bounds the work:
    at most (cap + 1) * (k + 1) nodes for k non-simple roots.  Raises
    EnumerationCapError past the cap.
    """
    _check_keys(q, gamma)
    rs = positive_roots(q)
    n = q.n
    # the n simple roots lead library order (height 1); simple[j] is the j-th one's vertex
    simple = [r.values.index(1) for r in rs.roots[:n]]
    # non-simple roots highest first: a large root cuts the remainder fastest
    walk = [(r.values, [v for v, x in enumerate(r.values) if x]) for r in reversed(rs.roots[n:])]
    found: list[tuple[int, ...]] = []
    chosen: list[int] = []

    def rec(i: int, rem: list[int]) -> None:
        if i == len(walk):
            found.append(tuple(rem[v] for v in simple) + tuple(reversed(chosen)))
            if len(found) > cap:
                raise EnumerationCapError(
                    f"more than {cap} Kostant partitions for gamma={gamma}"
                )
            return
        beta, supp = walk[i]
        rem = rem.copy()
        chosen.append(0)
        for m in range(min(rem[v] // beta[v] for v in supp) + 1):
            chosen[-1] = m
            rec(i + 1, rem)
            for v in supp:
                rem[v] -= beta[v]
        chosen.pop()

    rec(0, list(gamma.values))
    found.sort()
    return [KostantPartition(rs, m) for m in found]
