"""Quiver data model.

A quiver is a finite directed multigraph with opaque string vertex names.
This module provides parsing, dimension vectors, the Euler form and its
skew-symmetrization, topological vertex orders, induced subquivers and
underlying components.  All arithmetic is exact integer arithmetic.

Every topological sort in the package (of vertices here, of partition
blocks, of a block's roots) is _kahn_order on index successor lists, and
every failed one takes a shortest directed cycle from _shortest_cycle.
"""
from __future__ import annotations

import json
from collections import Counter, deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Iterable, Mapping, NamedTuple, Sequence

from .errors import (
    CyclicQuiverError,
    InvalidInputError,
    KeyMismatchError,
    NotAPartitionError,
    QuiverParseError,
    UnknownVertexError,
)


class Arrow(NamedTuple):
    name: str
    tail: str
    head: str


@dataclass(frozen=True)
class DimVector:
    """Non-negative integer vector keyed by an ordered vertex tuple."""

    vertices: tuple[str, ...]
    values: tuple[int, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "values", tuple(self.values))
        if len(self.vertices) != len(self.values):
            raise KeyMismatchError("vertex tuple and value tuple differ in length")
        for x in self.values:
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InvalidInputError(
                    f"dimension vector entries must be non-negative integers, got {x!r}"
                )

    def __hash__(self) -> int:
        # equal vectors have equal values; the vertex tuple is left to __eq__
        return hash(self.values)

    def __add__(self, other: DimVector) -> DimVector:
        self._check(other)
        return DimVector(self.vertices, tuple(a + b for a, b in zip(self.values, other.values)))

    def __mul__(self, k: int) -> DimVector:
        return DimVector(self.vertices, tuple(k * a for a in self.values))

    __rmul__ = __mul__

    def __le__(self, other: DimVector) -> bool:
        self._check(other)
        return all(a <= b for a, b in zip(self.values, other.values))

    def __getitem__(self, vertex: str) -> int:
        try:
            return self.values[self.vertices.index(vertex)]
        except ValueError:
            raise UnknownVertexError(f"unknown vertex {vertex!r}") from None

    def _check(self, other: DimVector) -> None:
        if self.vertices != other.vertices:
            raise KeyMismatchError(
                f"dimension vectors keyed by different vertex tuples: "
                f"{self.vertices} vs {other.vertices}"
            )

    @property
    def height(self) -> int:
        return sum(self.values)

    @property
    def is_zero(self) -> bool:
        return not any(self.values)

    @property
    def support(self) -> tuple[str, ...]:
        return tuple(v for v, x in zip(self.vertices, self.values) if x)

    def restrict(self, vertices: Sequence[str]) -> DimVector:
        """Project onto a vertex subset, keyed by the given order."""
        return DimVector(tuple(vertices), tuple(self[v] for v in vertices))

    def embed(self, vertices: Sequence[str]) -> DimVector:
        """Extend by zeros to a larger vertex tuple."""
        vertices = tuple(vertices)
        missing = set(self.support) - set(vertices)
        if missing:
            raise KeyMismatchError(f"support {missing} not contained in target vertices")
        own = dict(zip(self.vertices, self.values))
        return DimVector(vertices, tuple(own.get(v, 0) for v in vertices))

    def as_dict(self) -> dict[str, int]:
        return dict(zip(self.vertices, self.values))

    def __str__(self) -> str:
        return "(" + ",".join(str(x) for x in self.values) + ")"


@dataclass(frozen=True)
class Quiver:
    """A finite directed multigraph.

    Vertex names and arrow names are unique strings; loop arrows are
    rejected.
    """

    vertices: tuple[str, ...]
    arrows: tuple[Arrow, ...]
    _vindex: dict = field(init=False, repr=False, compare=False)
    _arrow_pairs: tuple = field(init=False, repr=False, compare=False)
    # the topological vertex order, once one has been found
    _topo: tuple | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "arrows", tuple(Arrow(*a) for a in self.arrows))
        if len(set(self.vertices)) != len(self.vertices):
            raise QuiverParseError("duplicate vertex name")
        names = [a.name for a in self.arrows]
        if len(set(names)) != len(names):
            raise QuiverParseError("duplicate arrow name")
        vindex = {v: i for i, v in enumerate(self.vertices)}
        for a in self.arrows:
            if a.tail not in vindex or a.head not in vindex:
                raise QuiverParseError(f"arrow {a.name!r} has an endpoint outside the vertex set")
            if a.tail == a.head:
                raise QuiverParseError(f"loop arrow {a.name!r} not allowed")
        object.__setattr__(self, "_vindex", vindex)
        object.__setattr__(
            self, "_arrow_pairs", tuple((vindex[a.tail], vindex[a.head]) for a in self.arrows)
        )

    @property
    def n(self) -> int:
        return len(self.vertices)

    def index(self, vertex: str) -> int:
        try:
            return self._vindex[vertex]
        except KeyError:
            raise UnknownVertexError(f"unknown vertex {vertex!r}") from None

    def vector(self, values: Mapping[str, int] | Iterable[int]) -> DimVector:
        if isinstance(values, Mapping):
            unknown = set(values) - set(self.vertices)
            if unknown:
                raise UnknownVertexError(f"unknown vertices {sorted(unknown)}")
            return DimVector(self.vertices, tuple(values.get(v, 0) for v in self.vertices))
        return DimVector(self.vertices, tuple(values))

    def unit(self, vertex: str) -> DimVector:
        i = self.index(vertex)
        return DimVector(self.vertices, tuple(1 if j == i else 0 for j in range(self.n)))

    def zero(self) -> DimVector:
        return DimVector(self.vertices, (0,) * self.n)

    def euler_values(self, u: Sequence[int], w: Sequence[int]) -> int:
        """Euler form on raw value tuples aligned with self.vertices."""
        return sum(a * b for a, b in zip(u, w)) - sum(u[t] * w[h] for t, h in self._arrow_pairs)

    def skew_values(self, u: Sequence[int], w: Sequence[int]) -> int:
        """Skew form on raw value tuples aligned with self.vertices."""
        return sum(u[t] * w[h] - u[h] * w[t] for t, h in self._arrow_pairs)


def parse_quiver(text: str) -> Quiver:
    """Parse a quiver description.

    The format is a JSON object with a "vertices" array of names and an
    "arrows" array of {"id", "tail", "head"} records.  Numeric labels are
    normalized to strings.
    """
    try:
        data = json.loads(text)
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to convert
        raise QuiverParseError(f"malformed syntax: {e}") from None
    except RecursionError:
        raise QuiverParseError("malformed syntax: nested too deeply") from None
    if not isinstance(data, dict):
        raise QuiverParseError("top level must be an object")
    if "vertices" not in data:
        raise QuiverParseError('missing "vertices"')
    raw_vertices = data["vertices"]
    raw_arrows = data.get("arrows", [])
    if not isinstance(raw_vertices, list) or not isinstance(raw_arrows, list):
        raise QuiverParseError('"vertices" and "arrows" must be arrays')

    def label(x, what: str) -> str:
        if isinstance(x, str):
            return x
        if isinstance(x, int) and not isinstance(x, bool):
            return str(x)
        raise QuiverParseError(f"{what} must be a string, got {x!r}")

    vertices = tuple(label(v, "vertex name") for v in raw_vertices)
    arrows = []
    for rec in raw_arrows:
        if not isinstance(rec, dict) or not {"id", "tail", "head"} <= set(rec):
            raise QuiverParseError('each arrow needs "id", "tail" and "head"')
        arrows.append(
            Arrow(label(rec["id"], "arrow id"), label(rec["tail"], "arrow tail"),
                  label(rec["head"], "arrow head"))
        )
    try:
        return Quiver(vertices, tuple(arrows))
    except QuiverParseError:
        raise
    except Exception as e:  # pragma: no cover - defensive
        raise QuiverParseError(str(e)) from None


def _kahn_order(succ: Sequence[Sequence[int]]) -> list[int]:
    """Kahn's algorithm on nodes 0..n-1 with an edge i -> w for each w in succ[i].

    Of the nodes ready at each step the smallest comes first.  Nodes on or
    behind a cycle are never ready, so fewer than n nodes come back.
    """
    indeg = [0] * len(succ)
    for ws in succ:
        for w in ws:
            indeg[w] += 1
    heap = [i for i, d in enumerate(indeg) if d == 0]  # ascending, so already a heap
    out: list[int] = []
    while heap:
        i = heappop(heap)
        out.append(i)
        for w in succ[i]:
            indeg[w] -= 1
            if indeg[w] == 0:
                heappush(heap, w)
    return out


def _shortest_cycle(succ: Sequence[Sequence[int]], nodes: Iterable[int]) -> list[int] | None:
    """Shortest closed walk along the edges i -> w, w in succ[i], that stays
    inside nodes; returned with its start repeated, or None.

    A self-edge is the shortest walk there is.  Ties go to the smallest
    start, and from one start breadth-first search in succ order picks the
    walk, so the witness is deterministic.  Every cycle lies among the
    nodes a Kahn sort leaves unsorted, so those are all a caller must pass.
    """
    inside = set(nodes)
    best: list[int] | None = None
    for start in sorted(inside):
        prev = {start: start}
        queue = deque([start])
        hit: int | None = None
        while queue and hit is None:
            u = queue.popleft()
            for w in succ[u]:
                if w == start:
                    hit = u
                    break
                if w in inside and w not in prev:
                    prev[w] = u
                    queue.append(w)
        if hit is None:
            continue
        path = [hit]
        while path[-1] != start:
            path.append(prev[path[-1]])
        if best is None or len(path) + 1 < len(best):
            best = path[::-1] + [start]
    return best


def shortest_directed_cycle(q: Quiver) -> tuple[str, ...] | None:
    """Shortest directed cycle, returned with the start vertex repeated.

    Ties go to the earliest start vertex in input order (see _shortest_cycle).
    """
    succ: list[list[int]] = [[] for _ in q.vertices]
    for t, h in q._arrow_pairs:
        succ[t].append(h)
    cycle = _shortest_cycle(succ, range(q.n))
    return None if cycle is None else tuple(q.vertices[i] for i in cycle)


def topological_vertex_order(q: Quiver) -> tuple[str, ...]:
    """Order vertices so every arrow's head precedes its tail.

    Ties are broken by input vertex order.  Raises CyclicQuiverError with
    a shortest directed cycle as witness when no such order exists.  A
    quiver never changes, so its order is sorted once and then kept.
    """
    if q._topo is not None:
        return q._topo
    succ: list[list[int]] = [[] for _ in q.vertices]
    for t, h in q._arrow_pairs:
        succ[h].append(t)
    out = _kahn_order(succ)
    if len(out) != q.n:
        witness = shortest_directed_cycle(q)
        assert witness is not None
        raise CyclicQuiverError(witness)
    order = tuple(q.vertices[i] for i in out)
    object.__setattr__(q, "_topo", order)
    return order


def euler_form(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """Euler form: sum of products over vertices minus the sum over arrows."""
    _check_keys(q, g1)
    _check_keys(q, g2)
    return q.euler_values(g1.values, g2.values)


def skew_form(q: Quiver, g1: DimVector, g2: DimVector) -> int:
    """Skew-symmetrized Euler form.

    On unit vectors this counts arrows i -> j minus arrows j -> i.
    """
    _check_keys(q, g1)
    _check_keys(q, g2)
    return q.skew_values(g1.values, g2.values)


def induced_subquiver(q: Quiver, vertices: Iterable[str]) -> Quiver:
    """Full subquiver on a vertex subset, keeping the ambient vertex order."""
    chosen = set(vertices)
    unknown = chosen - set(q.vertices)
    if unknown:
        raise UnknownVertexError(f"unknown vertices {sorted(unknown)}")
    sub_vertices = tuple(v for v in q.vertices if v in chosen)
    sub_arrows = tuple(a for a in q.arrows if a.tail in chosen and a.head in chosen)
    return Quiver(sub_vertices, sub_arrows)


def check_vertex_partition(q: Quiver, blocks: Sequence[Iterable[str]]) -> tuple[tuple[str, ...], ...]:
    """Validate a partition of the vertex set; normalize each block to ambient order."""
    normalized = []
    seen: Counter[str] = Counter()
    for block in blocks:
        members = list(block)
        if not members:
            raise NotAPartitionError("empty block")
        unknown = set(members) - set(q.vertices)
        if unknown:
            raise NotAPartitionError(f"unknown vertices {sorted(unknown)}")
        if len(set(members)) != len(members):
            raise NotAPartitionError(f"repeated vertex inside block {sorted(members)}")
        seen.update(members)
        normalized.append(tuple(sorted(members, key=q.index)))
    dup = [v for v, c in seen.items() if c > 1]
    if dup:
        raise NotAPartitionError(f"vertices in more than one block: {sorted(dup)}")
    missing = [v for v in q.vertices if v not in seen]
    if missing:
        raise NotAPartitionError(f"vertices in no block: {missing}")
    return tuple(normalized)


def underlying_components(q: Quiver) -> list[list[int]]:
    """Connected components of the underlying undirected graph, as vertex indices.

    Components come in the input order of their first vertex.
    """
    adj: list[list[int]] = [[] for _ in q.vertices]
    for t, h in q._arrow_pairs:
        adj[t].append(h)
        adj[h].append(t)
    seen = [False] * len(adj)
    comps = []
    for start in range(len(adj)):
        if not seen[start]:
            seen[start] = True
            comp = [start]
            for u in comp:  # grows while it is walked
                for w in adj[u]:
                    if not seen[w]:
                        seen[w] = True
                        comp.append(w)
            comps.append(comp)
    return comps


def underlying_connected(q: Quiver) -> bool:
    """True when the underlying undirected graph is connected and nonempty."""
    return len(underlying_components(q)) == 1


def _check_keys(q: Quiver, g: DimVector) -> None:
    if g.vertices != q.vertices:
        raise KeyMismatchError(
            f"dimension vector keyed by {g.vertices}, quiver has {q.vertices}"
        )
