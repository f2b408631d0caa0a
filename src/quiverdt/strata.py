"""Strata bookkeeping: monomial normal forms, codimensions, Betti identities.

A Kostant series m for a partition of gamma names a product of root
basis elements.  Multiplying that product down to a single y_gamma and
re-expressing it against the simple-root monomial in topological vertex
order is pure integer bookkeeping (a sign and a v exponent); no series
truncation is involved, so codimension extraction is exact at any scale.
Each block's (root, multiplicity) list in its inner order is built once
per call.  One reduction and one solver turn it into the block's orbit
codimension, and the block lists concatenated in contraction order into
the stratum's.  The complex codimension of the stratum of m solves

    v_power = 2*codim + sum(gamma_i^2) - sum(m_u^2)

and the sign must equal (-1) to the power sum(m_u * (height_u - 1)).
Both are checked and any failure is raised as an internal inconsistency.

The Betti identity multiplies series only by P_k = 1/(q;q)_k, which is
exact division by (1 - q)...(1 - q^k): series.times_poincare does it as one
running sum per residue class mod j for each 1 - q^j, in exact integers.
A check keys every product of P factors by its sorted factor tuple and
builds each prefix once, from the one-shorter prefix by one division, so
the terms share their prefixes with each other and with the left side.
The right side is summed into one coefficient list.  On the betti-long
benchmark (seed 0, Python 3.11 on 2 vCPUs) this took the check from
2,354 Kronecker products per round to none, and its throughput from
about 44 to 114 verdicts/s (BENCH_10.json).

Orbit decompositions of strata are implemented for type A only: there
every root is an interval, so its restriction to a block is a root of
that block or zero.
"""
from __future__ import annotations

from dataclasses import dataclass
from operator import add
from typing import Sequence

from .dynkin import (
    DynkinType,
    KostantPartition,
    classify_dynkin,
    kostant_partitions,
    positive_roots,
)
from .errors import (
    InconsistencyError,
    InvalidInputError,
    InvalidOrderError,
    KeyMismatchError,
    NotAdmissibleError,
    NotConnectedError,
    NotTypeAError,
)
from .ordering import RootOrder, reineke_inner_order
from .partitions import (
    DEFAULT_CAP,
    KostantSeries,
    SubquiverPartition,
    kostant_series,
    order_blocks,
)
from .quiver import DimVector, Quiver, _check_keys, topological_vertex_order
from .series import VSeries, poincare_series, times_poincare


# a block's (root, multiplicity) pairs, in the block's inner order
BlockList = list[tuple[DimVector, int]]


@dataclass(frozen=True)
class MonomialNormalForm:
    """sign * v^v_power times the simple-root monomial of gamma."""

    sign: int
    v_power: int
    gamma: DimVector


@dataclass(frozen=True)
class CodimReport:
    series: KostantSeries
    gamma: DimVector
    codim: int
    sign_exponent_parity: int
    block_codims: tuple[int, ...]  # orbit codimensions, in the series' block order
    lists: tuple[tuple[int, ...], ...]  # per-block multiplicities, in each block's inner order


@dataclass(frozen=True)
class AdditivityVerdict:
    total_codim: int
    block_codims: tuple[int, ...]
    equal: bool


@dataclass(frozen=True)
class BettiTerm:
    """One right-hand summand: q^codim times a product of P factors."""

    series: KostantSeries
    codim: int
    factors: tuple[int, ...]
    lists: tuple[tuple[int, ...], ...]  # per-block multiplicities, in each block's inner order


@dataclass(frozen=True)
class BettiVerdict:
    lhs: VSeries
    rhs: VSeries
    terms: tuple[BettiTerm, ...]
    equal: bool
    diffs: tuple[tuple[int, int, int], ...]


def _product_form(q: Quiver, factors: Sequence[tuple[tuple[int, ...], int]]) -> tuple[int, int, tuple[int, ...]]:
    """Multiply basis monomials with multiplicities into sign * v^power * y_total.

    Since skew(w, w) = 0, the k copies of y_w fold in at once: after a
    nonzero prefix c they cost k merges and k * skew(c, w); after y_0 the
    first copy is free and the other k - 1 merges add no v power.
    """
    merges, power = 0, 0
    current = (0,) * q.n
    for values, mult in factors:
        if not any(values):
            raise InvalidInputError("zero vector among monomial factors")
        if not mult:
            continue
        if any(current):
            merges += mult
            power += mult * q.skew_values(current, values)
        else:
            merges += mult - 1
        current = tuple(a + mult * b for a, b in zip(current, values))
    return (-1 if merges % 2 else 1), power, current


def _simple_monomial_form(q: Quiver, values: tuple[int, ...]) -> tuple[int, int]:
    """Sign and v exponent of the simple-root monomial for a value tuple.

    The monomial multiplies values[i] copies of each unit basis element in
    topological vertex order.
    """
    units = [(q.unit(v).values, values[q.index(v)]) for v in topological_vertex_order(q)]
    sign, power, _ = _product_form(q, units)
    return sign, power


def _normal_form(q: Quiver, factors: Sequence[tuple[tuple[int, ...], int]]) -> MonomialNormalForm:
    """An ordered monomial as sign * v^v_power times its simple-root monomial."""
    sign, power, total = _product_form(q, factors)
    s_sign, s_power = _simple_monomial_form(q, total)
    return MonomialNormalForm(sign * s_sign, power - s_power, DimVector(q.vertices, total))


def _block_lists(m: KostantSeries, inners: Sequence[Sequence[DimVector]]) -> list[BlockList]:
    """Each block's (root, multiplicity) pairs, ordered as inners gives its roots."""
    return [
        [(r, kp.multiplicities[kp.root_set.index(r)]) for r in inner]
        for kp, inner in zip(m.per_block, inners)
    ]


def _stratum_form(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, lists: Sequence[BlockList]
) -> MonomialNormalForm:
    """Normal form of m's block lists embedded and concatenated in p's contraction
    order; p may list m's blocks in another order.  Raises NotAdmissibleError."""
    if {frozenset(b) for b in p.blocks} != {frozenset(b) for b in m.partition.blocks}:
        raise KeyMismatchError("Kostant series built on a different partition")
    return _normal_form(q, [
        (r.embed(q.vertices).values, k)
        for block in order_blocks(q, p).blocks
        for r, k in lists[m.partition.block_index(block)]
    ])


def monomial_normal_form(
    q: Quiver, p: SubquiverPartition, order: RootOrder, m: KostantSeries
) -> MonomialNormalForm:
    """Normal form of the ordered root monomial named by m.

    The factors are regrouped block by block (heads-first block
    arrangement, each block keeping the order's inner sequence) and
    reduced to sign * v^v_power times the topologically ordered
    simple-root monomial of the total dimension vector.  Any valid
    interleaving multiplies out to the same element, so only the inner
    block orders matter; they must be valid.  Raises NotAdmissibleError
    when the partition admits no heads-first block arrangement.
    """
    # block supports are disjoint, so an embedded root's values name its block
    where = {root.values: (j, r) for j, r, root, _ in m.entries()}
    inners: list[list[DimVector]] = [[] for _ in m.per_block]
    for root, _ in order.entries:
        if root.values not in where:
            raise InvalidOrderError(f"order root {root} is not a root of the series' blocks")
        j, r = where[root.values]
        inners[j].append(r)
    return _stratum_form(q, p, m, _block_lists(m, inners))


def _sign_parity(kps: Sequence[KostantPartition]) -> int:
    """Parity of the sum of m_u * (height_u - 1) over the roots of kps."""
    return sum(k * (r.height - 1) for kp in kps for r, k in kp.nonzero()) % 2


def _solve_codim(nf: MonomialNormalForm, kps: Sequence[KostantPartition], context: str) -> int:
    """Codimension of the stratum of kps, whose ordered root monomial reduces to nf."""
    mult_sq = sum(k * k for kp in kps for k in kp.multiplicities)
    numerator = nf.v_power - sum(x * x for x in nf.gamma.values) + mult_sq
    if numerator % 2 or numerator < 0:
        raise InconsistencyError(
            f"{context}: v exponent {nf.v_power} gives codimension {numerator}/2"
        )
    s_parity = _sign_parity(kps)
    if nf.sign != (-1 if s_parity else 1):
        raise InconsistencyError(
            f"{context}: sign {nf.sign} contradicts multiplicity parity {s_parity}"
        )
    return numerator // 2


def _block_forms(p: SubquiverPartition, gamma: DimVector) -> list[tuple[tuple[int, ...], int, int]]:
    """Each block's restriction of gamma, with the sign and v exponent of its
    simple-root monomial.  Every Kostant series of gamma on p multiplies out
    to these monomials block by block, so they are worked out once per call."""
    forms = []
    for b in p.induced:
        values = gamma.restrict(b.vertices).values
        forms.append((values, *_simple_monomial_form(b, values)))
    return forms


def _block_codims(
    m: KostantSeries, lists: Sequence[BlockList], forms: Sequence[tuple[tuple[int, ...], int, int]]
) -> tuple[int, ...]:
    """Orbit stratum codimension of each block's Kostant partition in m, given
    _block_forms of m's partition and gamma."""
    codims = []
    for b, kp, lst, (values, s_sign, s_power) in zip(m.partition.induced, m.per_block, lists, forms):
        sign, power, total = _product_form(b, [(r.values, k) for r, k in lst])
        if total != values:
            raise InconsistencyError(f"block {b.vertices} multiplies out to {total}, not {values}")
        nf = MonomialNormalForm(sign * s_sign, power - s_power, DimVector(b.vertices, total))
        codims.append(_solve_codim(nf, (kp,), f"block {b.vertices}"))
    return tuple(codims)


def codim_of_stratum(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, gamma: DimVector
) -> CodimReport:
    """Complex codimension of the stratum named by m inside gamma's space.

    Admissible partitions go through the full ordered-monomial normal
    form; otherwise the codimension is the sum of the per-block orbit
    codimensions, which is the same number where both are defined.
    """
    _check_keys(q, gamma)
    if m.gamma() != gamma:
        raise InvalidInputError(f"series sums to {m.gamma()}, not {gamma}")
    lists = _block_lists(m, [reineke_inner_order(b) for b in m.partition.induced])
    blocks = _block_codims(m, lists, _block_forms(m.partition, gamma))
    try:
        codim = _solve_codim(_stratum_form(q, p, m, lists), m.per_block, f"stratum {m}")
    except NotAdmissibleError:
        codim = sum(blocks)
    return CodimReport(m, gamma, codim, _sign_parity(m.per_block), blocks,
                       tuple(tuple(k for _, k in lst) for lst in lists))


def codim_additivity_check(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, gamma: DimVector
) -> AdditivityVerdict:
    """Compare the stratum codimension with the sum over blocks."""
    r = codim_of_stratum(q, p, m, gamma)
    return AdditivityVerdict(r.codim, r.block_codims, r.codim == sum(r.block_codims))


def betti_identity_check(
    q: Quiver,
    p: SubquiverPartition,
    gamma: DimVector,
    v_max: int,
    cap: int = DEFAULT_CAP,
) -> BettiVerdict:
    """Check the Poincare product identity for a partition.

    The product of P_(gamma_i) over vertices must equal the sum over
    Kostant series of q^codim times the product of P factors of the
    multiplicities.  Admissibility is not required; codimensions come
    from the per-block orbit computation.  Each product of P factors is
    keyed by its sorted factor tuple and built from its one-shorter prefix
    by one times_poincare division, so every prefix is built once per
    call, the left side's included.
    """
    _check_keys(q, gamma)
    inners = [reineke_inner_order(b) for b in p.induced]
    forms = _block_forms(p, gamma)
    terms = []
    for m in kostant_series(q, p, gamma, cap=cap):
        lists = _block_lists(m, inners)
        terms.append(BettiTerm(m, sum(_block_codims(m, lists, forms)),
                               tuple(sorted(filter(None, m.multiplicities()))),
                               tuple(tuple(k for _, k in lst) for lst in lists)))
    key = tuple(sorted(filter(None, gamma.values)))
    products = {(): VSeries.one(v_max)}
    for factors in [key] + [t.factors for t in terms]:
        for n, k in enumerate(factors):
            if factors[:n + 1] not in products:
                products[factors[:n + 1]] = (
                    times_poincare(products[factors[:n]], k) if n else poincare_series(k, v_max))
    lhs = products[key]
    # every product starts at v^0 and every codim is >= 0
    out = [0] * (v_max + 1)
    for t in terms:
        lo = 2 * t.codim
        run = products[t.factors].coeffs[:max(0, v_max + 1 - lo)]
        out[lo:lo + len(run)] = map(add, out[lo:lo + len(run)], run)
    rhs = VSeries(v_max, 0, tuple(out))
    diffs = []
    if lhs != rhs:
        for e in range(min(lhs.min_exp, rhs.min_exp, 0), v_max + 1):
            a, b = lhs.coefficient(e), rhs.coefficient(e)
            if a != b:
                diffs.append((e, a, b))
    return BettiVerdict(lhs, rhs, tuple(terms), not diffs, tuple(diffs))


def series_from_inner_lists(
    q: Quiver, p: SubquiverPartition, lists: Sequence[Sequence[int]]
) -> KostantSeries:
    """Build a Kostant series from per-block multiplicity lists.

    Each list is indexed by the block's inner root order, the notation
    used in reports; internally multiplicities align with library order.
    """
    if len(lists) != p.size:
        raise InvalidInputError(f"expected {p.size} block lists, got {len(lists)}")
    per = []
    for j, lst in enumerate(lists):
        block = p.induced[j]
        inner = reineke_inner_order(block)
        if len(lst) != len(inner):
            raise InvalidInputError(
                f"block {j} has {len(inner)} roots, got {len(lst)} multiplicities"
            )
        rs = positive_roots(block)
        mult = [0] * len(rs.roots)
        for root, x in zip(inner, lst):
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InvalidInputError(f"multiplicities must be non-negative integers, got {x!r}")
            mult[rs.index(root)] = x
        per.append(KostantPartition(rs, tuple(mult)))
    return KostantSeries(p, tuple(per))


def inner_lists(m: KostantSeries) -> list[list[int]]:
    """Per-block multiplicities of m, indexed by each block's inner root order."""
    lists = _block_lists(m, [reineke_inner_order(b) for b in m.partition.induced])
    return [[k for _, k in lst] for lst in lists]


def stratum_orbit_decomposition(
    q: Quiver,
    p: SubquiverPartition,
    m: KostantSeries,
    gamma: DimVector,
    cap: int = DEFAULT_CAP,
) -> list[KostantPartition]:
    """Orbits of the whole quiver whose block restrictions reproduce m.

    Implemented for type A only, where every root is an interval: a full
    Kostant partition restricts to each block (a sub-interval) root by
    root, dropping zero restrictions, and the stratum of m is the union of
    the matching full orbits.  Raises NotTypeAError for any other quiver,
    a disconnected one included.
    """
    _check_keys(q, gamma)
    if m.gamma() != gamma:
        raise InvalidInputError(f"series sums to {m.gamma()}, not {gamma}")
    try:
        shape = classify_dynkin(q)
    except NotConnectedError:
        shape = "not connected"
    if not (isinstance(shape, DynkinType) and shape.family == "A"):
        raise NotTypeAError(f"orbit decomposition needs type A; the quiver is {shape}")
    matches = []
    for full in kostant_partitions(q, gamma, cap=cap):
        induced: list[dict[DimVector, int]] = [{} for _ in m.per_block]
        for root, mult in full.nonzero():
            for j, block in enumerate(m.partition.blocks):
                local = root.restrict(block)
                if not local.is_zero:
                    induced[j][local] = induced[j].get(local, 0) + mult
        if all(got == dict(kp.nonzero()) for got, kp in zip(induced, m.per_block)):
            matches.append(full)
    return matches
