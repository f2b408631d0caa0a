"""Strata bookkeeping: monomial normal forms, codimensions, Betti identities.

A Kostant series m for a partition of gamma names one orbit per block.  A
Dynkin quiver is representation-directed (Hom or Ext^1 between two
indecomposables vanishes), so the orbit of sum m_i U_i has codimension
dim Ext^1 = sum m_i * m_j * max(0, -euler(beta_i, beta_j)): see
KostantPartition.orbit_codim.  The stratum's own codimension, for an
admissible partition, comes from a second engine.  m names a product of
root basis elements in the blocks' inner orders, concatenated in the
contraction order of m's blocks; reducing it to sign * v^v_power times the
simple-root monomial of gamma (a closed form) is exact bookkeeping, and

    v_power = 2*codim + sum(gamma_i^2) - sum(m_u^2)

with the sign (-1) to the power sum(m_u * (height_u - 1)); any failure is
raised as an internal inconsistency.  codim_additivity_check compares the
two engines.  Every reported list is read at each block's library root
positions in inner order, RootSet.inner, which the memoized root set
builds once per distinct block quiver.

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
from .ordering import RootOrder
from .partitions import (
    DEFAULT_CAP,
    KostantSeries,
    SubquiverPartition,
    _check_partition,
    _contraction_order,
    kostant_series,
)
from .quiver import DimVector, Quiver
from .series import VSeries, poincare_series, times_poincare


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


def _lists(m: KostantSeries) -> tuple[tuple[int, ...], ...]:
    """Per-block multiplicities of m, each read in its block's inner order."""
    return tuple(tuple(kp.multiplicities[i] for i in kp.root_set.inner()) for kp in m.per_block)


def _stratum_form(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, positions: Sequence[Sequence[int]]
) -> MonomialNormalForm:
    """Normal form of m's blocks, each read at its positions (multiplicity 0
    skipped) and concatenated in the contraction order of m's partition; p
    must have the same blocks.  Contraction orders differ only by swapping
    blocks no arrow joins, whose roots commute.  Raises NotAdmissibleError.

    Heads first, the simple-root monomial of total is
    (-1)^(|total| - 1) * v^(-sum over arrows t -> h of total[t] * total[h]).
    """
    if m.partition is not p and ({frozenset(b) for b in p.blocks}
                                 != {frozenset(b) for b in m.partition.blocks}):
        raise KeyMismatchError("Kostant series built on a different partition")
    factors = []
    for j in _contraction_order(q, m.partition.blocks):
        kp = m.per_block[j]
        factors += [(kp.root_set.roots[i].embed(q.vertices).values, kp.multiplicities[i])
                    for i in positions[j] if kp.multiplicities[i]]
    sign, power, total = _product_form(q, factors)
    if sum(total) % 2 == 0 and any(total):
        sign = -sign
    power += sum(total[t] * total[h] for t, h in q._arrow_pairs)
    return MonomialNormalForm(sign, power, DimVector(q.vertices, total))


def monomial_normal_form(
    q: Quiver, p: SubquiverPartition, order: RootOrder, m: KostantSeries
) -> MonomialNormalForm:
    """Normal form of the ordered root monomial named by m.

    The order's roots are regrouped by m's blocks in contraction order,
    each block keeping the order's sequence, and reduced as _stratum_form
    does.  Valid interleavings multiply out alike, so only the inner
    orders matter, and they must be valid: read per block of m, the order
    names each root of the block once, and a root u before a root w has
    skew(u, w) >= 0.  Raises InvalidOrderError naming the first root that
    breaks this (or is no root of m's blocks), and NotAdmissibleError when
    the partition admits no block arrangement.
    """
    _check_partition(q, p)
    embedded = [[r.embed(q.vertices) for r in kp.root_set.roots] for kp in m.per_block]
    # block supports are disjoint, so an embedded root's values name its block
    where = {r.values: (j, i) for j, roots in enumerate(embedded) for i, r in enumerate(roots)}
    positions: list[list[int]] = [[] for _ in m.per_block]
    for root, _ in order.entries:
        if root.values not in where:
            raise InvalidOrderError(f"order root {root} is not a root of the series' blocks")
        j, i = where[root.values]
        if i in positions[j]:
            raise InvalidOrderError(f"order root {root} is named twice")
        for k in positions[j]:
            val = q.skew_values(embedded[j][k].values, root.values)
            if val < 0:
                raise InvalidOrderError(
                    f"order root {root} comes after {embedded[j][k]} of its block, skew form {val}")
        positions[j].append(i)
    for j, roots in enumerate(embedded):
        for i, r in enumerate(roots):
            if i not in positions[j]:
                raise InvalidOrderError(f"order leaves out root {r} of the series' block {j}")
    return _stratum_form(q, p, m, positions)


def _solve_codim(nf: MonomialNormalForm, m: KostantSeries, parity: int) -> int:
    """Codimension of the stratum of m, whose ordered root monomial reduces to
    nf; the sign must match the multiplicities' parity."""
    twice = nf.v_power - sum(x * x for x in nf.gamma.values) + sum(k * k for k in m.multiplicities())
    if twice % 2 or twice < 0:
        raise InconsistencyError(f"stratum {m}: v exponent {nf.v_power} gives codimension {twice}/2")
    if nf.sign != (-1) ** parity:
        raise InconsistencyError(
            f"stratum {m}: sign {nf.sign} contradicts multiplicity parity {parity}")
    return twice // 2


def codim_of_stratum(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, gamma: DimVector
) -> CodimReport:
    """Complex codimension of the stratum named by m inside gamma's space.

    Block codimensions are dim Ext^1 from the Euler form.  An admissible
    partition's codimension solves the full ordered-monomial normal form,
    each block read in its inner order; any other's is the sum over
    blocks, the same number where both exist.
    """
    _check_partition(q, p, gamma)
    if m.gamma() != gamma:
        raise InvalidInputError(f"series sums to {m.gamma()}, not {gamma}")
    blocks = tuple(kp.orbit_codim() for kp in m.per_block)
    parity = sum(k * (r.height - 1) for kp in m.per_block for r, k in kp.nonzero()) % 2
    positions = [kp.root_set.inner() for kp in m.per_block]
    try:
        codim = _solve_codim(_stratum_form(q, p, m, positions), m, parity)
    except NotAdmissibleError:
        codim = sum(blocks)
    return CodimReport(m, gamma, codim, parity, blocks, _lists(m))


def codim_additivity_check(
    q: Quiver, p: SubquiverPartition, m: KostantSeries, gamma: DimVector
) -> AdditivityVerdict:
    """Compare the stratum codimension with the sum over blocks: on an
    admissible partition, the normal-form solve against the Euler form."""
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
    multiplicities.  Admissibility is not required: a term's codim is the
    sum of its blocks' Euler-form orbit codimensions.  Each product of P
    factors is keyed by its sorted factor tuple and built from its
    one-shorter prefix by one times_poincare division, so every prefix is
    built once per call, the left side's included.
    """
    _check_partition(q, p, gamma)
    terms = [
        BettiTerm(m, sum(kp.orbit_codim() for kp in m.per_block),
                  tuple(sorted(filter(None, m.multiplicities()))), _lists(m))
        for m in kostant_series(q, p, gamma, cap=cap)
    ]
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
    _check_partition(q, p)
    if len(lists) != p.size:
        raise InvalidInputError(f"expected {p.size} block lists, got {len(lists)}")
    per = []
    for j, lst in enumerate(lists):
        rs = positive_roots(p.induced[j])
        positions = rs.inner()
        if len(lst) != len(positions):
            raise InvalidInputError(
                f"block {j} has {len(positions)} roots, got {len(lst)} multiplicities"
            )
        mult = [0] * len(rs.roots)
        for i, x in zip(positions, lst):
            if not isinstance(x, int) or isinstance(x, bool) or x < 0:
                raise InvalidInputError(f"multiplicities must be non-negative integers, got {x!r}")
            mult[i] = x
        per.append(KostantPartition(rs, tuple(mult)))
    return KostantSeries(p, tuple(per))


def inner_lists(m: KostantSeries) -> list[list[int]]:
    """Per-block multiplicities of m, indexed by each block's inner root order."""
    return [list(lst) for lst in _lists(m)]


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
    _check_partition(q, p, gamma)
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
