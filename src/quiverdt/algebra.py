"""Quantum torus elements, dilogarithms, and factorization verification.

Elements live in the quantum algebra of a quiver, truncated two ways: the
dimension vector support is capped componentwise by a bound, and series
coefficients are cut at a v truncation order (v = q^(1/2)).  The basis
elements y_gamma multiply by the signed rule

    y_a * y_b = -v^(skew(a, b)) * y_(a+b)     (a, b nonzero)

and y_0 is the multiplicative identity.  Since skew(gamma, gamma) = 0,
repeated multiplication gives y_gamma^k = (-1)^(k-1) * y_(k*gamma); dilog
writes its terms down from this power rule, and they form a finite sum
under a support bound.

Because the skew form can be negative, a product can lower series
exponents, so elements internally carry coefficients up to a working
cutoff v_max + H, H = sum(bound[tail] * bound[head]) over arrows.  Take
one monomial of a product, a factor y_(a_i) from each element, whose sum
stays within the bound.  The skew forms of any subset of its factor pairs
sum to at least -H: each pair adds at least -sum a_i[head] * a_j[tail],
and over all pairs those terms sum to at most sum_arrows (sum_i
a_i[head]) (sum_j a_j[tail]) <= H.  At any node of any bracketing the
monomial's exponent is the final one minus the series exponents of the
factors outside the node (all >= 0 in a dilogarithm) and minus the skew
forms of the pairs not inside it, so at most the final exponent + H.  A
digit dropped past the working cutoff at any node therefore lands past
v_max in the final product, and a monomial that leaves the bound at a
node leaves it in the product too.  So every coefficient read back
through coefficient() is exact however a product was parenthesized, and
factorization_product may multiply each block out on its own.

Every series of a dilogarithm product obeys a parity rule: the
coefficient of y_gamma has only v exponents of the parity of chi(gamma,
gamma), the Euler form.  The dilogarithm of a real root gamma carries
v^(k^2) P_k, P_k a series in q, at y_(k*gamma), and chi(k*gamma, k*gamma) =
k^2; a product adds skew(a, b) = chi(a, b) - chi(b, a), of the parity of
chi(a + b, a + b) - chi(a, a) - chi(b, b).

A target y_gamma that one term pair alone reaches keeps that pair as a
lone product (a, b, shift, sign), shift the pair's skew form, and at the
end series.target_series multiplies it out: under the parity rule a and b
have one exponent parity each, so that is one bigint product and one
unpack, with no accumulator (see series).  Only a target where two or more
contributions meet gets a packed accumulator, series.PackedSum, which is
unpacked and truncated once.  Most targets are reached once: 25,975 of
the 34,269 that need a multiply over trivial_dt and the 132 factorization
products of the perfbench torus-sweep inputs (seed 0).  The digit width,
shared by every product of one call, is series.product_width of the two
elements' series, since each x term meets at most one y term per target.

Two kinds of pair skip the multiply.  A y_0 term whose coefficient is exactly
1 (compared on every call) hands the other term's series to its target
unchanged: a target that gets nothing else keeps that series object and
its key, and one that does adds the packed series without a multiply.
Its contribution is still the product 1 * c, so the width bound holds as
it stands.  Dimension vectors are packed into a mixed-radix box index
with one guard bit above each coordinate's digit, so a pair's sum leaves
the box exactly when (index_x + index_y + offset) & guard is nonzero (see
_box_index); such pairs are dropped before any series work.  The
DimVector of each decoded target index is built once per vertex tuple and
bound, in a table _box_index keeps.  Each y term's skew row is built once
per call, so a pair's skew form is one dot product.

verify_factorization multiplies every factor but the last one as
factorization_product does, and leaves the last multiplication unbuilt.
That multiplication runs the same pair loop (_contributions), and
series.target_agrees compares each target with the reference's series up
to v_max on the packed runs, masked, at the digit width
series.compare_width gives for both sides; series holds the compare and
its proof.  A lone product whose operands and reference have one parity
each, 18,072 of the 19,980 compares of a seed-0 torus-sweep round, costs
one multiply, one subtraction and one mask.  Only a target that fails the
test is unpacked, with the top-digit and v = 1 checks of series, to build
its mismatch.  A target that matches is never unpacked, so its digit-sum
check does not run; the proven width bound keeps its digits exact, as it
does for every product.

Work that depends on one series alone, its norms and packed halves, is
done once per series, not once per product: it is kept in the series'
memo (see series), a series handed through keeps that memo, and a product
of one parity is born with it.  dilog is memoized, so every
product chain of one quiver, bound and cutoff multiplies by the same
elements and their already packed series.  A target whose products
cancel is left out, so a product never holds a zero series.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import groupby
from operator import itemgetter, lshift, mul
from typing import Mapping

from .errors import (
    BoundExceededError,
    InvalidInputError,
    InvalidOrderError,
    TruncationMismatchError,
)
from .ordering import RootOrder, admissible_total_order, validate_order
from .partitions import SubquiverPartition, _check_partition
from .quiver import DimVector, Quiver, _check_keys, topological_vertex_order
from .series import (PackedSum, VSeries, compare_width, convolve_into, poincare_series,
                     product_width, target_agrees, target_series)


def working_v_max(q: Quiver, bound: DimVector, v_max: int) -> int:
    """Internal series cutoff: v_max plus the worst possible downward shift."""
    b = bound.values
    return v_max + sum(b[t] * b[h] for t, h in q._arrow_pairs)


@dataclass(frozen=True)
class QuantumElement:
    """A finite sum of series coefficients times basis elements y_gamma.

    terms maps dimension vectors within the bound to nonzero series kept
    at the working cutoff; coefficient() truncates them back to v_max,
    the element's public precision.  The map is never mutated after
    construction.
    """

    quiver: Quiver
    bound: DimVector
    v_max: int
    terms: Mapping[DimVector, VSeries]

    def coefficient(self, gamma: DimVector) -> VSeries:
        _check_keys(self.quiver, gamma)
        if not gamma <= self.bound:
            raise BoundExceededError(f"{gamma} exceeds the support bound {self.bound}")
        return _cut(self.terms.get(gamma), self.v_max)

    def _check(self, other: QuantumElement) -> None:
        if self.quiver != other.quiver:
            raise TruncationMismatchError("elements over different quivers")
        if self.bound != other.bound or self.v_max != other.v_max:
            raise TruncationMismatchError(
                f"truncation data differ: bound {self.bound} vs {other.bound}, "
                f"v_max {self.v_max} vs {other.v_max}"
            )

    def __add__(self, other: QuantumElement) -> QuantumElement:
        self._check(other)
        terms = dict(self.terms)
        for g, c in other.terms.items():
            s = terms.get(g)
            terms[g] = c if s is None else s + c
        return _element(self.quiver, self.bound, self.v_max, terms)

    def __mul__(self, other: QuantumElement) -> QuantumElement:
        return qt_multiply(self, other)

    def support(self) -> list[DimVector]:
        return sorted(self.terms, key=lambda g: (g.height, g.values))


def _cut(s: VSeries | None, v_max: int) -> VSeries:
    """s truncated at v_max, zero when s is None."""
    return VSeries(v_max) if s is None else VSeries(v_max, s.min_exp, s.coeffs)


def _element(
    q: Quiver, bound: DimVector, v_max: int, terms: dict[DimVector, VSeries]
) -> QuantumElement:
    live = {g: s for g, s in terms.items() if not s.is_zero}
    return QuantumElement(q, bound, v_max, live)


def identity(q: Quiver, bound: DimVector, v_max: int) -> QuantumElement:
    return monomial(q, q.zero(), 1, bound, v_max)


def monomial(
    q: Quiver, gamma: DimVector, coeff: VSeries | int, bound: DimVector, v_max: int
) -> QuantumElement:
    """The element coeff * y_gamma.

    The coefficient is taken as an exact Laurent polynomial; it may be
    given at any truncation order up to the working cutoff.
    """
    _check_keys(q, gamma)
    _check_keys(q, bound)
    work = working_v_max(q, bound, v_max)
    if isinstance(coeff, int):
        coeff = VSeries.monomial(work, coeff, 0)
    elif coeff.v_max > work:
        raise TruncationMismatchError(
            f"coefficient truncated at {coeff.v_max}, working cutoff is {work}"
        )
    else:
        coeff = VSeries(work, coeff.min_exp, coeff.coeffs)
    if not gamma <= bound:
        raise BoundExceededError(f"{gamma} exceeds the support bound {bound}")
    return _element(q, bound, v_max, {gamma: coeff})


@lru_cache(maxsize=64)
def _box_index(vertices: tuple[str, ...], bound: tuple[int, ...]) -> tuple:
    """Digit places of the mixed-radix box index, its offset and guard masks,
    and the table from index to DimVector that decoded targets fill.

    Coordinate i takes k + 1 bits at its place, k = bound[i].bit_length();
    the offset fills digit i up to 2^k - 1 when it holds bound[i], so the
    sum of two in-box indices plus the offset sets digit i's guard bit
    (bit k) exactly when that coordinate of the sum exceeds bound[i].
    """
    places, off, guard, at = [], 0, 0, 0
    for b in bound:
        k = b.bit_length()
        places.append(at)
        off |= ((1 << k) - 1 - b) << at
        guard |= 1 << (at + k)
        at += k + 1
    return places, off, guard, {}


def qt_multiply(x: QuantumElement, y: QuantumElement) -> QuantumElement:
    """Product in the quantum algebra, truncated by bound and v_max.

    Basis products use the signed rule with the skew form; any summand
    whose dimension vector leaves the bound is dropped.
    """
    x._check(y)
    work = working_v_max(x.quiver, x.bound, x.v_max)
    width = product_width(x.terms.values(), y.terms.values())
    out = {}
    for g, held in _contributions(x, y, width):
        s = target_series(held, work, width)
        if s.coeffs:  # products that cancel leave no term
            out[g] = s
    return QuantumElement(x.quiver, x.bound, x.v_max, out)


def _contributions(x: QuantumElement, y: QuantumElement, width: int) -> list:
    """The pair loop of x * y: (gamma, what reached y_gamma) for every target
    within the bound that a term pair reaches.

    What reached a target is the series a unit y_0 term hands through, a
    lone product (a, b, shift, sign), or the PackedSum at 2^width of two or
    more contributions.  width must hold every digit (see product_width).
    """
    q = x.quiver
    bound = x.bound.values
    work = working_v_max(q, x.bound, x.v_max)
    places, off, guard, keys = _box_index(q.vertices, bound)
    one = VSeries.one(work)

    def terms(el: QuantumElement) -> list:
        out = []
        for g, c in el.terms.items():
            i = sum(map(lshift, g.values, places))
            out.append((i, g, c, not i and c == one))
        return out

    xs = terms(x)
    ys = []
    for i, g, c, unit in terms(y):
        row = [0] * q.n  # skew(u, w) = sum of u[i] * row[i]
        for t, h in q._arrow_pairs:
            row[t] += g.values[h]
            row[h] -= g.values[t]
        ys.append((i, g, c, unit, row))
    # target index -> what reached it alone: a (key, series) passed through or a
    # (series, series, shift, sign) product; or the PackedSum of two or more
    acc: dict[int, tuple | PackedSum] = {}
    for iu, g1, c1, unit1 in xs:
        u, reach = g1.values, iu + off
        for iw, g2, c2, unit2, row in ys:
            if (reach + iw) & guard:
                continue
            t = iu + iw
            if unit1 or unit2:
                term = (g2, c2) if unit1 else (g1, c1)
            elif iu and iw:
                term = (c1, c2, sum(map(mul, u, row)), -1)
            else:
                term = (c1, c2, 0, 1)
            held = acc.get(t)
            if held is None:
                acc[t] = term
                continue
            if type(held) is tuple:
                target = acc[t] = PackedSum(width)
                _add_term(target, held, work)
            else:
                target = held
            _add_term(target, term, work)
    out = []
    for t, held in acc.items():
        if type(held) is tuple and len(held) == 2:  # keeps the operand's key
            out.append(held)
            continue
        g = keys.get(t)
        if g is None:
            values = tuple(t >> at & (1 << b.bit_length()) - 1 for at, b in zip(places, bound))
            g = keys[t] = DimVector(q.vertices, values)
        out.append((g, held))
    return out


def _add_term(acc: PackedSum, term: tuple, work: int) -> None:
    """Add one contribution of a pair to a target's PackedSum."""
    if len(term) == 2:
        acc.put(term[1])
    else:
        convolve_into(acc, *term, work)


def _mismatches(x: QuantumElement, y: QuantumElement, reference: QuantumElement,
                v_max: int) -> list[tuple[DimVector, VSeries, VSeries]]:
    """(gamma, reference side, product side) for every gamma within the bound
    where reference and x * y differ up to v_max, by height then values.

    x * y is not built: each target is compared with the reference's series
    by series.target_agrees, and only a target that differs is unpacked.
    """
    ref = reference.terms
    work = working_v_max(x.quiver, x.bound, v_max)
    width = compare_width(x.terms.values(), y.terms.values(), ref.values())
    targets = _contributions(x, y, width)
    differ, reached = [], 0
    for g, held in targets:
        r = ref.get(g)
        reached += r is not None
        if not target_agrees(held, r, width, v_max):
            differ.append((g, _cut(r, v_max), _cut(target_series(held, work, width), v_max)))
    if reached < len(ref):  # the product is zero at a gamma it never reaches
        for g in ref.keys() - {g for g, _ in targets}:
            r = _cut(ref[g], v_max)
            if r:
                differ.append((g, r, VSeries(v_max)))
    return sorted(differ, key=lambda d: (d[0].height, d[0].values))


@lru_cache(maxsize=1024)
def dilog(q: Quiver, gamma: DimVector, bound: DimVector, v_max: int) -> QuantumElement:
    """Quantum dilogarithm of y_gamma: sum over k of (-y_gamma)^k q^(k^2/2) P_k.

    By the power rule y_gamma^k = (-1)^(k-1) y_(k*gamma) the k-th term is
    -v^(k^2) P_k y_(k*gamma), written down directly; the sum terminates
    once k * gamma leaves the bound, so the result is a finite exact element.
    Equal arguments get the same element, whose series keep their memos
    (see series) from one product chain to the next.
    """
    _check_keys(q, gamma)
    _check_keys(q, bound)
    if gamma.is_zero:
        raise InvalidInputError("dilogarithm of the zero dimension vector")
    work = working_v_max(q, bound, v_max)
    terms = {q.zero(): VSeries.one(work)}
    k = 1
    while k * gamma <= bound:
        terms[k * gamma] = -poincare_series(k, work).shift(k * k)
        k += 1
    return _element(q, bound, v_max, terms)


def _chain(q: Quiver, roots: list[DimVector], bound: DimVector, v_max: int) -> QuantumElement:
    """Product of the dilogarithms of roots, left to right, from the first one's."""
    if not roots:
        return identity(q, bound, v_max)
    out = dilog(q, roots[0], bound, v_max)
    for root in roots[1:]:
        out = qt_multiply(out, dilog(q, root, bound, v_max))
    return out


def trivial_dt(q: Quiver, bound: DimVector, v_max: int) -> QuantumElement:
    """Product of the simple-root dilogarithms in topological vertex order.

    This is the combinatorial DT invariant of the quiver, truncated; it is
    the reference side of every factorization identity here.
    """
    return _chain(q, [q.unit(v) for v in topological_vertex_order(q)], bound, v_max)


def factorization_product(
    q: Quiver, order: RootOrder, bound: DimVector, v_max: int
) -> QuantumElement:
    """Product of root dilogarithms along a root order.

    The order is validated against its partition's pairing rules first.
    Each maximal run of one block's roots is multiplied out on its own, and
    the run products are joined left to right.  Blocks have disjoint
    supports, so joining a block's product onto other blocks' keeps every
    term pair inside the box and meets each target once; an interleaved
    order just has more runs.  Any bracketing gives the same coefficients
    up to v_max (see the module docstring).
    """
    return qt_multiply(*_last_factors(q, order, bound, v_max))


def _last_factors(
    q: Quiver, order: RootOrder, bound: DimVector, v_max: int
) -> tuple[QuantumElement, QuantumElement]:
    """The product along a root order, but for its last multiplication: the
    run products before the last run, joined, and the last run's; for a
    single run, the product of its dilogarithms before the last one and that
    last dilogarithm.  The order is validated against its partition's
    pairing rules first."""
    verdict = validate_order(q, order.partition, order)
    if not verdict.valid:
        u, v, rule, val = verdict.violation
        raise InvalidOrderError(
            f"order violates the {rule} rule at positions {u},{v} (skew form {val})"
        )
    runs = [[e.root for e in run] for _, run in groupby(order.entries, key=itemgetter(1))]
    if len(runs) > 1:
        head = reduce(qt_multiply, [_chain(q, roots, bound, v_max) for roots in runs[:-1]])
        return head, _chain(q, runs[-1], bound, v_max)
    roots = runs[0] if runs else []
    last = dilog(q, roots[-1], bound, v_max) if roots else identity(q, bound, v_max)
    return _chain(q, roots[:-1], bound, v_max), last


@dataclass(frozen=True)
class VerificationReport:
    """Coefficientwise comparison of the two sides of a factorization.

    mismatches lists (gamma, trivial side, factorized side) for every
    discrepant dimension vector within the bound.
    """

    quiver: Quiver
    partition: SubquiverPartition
    order: RootOrder
    bound: DimVector
    v_max: int
    passed: bool
    mismatches: tuple[tuple[DimVector, VSeries, VSeries], ...]


def verify_factorization(
    q: Quiver,
    p: SubquiverPartition,
    bound: DimVector,
    v_max: int,
    reference: QuantumElement | None = None,
) -> VerificationReport:
    """Compare the partition's dilogarithm product with the trivial one.

    reference lets callers reuse a precomputed trivial product when
    sweeping many partitions of the same quiver.  The product is that of
    factorization_product, but its last multiplication is never built: the
    blocks before the last one are joined (for a one-block partition, its
    dilogarithms before the last one are multiplied), and their product
    times the last factor is compared with the reference target by target
    on the packed series (see the module docstring).  Only a target that
    differs is unpacked, to report its mismatch.
    """
    _check_partition(q, p, bound)
    order = admissible_total_order(q, p)
    if reference is not None:
        if reference.quiver != q:
            raise TruncationMismatchError("elements over different quivers")
        if reference.bound != bound or reference.v_max != v_max:
            raise TruncationMismatchError("reference computed with different truncation")
    lhs = reference if reference is not None else trivial_dt(q, bound, v_max)
    mismatches = _mismatches(*_last_factors(q, order, bound, v_max), lhs, v_max)
    return VerificationReport(
        q, order.partition, order, bound, v_max, not mismatches, tuple(mismatches)
    )
