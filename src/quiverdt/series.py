"""Exact truncated Laurent series in v = q^(1/2).

Coefficients are Python integers; there is no rational or floating
fallback, and any computation that would need one is a bug surfaced as
an error.  A series carries its truncation order v_max and keeps every
exponent up to and including it.  Adding series of different truncation
orders is an error; a product is cut where both factors still determine it.

Products use Kronecker substitution.  A coefficient run c_0..c_(n-1) is
packed into the one signed integer sum(c_i * 2^(B*i)), so a product of
runs is one native bigint multiply, and the signed B-bit digits of the
result are the product's coefficients.  Packing and unpacking go through
array('b'|'h'|'i'|'q') when B is 8, 16, 32 or 64, and through byte slices
for wider B.

Each series is packed as its two exponent-parity halves, coeffs[0::2] and
coeffs[1::2], each a run in q-steps (v^2 = q); a half that is all zero is
not packed.  Two series of one parity each (every series of a dilogarithm
product, see algebra) multiply as one product of half-length runs, which
product() unpacks directly.  Mixed series take at most four half products,
which cost no more than the one full-length multiply they replace, summed
in a PackedSum: one packed sum per exponent parity.  A PackedSum also
sums the several products that meet at one target of a torus product.

The digit width B is chosen per product from a proven bound on every
output coefficient: |c_e| <= sum_i |a_i| |b_(e-i)| <= L1(a) * Linf(b), and
by symmetry Linf(a) * L1(b), where L1 is the sum of absolute coefficients
and Linf the largest one; B holds the smaller.  That bound is what keeps
every digit from wrapping.  Unpacking also raises InconsistencyError when
the top digit leaves the width or the digits do not sum to the product's
value at v = 1; this catches most wraps a wrong bound would cause, but not
one whose carries cancel (true digits 200, -257, 57 at B = 8 unpack as
-56, 0, 56).

A series is immutable, so facts about it are computed once and kept with
it: its _memo holds [L1, Linf, width, halves], the norms filled on first
use and the packed halves for the last digit width it was packed at.  A
dilogarithm chain hands most series through many products unchanged
(see algebra), and each is measured and packed once, not once per product.
A product of one exponent parity is born packed: product() and
PackedSum.series unpack it with both checks, then take its norms from the
digits they kept and its packed half from the product's own value by one
mask (see _born_packed), so a product multiplied again at its width is
never packed.
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass, field
from functools import lru_cache
from itertools import accumulate
from typing import Iterator, Mapping

from .errors import InconsistencyError, InvalidInputError, TruncationMismatchError

_INT = {int}
# typecode of the signed machine word of each width in bits, narrowest first;
# array converts a whole run in C, where byte slices cost a Python call per
# digit.  The packed form is little-endian, so other machines take the
# byte-sliced path
_WORD_CODES = {8 * array(c).itemsize: c for c in "bhiq"} if sys.byteorder == "little" else {}


def _digit_width(bound: int) -> int:
    """Bits per packed digit that hold every integer of absolute value at most bound."""
    need = bound.bit_length() + 1
    return next((w for w in _WORD_CODES if need <= w), -(-need // 8) * 8)


@lru_cache(maxsize=256)
def _bias(width: int, n: int) -> int:
    """2^(width-1) in each of n digits: adding it makes every signed digit non-negative."""
    return int.from_bytes((bytes(width // 8 - 1) + b"\x80") * n, "little")


def _pack(coeffs, width: int) -> int:
    """sum(c_i * 2^(width*i)); each c_i must fit a signed width-bit digit."""
    code, size = _WORD_CODES.get(width), width // 8
    try:
        raw = (array(code, coeffs).tobytes() if code else
               b"".join(c.to_bytes(size, "little", signed=True) for c in coeffs))
    except OverflowError:
        raise InconsistencyError(f"series coefficient overflows its {width}-bit digit") from None
    # raw holds two's complement digits; flipping each top bit gives the biased ones
    bias = _bias(width, len(coeffs))
    return (int.from_bytes(raw, "little") ^ bias) - bias


def _unpack(value: int, n: int, width: int, check: int) -> tuple[int, ...]:
    """The n signed width-bit digits of value, whose sum must equal check."""
    bias, code, size = _bias(width, n), _WORD_CODES.get(width), width // 8
    try:
        raw = ((value + bias) ^ bias).to_bytes(n * size, "little")
    except OverflowError:
        raise InconsistencyError(f"packed product overflows {n} digits of {width} bits") from None
    digits = tuple(array(code, raw) if code else
                   (int.from_bytes(raw[i:i + size], "little", signed=True)
                    for i in range(0, len(raw), size)))
    if sum(digits) != check:
        raise InconsistencyError(f"packed product overflowed its {width}-bit digits")
    return digits


def _trim(v_max: int, min_exp: int, coeffs: tuple[int, ...]) -> tuple[int, tuple[int, ...]]:
    """The run coeffs starting at v^min_exp, cut at v_max and stripped of
    zeros at both ends: the canonical (min_exp, coeffs) VSeries keeps."""
    start, end = 0, min(len(coeffs), max(0, v_max - min_exp + 1))
    while start < end and not coeffs[start]:
        start += 1
    while end > start and not coeffs[end - 1]:
        end -= 1
    return (min_exp + start, coeffs[start:end]) if start < end else (0, ())


@dataclass(frozen=True)
class VSeries:
    """Integer Laurent polynomial in v, exact below the cutoff v_max.

    Stored as a coefficient run starting at min_exp; the representation is
    canonical (no leading or trailing zeros), so equality is structural.
    """

    v_max: int
    min_exp: int = 0
    coeffs: tuple[int, ...] = ()
    # [L1, Linf, width, halves at width] once measured (see _measure and _packed)
    _memo: list | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        coeffs = tuple(self.coeffs)
        if not set(map(type, coeffs)) <= _INT:
            for c in coeffs:
                if not isinstance(c, int) or isinstance(c, bool):
                    raise InvalidInputError(f"series coefficients must be integers, got {c!r}")
            coeffs = tuple(map(int, coeffs))
        min_exp, coeffs = _trim(self.v_max, self.min_exp, coeffs)
        object.__setattr__(self, "min_exp", min_exp)
        object.__setattr__(self, "coeffs", coeffs)

    @classmethod
    def _canonical(cls, v_max: int, min_exp: int, coeffs: tuple[int, ...],
                   memo: list | None = None) -> VSeries:
        """The series of a run that is already canonical: a tuple of ints,
        cut at v_max and with no zero at either end (as _trim returns it),
        with its memo if the caller already knows it.

        Internal: it skips the checks and the trim of __post_init__.
        """
        s = object.__new__(cls)
        s.__dict__.update(v_max=v_max, min_exp=min_exp, coeffs=coeffs, _memo=memo)
        return s

    @classmethod
    def zero(cls, v_max: int) -> VSeries:
        return cls(v_max)

    @classmethod
    def one(cls, v_max: int) -> VSeries:
        return cls(v_max, 0, (1,))

    @classmethod
    def monomial(cls, v_max: int, coeff: int, exp: int) -> VSeries:
        return cls(v_max, exp, (coeff,))

    @classmethod
    def from_terms(cls, v_max: int, terms: Mapping[int, int]) -> VSeries:
        live = {e: c for e, c in terms.items() if c and e <= v_max}
        if not live:
            return cls(v_max)
        lo, hi = min(live), max(live)
        return cls(v_max, lo, tuple(live.get(e, 0) for e in range(lo, hi + 1)))

    def items(self) -> Iterator[tuple[int, int]]:
        """Nonzero (exponent, coefficient) pairs, ascending."""
        for i, c in enumerate(self.coeffs):
            if c:
                yield self.min_exp + i, c

    def coefficient(self, v_exp: int) -> int:
        if v_exp > self.v_max:
            raise InvalidInputError(f"exponent {v_exp} beyond truncation order {self.v_max}")
        i = v_exp - self.min_exp
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def _check(self, other: VSeries) -> None:
        if self.v_max != other.v_max:
            raise TruncationMismatchError(
                f"truncation orders differ: {self.v_max} vs {other.v_max}"
            )

    def __add__(self, other: VSeries) -> VSeries:
        self._check(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        lo = min(self.min_exp, other.min_exp)
        hi = max(self.min_exp + len(self.coeffs), other.min_exp + len(other.coeffs))
        out = [0] * (hi - lo)
        for i, c in enumerate(self.coeffs):
            out[self.min_exp - lo + i] += c
        for i, c in enumerate(other.coeffs):
            out[other.min_exp - lo + i] += c
        return VSeries(self.v_max, lo, tuple(out))

    def __neg__(self) -> VSeries:
        return VSeries(self.v_max, self.min_exp, tuple(-c for c in self.coeffs))

    def __sub__(self, other: VSeries) -> VSeries:
        return self + (-other)

    def __mul__(self, other: VSeries | int) -> VSeries:
        """The product, returned at its true precision: each factor may stand
        for a longer series cut at its v_max, whose missing terms reach the
        product from v_max + the other's min_exp on.  So the product is cut at
        min(self.v_max + min(0, other.min_exp), other.v_max + min(0, self.min_exp)),
        v_max + min(0, self.min_exp, other.min_exp) for one v_max, and never
        claims a coefficient it cannot know.
        """
        if isinstance(other, int):
            return VSeries(self.v_max, self.min_exp, tuple(other * c for c in self.coeffs))
        v_max = min(self.v_max + min(0, other.min_exp), other.v_max + min(0, self.min_exp))
        return product(self, other, 0, 1, v_max, product_width([self], [other]))

    def __rmul__(self, other: int) -> VSeries:
        return self.__mul__(other)

    def shift(self, k: int) -> VSeries:
        """Multiply by v^k."""
        return VSeries(self.v_max, self.min_exp + k, self.coeffs)

    def to_pairs(self) -> list[list[int]]:
        """Nonzero [v_exponent, coefficient] pairs; the JSON wire form."""
        return [[e, c] for e, c in self.items()]

    def __str__(self) -> str:
        """Render as a q-power sum, lowest exponent first."""
        if self.is_zero:
            return "0"
        parts: list[str] = []
        for e, c in self.items():
            mag = abs(c)
            if e == 0:
                body = str(mag)
            else:
                if e == 2:
                    power = "q"
                elif e % 2 == 0:
                    power = f"q^{e // 2}"
                else:
                    power = f"q^({e}/2)"
                body = power if mag == 1 else f"{mag}*{power}"
            if not parts:
                parts.append(body if c > 0 else f"-{body}")
            else:
                parts.append(("+ " if c > 0 else "- ") + body)
        return " ".join(parts)


def _measure(s: VSeries) -> list:
    """s's memo, created with its norms L1 and Linf when s has none yet."""
    mags = list(map(abs, s.coeffs))
    memo = [sum(mags), max(mags, default=0), 0, ()]
    object.__setattr__(s, "_memo", memo)
    return memo


def product_width(xs, ys) -> int:
    """Digit width for sums of series products a * b, a from xs and b from ys.

    In each sum every a meets at most one b and every b at most one a, so
    each coefficient of a sum is bounded by
    min(sum L1(a) * max Linf(b), max Linf(a) * sum L1(b)).  Each series'
    (L1, Linf) come from its memo.
    """
    nx = [s._memo or _measure(s) for s in xs]
    ny = [s._memo or _measure(s) for s in ys]
    return _digit_width(min(sum(m[0] for m in nx) * max((m[1] for m in ny), default=0),
                            max((m[1] for m in nx), default=0) * sum(m[0] for m in ny)))


def _halves(coeffs, width: int) -> tuple[tuple[int, int, int, int], ...]:
    """The non-zero exponent-parity halves of a coefficient run, packed in q-steps.

    Each is (offset of its first exponent in the run, packed value, digit
    count, value at v = 1).
    """
    out = []
    for k in (0, 1):
        half = coeffs[k::2]
        if any(half):
            out.append((k, _pack(half, width), len(half), sum(half)))
    return tuple(out)


def _packed(s: VSeries, width: int) -> tuple[tuple[int, int, int, int], ...]:
    """The parity halves of s packed at 2^width (see _halves), kept in s's
    memo until s is packed at another width.  Every series is packed here."""
    memo = s._memo or _measure(s)
    if memo[2] != width:
        memo[3], memo[2] = _halves(s.coeffs, width), width
    return memo[3]


class PackedSum:
    """A running sum of shifted series products, packed at 2^width per exponent parity.

    classes[k] holds the terms of exponents of parity k, packed in q-steps,
    as [low, high, value, check]: digit 0 is exponent low, high is the top
    exponent any product reached, value is the packed sum and check its
    value at v = 1.  Every digit must stay within the bound the width was
    chosen for (see product_width).
    """

    __slots__ = ("width", "classes")

    def __init__(self, width: int):
        self.width = width
        self.classes: list = [None, None]

    def add(self, low: int, n: int, value: int, check: int) -> None:
        """Add a packed run of n digits in q-steps, digit 0 at exponent low,
        whose value at v = 1 is check."""
        k = low & 1
        held = self.classes[k]
        if held is None:
            self.classes[k] = [low, low + 2 * n - 2, value, check]
            return
        lo, high, total, sum1 = held
        if low < lo:
            total <<= self.width * ((lo - low) >> 1)
            lo = low
        total += value << (self.width * ((low - lo) >> 1))
        self.classes[k] = [lo, max(high, low + 2 * n - 2), total, sum1 + check]

    def put(self, s: VSeries) -> None:
        """Add s itself, the product 1 * s, without a multiply."""
        for k, value, n, check in _packed(s, self.width):
            self.add(s.min_exp + k, n, value, check)

    def series(self, v_max: int) -> VSeries:
        """The sum, unpacked and truncated at v_max; born packed at the sum's
        width when one parity class is live."""
        live = list(filter(None, self.classes))
        runs = []
        for low, high, value, check in live:
            digits = _unpack(value, (high - low) // 2 + 1, self.width, check)
            if len(live) == 1:
                return _born_packed(v_max, low, digits, value, self.width)
            if low <= v_max:  # digits past v_max are unpacked for the checks, then cut
                runs.append((low, digits[:(v_max - low) // 2 + 1]))
        if not runs:
            return VSeries._canonical(v_max, 0, ())
        low = min(lo for lo, _ in runs)
        out = [0] * (max(lo + 2 * len(d) for lo, d in runs) - 1 - low)
        for lo, digits in runs:
            out[lo - low:lo - low + 2 * len(digits) - 1:2] = digits
        return VSeries._canonical(v_max, *_trim(v_max, low, tuple(out)))


def product(a: VSeries, b: VSeries, shift: int, sign: int, v_max: int, width: int) -> VSeries:
    """sign * v^shift * a * b cut at v_max, multiplied at 2^width per digit.

    When a and b each have one exponent parity, their two packed halves
    (from their memos) make one bigint product, unpacked once with the sum
    check of _unpack; no PackedSum is built.  Otherwise the up to four half
    products are summed in one PackedSum.  As in PackedSum.series, digits
    past v_max are unpacked for the checks and then cut, and a result of one
    parity is born packed at width.
    """
    low = a.min_exp + b.min_exp + shift
    if low > v_max or not a.coeffs or not b.coeffs:
        return VSeries._canonical(v_max, 0, ())
    xs, ys = _packed(a, width), _packed(b, width)
    if len(xs) > 1 or len(ys) > 1:
        acc = PackedSum(width)
        convolve_into(acc, a, b, shift, sign, v_max)
        return acc.series(v_max)
    # a single-parity canonical run is its even half
    (_, pa, na, ca), = xs
    (_, pb, nb, cb), = ys
    value = sign * pa * pb
    return _born_packed(v_max, low, _unpack(value, na + nb - 1, width, sign * ca * cb),
                        value, width)


def _born_packed(v_max: int, low: int, digits: tuple[int, ...], value: int, width: int) -> VSeries:
    """The series of one parity class, digit i of value at v^(low + 2i), cut at
    v_max, born with its memo at width: norms and packed half, no re-pack.

    digits must be what _unpack returned for value, so each digit d_i fits a
    signed width-bit digit.  Then value + _bias(width, n) holds the digit
    d_i + 2^(width-1), in [0, 2^width), at each place, so no place carries
    into the next; masking it to its low width * e bits keeps digits 0..e-1
    exactly, and subtracting _bias(width, e) leaves sum over i < e of
    d_i * 2^(width*i), the packed value of digits[:e].  When digits 0..s-1
    are zero that value is a multiple of 2^(width*s), so shifting it right
    by width * s packs digits[s:e] exactly.
    """
    end = max(0, min(len(digits), (v_max - low) // 2 + 1))  # digits past v_max are cut
    start = 0
    while start < end and not digits[start]:
        start += 1
    while end > start and not digits[end - 1]:
        end -= 1
    if start == end:
        return VSeries._canonical(v_max, 0, ())
    run = digits[start:end]
    if start or end < len(digits):
        value = (((value + _bias(width, len(digits))) & ((1 << width * end) - 1))
                 - _bias(width, end)) >> width * start
    out = [0] * (2 * len(run) - 1)
    out[::2] = run
    mags = list(map(abs, run))
    return VSeries._canonical(v_max, low + 2 * start, tuple(out),
                              [sum(mags), max(mags), width, ((0, value, len(run), sum(run)),)])


def convolve_into(acc: PackedSum, a: VSeries, b: VSeries, shift: int, sign: int, v_max: int) -> None:
    """Add sign * v^shift * a * b to acc, unless it lies wholly past v_max.

    The product's part past v_max is carried and cut when acc is unpacked.
    """
    low = a.min_exp + b.min_exp + shift
    if low > v_max or not a.coeffs or not b.coeffs:
        return
    for ka, pa, na, ca in _packed(a, acc.width):
        for kb, pb, nb, cb in _packed(b, acc.width):
            acc.add(low + ka + kb, na + nb - 1, sign * pa * pb, sign * ca * cb)


def _divide(s: VSeries, js) -> VSeries:
    """s / prod (1 - q^j) over js, for s in whole powers of q.

    Dividing by 1 - q^j is c[i] += c[i - j] in ascending order over the
    run c of q-coefficients, that is one running sum over each residue
    class mod j: exact integer additions with no digit width to outgrow.
    The run is extended to v_max first, since the quotient is a series.
    """
    if s.min_exp % 2 or any(s.coeffs[1::2]):
        raise InconsistencyError(f"series from v^{s.min_exp} has odd v exponents; "
                                 "only a q-series divides by 1 - q^j")
    if not s.coeffs:
        return s
    c = list(s.coeffs[::2])
    c += [0] * ((s.v_max - s.min_exp) // 2 + 1 - len(c))
    for j in js:
        for r in range(min(j, len(c) - j)):  # classes of one term stay as they are
            c[r::j] = accumulate(c[r::j])
    out = [0] * (2 * len(c) - 1)
    out[::2] = c
    return VSeries._canonical(s.v_max, *_trim(s.v_max, s.min_exp, tuple(out)))


def times_poincare(s: VSeries, k: int) -> VSeries:
    """s * P_k, that is s divided by (1 - q)(1 - q^2)...(1 - q^k), for s in
    whole powers of q; any other s raises InconsistencyError."""
    if k < 0:
        raise InvalidInputError(f"negative index {k}")
    return _divide(s, range(1, k + 1))


@lru_cache(maxsize=None)
def poincare_series(k: int, v_max: int) -> VSeries:
    """P_k: the inverse of the product of (1 - q^j) for j = 1..k.

    P_0 is 1.  The coefficient of q^n is the number of partitions of n
    into parts of size at most k.  P_k is P_(k-1) divided by 1 - q^k.
    """
    if k < 0:
        raise InvalidInputError(f"negative index {k}")
    if k == 0:
        return VSeries.one(v_max)
    return _divide(poincare_series(k - 1, v_max), (k,))
