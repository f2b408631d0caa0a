"""Exact truncated Laurent series in v = q^(1/2).

Coefficients are Python integers; there is no rational or floating
fallback, and any computation that would need one is a bug surfaced as
an error.  A series carries its truncation order v_max and keeps every
exponent up to and including it.  Mixing truncation orders is an error.

Products use Kronecker substitution.  A coefficient run c_0..c_(n-1) is
packed into the one signed integer sum(c_i * 2^(B*i)), so a product of
series is one native bigint multiply, and the signed B-bit digits of the
result are the product's coefficients.  Packing and unpacking go through
array('b'|'h'|'i'|'q') when B is 8, 16, 32 or 64, and through byte slices
for wider B.  The digit width B is chosen per product from a proven bound
on every output coefficient: L1(a) * L1(b) for a * b, where L1 is the sum
of absolute coefficients.  That bound is what keeps every digit from
wrapping.  Unpacking also raises InconsistencyError when the top digit
leaves the width or the digits do not sum to the product's value at v = 1;
this catches most wraps a wrong bound would cause, but not one whose
carries cancel (true digits 200, -257, 57 at B = 8 unpack as -56, 0, 56).
"""
from __future__ import annotations

import sys
from array import array
from dataclasses import dataclass
from functools import lru_cache
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

    def q_coefficient(self, n: int) -> int:
        """Coefficient of q^n, i.e. of v^(2n)."""
        return self.coefficient(2 * n)

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
        if isinstance(other, int):
            return VSeries(self.v_max, self.min_exp, tuple(other * c for c in self.coeffs))
        self._check(other)
        # only coefficients that can reach v^v_max take part
        keep = max(0, self.v_max - self.min_exp - other.min_exp + 1)
        a, b = self.coeffs[:keep], other.coeffs[:keep]
        if not a or not b:
            return VSeries(self.v_max)
        width = _digit_width(_l1(a) * _l1(b))
        product = _pack(a, width) * _pack(b, width)
        digits = _unpack(product, len(a) + len(b) - 1, width, sum(a) * sum(b))
        return VSeries(self.v_max, self.min_exp + other.min_exp, digits)

    def __rmul__(self, other: int) -> VSeries:
        return self.__mul__(other)

    def shift(self, k: int) -> VSeries:
        """Multiply by v^k."""
        return VSeries(self.v_max, self.min_exp + k, self.coeffs)

    def to_pairs(self) -> list[list[int]]:
        """Nonzero [v_exponent, coefficient] pairs; the JSON wire form."""
        return [[e, c] for e, c in self.items()]

    @classmethod
    def from_pairs(cls, v_max: int, pairs) -> VSeries:
        return cls.from_terms(v_max, {int(e): int(c) for e, c in pairs})

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


def _l1(coeffs) -> int:
    return sum(map(abs, coeffs))


def product_width(xs, ys) -> int:
    """Digit width for sums of products a * b with a from xs and b from ys.

    In each sum every a meets at most one b and every b at most one a, so
    each coefficient of a sum is bounded by
    min(sum L1(a) * max L1(b), max L1(a) * sum L1(b)).
    """
    lx = [_l1(s.coeffs) for s in xs] or [0]
    ly = [_l1(s.coeffs) for s in ys] or [0]
    return _digit_width(min(sum(lx) * max(ly), max(lx) * sum(ly)))


class PackedSum:
    """A running sum of shifted series products, packed at 2^width.

    value is the sum evaluated at v = 2^width, offset so that exponent low
    is digit 0; high is the top exponent any product reached, and check is
    the sum's value at v = 1.  Every digit must stay within the bound the
    width was chosen for (see product_width).  Packed operands are memoized
    in packs, keyed by identity; sums of one product may share it.
    """

    __slots__ = ("width", "packs", "low", "high", "value", "check")

    def __init__(self, width: int, packs: dict):
        self.width, self.packs = width, packs
        self.low = self.high = None
        self.value = self.check = 0

    def pack(self, s: VSeries) -> tuple[int, int]:
        """s packed at 2^width, and its value at v = 1."""
        hit = self.packs.get(id(s))
        if hit is None:
            # the series is kept alive with its entry, so its id cannot be reused
            hit = self.packs[id(s)] = (_pack(s.coeffs, self.width), sum(s.coeffs), s)
        return hit[0], hit[1]

    def add(self, low: int, n: int, value: int, check: int) -> None:
        """Add a packed run of n digits, digit 0 at exponent low, whose value at v = 1 is check."""
        if self.low is None:
            self.low = self.high = low
        elif low < self.low:
            self.value <<= self.width * (self.low - low)
            self.low = low
        self.value += value << (self.width * (low - self.low))
        self.high = max(self.high, low + n - 1)
        self.check += check

    def put(self, s: VSeries) -> None:
        """Add s itself, the product 1 * s, without a multiply."""
        value, check = self.pack(s)
        self.add(s.min_exp, len(s.coeffs), value, check)

    def series(self, v_max: int) -> VSeries:
        """The sum, unpacked and truncated at v_max."""
        if self.low is None:
            return VSeries(v_max)
        n = self.high - self.low + 1
        return VSeries(v_max, self.low, _unpack(self.value, n, self.width, self.check))


def convolve_into(acc: PackedSum, a: VSeries, b: VSeries, shift: int, sign: int, v_max: int) -> None:
    """Add sign * v^shift * a * b to acc, unless it lies wholly past v_max.

    The product's part past v_max is carried and cut when acc is unpacked.
    """
    low = a.min_exp + b.min_exp + shift
    if low > v_max or not a.coeffs or not b.coeffs:
        return
    pa, ca = acc.pack(a)
    pb, cb = acc.pack(b)
    acc.add(low, len(a.coeffs) + len(b.coeffs) - 1, sign * pa * pb, sign * ca * cb)


@lru_cache(maxsize=None)
def poincare_series(k: int, v_max: int) -> VSeries:
    """P_k: the inverse of the product of (1 - q^j) for j = 1..k.

    P_0 is 1.  The coefficient of q^n is the number of partitions of n
    into parts of size at most k.  P_k is P_(k-1) divided by 1 - q^k, that
    is c[e] += c[e - 2k] in ascending v exponent e.
    """
    if k < 0:
        raise InvalidInputError(f"negative index {k}")
    if k == 0:
        return VSeries.one(v_max)
    c = list(poincare_series(k - 1, v_max).coeffs)  # starts at v^0
    c += [0] * (v_max + 1 - len(c))
    for e in range(2 * k, v_max + 1):
        c[e] += c[e - 2 * k]
    return VSeries(v_max, 0, tuple(c))
