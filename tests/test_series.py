"""Truncated Laurent series in v with exact integer coefficients."""
from __future__ import annotations

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from quiverdt import VSeries, poincare_series
from quiverdt.series import times_poincare
from quiverdt import series as series_mod
from quiverdt.errors import InconsistencyError, InvalidInputError

pair_dicts = st.dictionaries(st.integers(-6, 12), st.integers(-9, 9), max_size=6)
# coefficients from one digit width to past 64 bits, so every packing path runs
wide_coeffs = st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40),
                        st.integers(-(2**200), 2**200))
wide_dicts = st.dictionaries(st.integers(-12, 14), wide_coeffs, max_size=8)


def series(terms, v_max=24):
    return VSeries.from_terms(v_max, terms)


def kernel_product(a, b, v_max):
    """a * b as exact polynomials, cut at v_max: one packed sum, one convolve."""
    acc = series_mod.PackedSum(series_mod.product_width([a], [b]))
    series_mod.convolve_into(acc, a, b, 0, 1, v_max)
    return acc.series(v_max)


def test_canonical_strips_zero_margins():
    s = VSeries(10, 2, (0, 0, 3, 0, 1, 0))
    assert s.min_exp == 4 and s.coeffs == (3, 0, 1)


def test_canonical_truncates_past_v_max():
    s = VSeries(4, 3, (1, 1, 1))
    assert s.coeffs == (1, 1)
    assert s.coefficient(4) == 1


def test_zero_and_one():
    assert VSeries.zero(8).is_zero
    assert VSeries.one(8).coefficient(0) == 1
    assert VSeries.one(8) == VSeries.monomial(8, 1, 0)


def test_defining_identity_one_minus_q_times_p1():
    one_minus_q = series({0: 1, 2: -1})
    assert one_minus_q * poincare_series(1, 24) == VSeries.one(24)


def test_defining_identity_up_to_k8():
    """P_k times prod_(j<=k) (1 - q^j) telescopes to 1."""
    for k in range(1, 9):
        prod = poincare_series(k, 40)
        for j in range(1, k + 1):
            prod = prod * VSeries.from_terms(40, {0: 1, 2 * j: -1})
        assert prod == VSeries.one(40)


@given(a=pair_dicts, b=pair_dicts, c=pair_dicts)
@settings(max_examples=120)
def test_mul_commutative_associative(a, b, c):
    sa, sb, sc = series(a), series(b), series(c)
    assert sa * sb == sb * sa
    assert (sa * sb) * sc == sa * (sb * sc)


@given(a=wide_dicts, b=wide_dicts, v_max=st.integers(-10, 28))
@settings(max_examples=300)
def test_mul_matches_naive_convolution(a, b, v_max):
    """The packed kernel keeps every product term up to v_max; the product
    keeps them up to its precision, lowered by a negative min_exp."""
    a = {e: c for e, c in a.items() if e <= v_max}
    b = {e: c for e, c in b.items() if e <= v_max}
    sa, sb = series(a, v_max), series(b, v_max)
    want = [(e, c) for e, c in oracles.naive_poly_mul(list(a.items()), list(b.items()))
            if e <= v_max]
    assert list(kernel_product(sa, sb, v_max).items()) == want
    got = sa * sb
    assert got.v_max == v_max + min(0, sa.min_exp, sb.min_exp)
    assert list(got.items()) == [(e, c) for e, c in want if e <= got.v_max]


@given(coeffs=st.lists(wide_coeffs | st.just(0), max_size=12), min_exp=st.integers(-12, 14),
       v_max=st.integers(-10, 28))
@settings(max_examples=300)
def test_canonical_constructor_matches_the_validated_one(coeffs, min_exp, v_max):
    want = VSeries(v_max, min_exp, coeffs)
    got = VSeries._canonical(v_max, *series_mod._trim(v_max, min_exp, tuple(coeffs)))
    assert (got.v_max, got.min_exp, got.coeffs) == (want.v_max, want.min_exp, want.coeffs)
    assert got == want and hash(got) == hash(want) and repr(got) == repr(want)
    assert got._memo is None


def test_memo_keeps_norms_and_halves_at_the_last_width():
    s = series({0: 3, 2: -5, 3: 1})
    assert s._memo is None
    assert series_mod.product_width([s], [s]) == 8  # min(9 * 5, 5 * 9) = 45
    assert s._memo[:2] == [9, 5]
    halves = series_mod._packed(s, 8)
    assert series_mod._packed(s, 8) is halves and s._memo[2:] == [8, halves]
    assert series_mod._packed(s, 16) == series_mod._halves(s.coeffs, 16) and s._memo[2] == 16
    assert s == series({0: 3, 2: -5, 3: 1}) and "_memo" not in repr(s)


def test_packed_mul_keeps_the_term_exactly_at_v_max():
    a = series({-3: 2**200, 5: -1}, v_max=7)
    b = series({-4: 3, 2: 1, 3: 4, 7: -(2**70)}, v_max=7)
    got = kernel_product(a, b, 7)
    assert got.to_pairs() == [[-7, 3 * 2**200], [-1, 2**200], [0, 4 * 2**200], [1, -3],
                              [4, -(2**270)], [7, -1]]
    # a's terms past v^7 would reach the product from v^(7 - 4) on
    assert a * b == VSeries(3, got.min_exp, got.coeffs)


@pytest.mark.parametrize("width", [8, 16, 32, 64, 72, 200])
@pytest.mark.parametrize("path", ["array", "bytes"])
def test_pack_unpack_roundtrip(width, path, monkeypatch):
    if path == "bytes":  # the path a big-endian machine takes at every width
        monkeypatch.setattr(series_mod, "_WORD_CODES", {})
    top = 2 ** (width - 1)
    coeffs = (top - 1, -top, 0, 1, -1, top // 3, -(top // 5))
    packed = series_mod._pack(coeffs, width)
    assert packed == sum(c << (width * i) for i, c in enumerate(coeffs))
    assert series_mod._unpack(packed, len(coeffs), width, sum(coeffs)) == coeffs


# runs from one digit width to past 64 bits, and widths from 8 to 200 bits
q_runs = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40),
                            st.integers(-(2**90), 2**90)), max_size=7)
widths = st.sampled_from(range(8, 201, 8))


def born_memo_is_fresh(s, width):
    """s's memo is what measuring s afresh and packing it at width gives; a
    zero series may also have none."""
    fresh = VSeries._canonical(s.v_max, s.min_exp, s.coeffs)
    series_mod._packed(fresh, width)
    return s._memo == fresh._memo or (not s.coeffs and s._memo is None)


@pytest.mark.parametrize("path", ["array", "bytes"])
@given(a=q_runs, b=q_runs, ea=st.integers(-6, 6), eb=st.integers(-6, 6),
       shift=st.integers(-6, 6), sign=st.sampled_from((1, -1)), v_max=st.integers(-20, 30),
       width=widths)
@settings(max_examples=150)
def test_single_parity_products_are_born_packed(path, a, b, ea, eb, shift, sign, v_max, width):
    """series.product of two one-parity series is the exact product cut at
    v_max, born with the memo packing it afresh at its width would give."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "bytes":
            mp.setattr(series_mod, "_WORD_CODES", {})
        sa, sb = oracles.q_series(40, ea, a), oracles.q_series(40, eb, b)
        width = max(width, series_mod.product_width([sa], [sb]))
        got = series_mod.product(sa, sb, shift, sign, v_max, width)
        pairs = oracles.naive_poly_mul(sa.to_pairs(), sb.to_pairs())
        want = {e + shift: sign * c for e, c in pairs}
        assert got == VSeries.from_terms(v_max, want)
        assert born_memo_is_fresh(got, width)


@pytest.mark.parametrize("path", ["array", "bytes"])
@given(lead=st.integers(0, 3), middle=q_runs, trail=st.integers(0, 3),
       split=st.lists(st.integers(-(2**40), 2**40), min_size=13, max_size=13),
       low=st.integers(-7, 7), cut=st.integers(-4, 28), width=widths)
@settings(max_examples=150)
@example(lead=2, middle=[3, 0, -1], trail=2, split=[5] * 13, low=1, cut=6, width=8)
@example(lead=1, middle=[], trail=1, split=[1] * 13, low=0, cut=9, width=8)
def test_packed_sum_of_one_parity_is_born_packed(path, lead, middle, trail, split, low, cut,
                                                 width):
    """Two runs of one parity whose sum cancels at either end or altogether,
    cut anywhere from before the first digit to past the last: PackedSum.series
    is their exact sum, born with the memo packing it afresh would give."""
    with pytest.MonkeyPatch.context() as mp:
        if path == "bytes":
            mp.setattr(series_mod, "_WORD_CODES", {})
        total = [0] * lead + middle + [0] * trail
        assume(total)
        first = split[:len(total)]
        second = [t - f for t, f in zip(total, first)]
        width = max(width, series_mod._digit_width(max(map(abs, total + first + second))))
        acc = series_mod.PackedSum(width)
        for run in (first, second):
            acc.add(low, len(run), series_mod._pack(run, width), sum(run))
        got = acc.series(low + cut)
        assert got == VSeries.from_terms(low + cut, {low + 2 * i: c for i, c in enumerate(total)})
        assert born_memo_is_fresh(got, width)


def test_digit_width_holds_the_bound():
    assert series_mod._digit_width(127) == 8
    assert series_mod._digit_width(128) == 16
    assert series_mod._digit_width(2**63 - 1) == 64
    assert series_mod._digit_width(2**63) == 72
    for bound in (0, 1, 5, 2**31, 2**100 + 7):
        width = series_mod._digit_width(bound)
        assert width % 8 == 0 and bound < 2 ** (width - 1)


def test_forced_width_overflow_raises(monkeypatch):
    monkeypatch.setattr(series_mod, "_digit_width", lambda bound: 8)
    a = series({0: 100, 1: 100, 2: 100})
    with pytest.raises(InconsistencyError):  # the top digit overflows
        a * a
    with pytest.raises(InconsistencyError):  # v^1 is 9999; its carry leaves the top digit in range
        series({0: 1, 1: 100}) * series({0: 100, 1: -1})
    with pytest.raises(InconsistencyError):  # an operand that does not fit its digit
        series({0: 300}) * series({0: 1})


@pytest.mark.parametrize("width", sorted(oracles.TIGHT_WIDTH_OPERANDS))
@pytest.mark.parametrize("step", [1, 2])  # exponents in v-steps (both parities) or q-steps
def test_width_is_min_of_l1_times_linf(width, step):
    a, b = oracles.TIGHT_WIDTH_OPERANDS[width]
    sa = series({step * i: c for i, c in enumerate(a)}, v_max=2000)
    sb = series({step * i + 3: c for i, c in enumerate(b)}, v_max=2000)
    assert series_mod.product_width([sa], [sb]) == series_mod.product_width([sb], [sa]) == width
    got = sa * sb
    assert max(got.coeffs) == 2 ** (width - 1) - 1
    assert list(got.items()) == oracles.naive_poly_mul(list(sa.items()), list(sb.items()))


def test_product_width_sums_l1_against_the_other_side_linf():
    ones, sixes = series({e: 1 for e in range(10)}), series({0: 6, 1: 6})
    xs, ys = [ones, ones], [sixes, sixes]
    # min(20 * 6, 1 * 24) = 24; L1 * L1 would give min(20 * 12, 10 * 24) = 240
    assert series_mod.product_width(xs, ys) == series_mod.product_width(ys, xs) == 8


def test_mixed_parity_product_matches_naive_convolution():
    even, odd = series({0: 5, 2: -7, 6: 1}), series({1: 3, 3: 2, 9: -4})
    mixed = even + odd
    for a, b in ((even, odd), (odd, odd), (even, mixed), (mixed, odd), (mixed, mixed)):
        want = oracles.naive_poly_mul(list(a.items()), list(b.items()))
        assert list((a * b).items()) == want


def test_coefficients_must_be_plain_integers():
    with pytest.raises(InvalidInputError, match="series coefficients must be integers, got True"):
        VSeries(8, 0, (1, True))
    with pytest.raises(InvalidInputError, match="got 1.5"):
        VSeries(8, 0, (1.5,))


def test_int_subclass_coefficients_become_ints():
    class Big(int):
        pass

    s = VSeries(8, 0, (Big(3), 0, Big(-2)))
    assert s.coeffs == (3, 0, -2) and set(map(type, s.coeffs)) == {int}


@given(a=pair_dicts, b=pair_dicts)
def test_add_sub_roundtrip(a, b):
    sa, sb = series(a), series(b)
    assert sa + sb - sb == sa
    assert sa - sa == VSeries.zero(24)
    assert -(-sa) == sa


def test_shift_roundtrip():
    s = series({0: 1, 3: -2, 7: 5})
    assert s.shift(-1).shift(1) == s
    assert s.shift(4).min_exp == 4


def test_scalar_multiplication():
    s = series({1: 2, 3: -1})
    assert 3 * s == s * 3 == series({1: 6, 3: -3})
    assert 0 * s == VSeries.zero(24)


def test_poincare_p0_is_one():
    assert poincare_series(0, 20) == VSeries.one(20)


def test_poincare_p1_is_geometric():
    p1 = poincare_series(1, 20)
    assert all(oracles.q_coefficient(p1, n) == 1 for n in range(11))


def test_poincare_p2_floor_formula():
    p2 = poincare_series(2, 40)
    assert all(oracles.q_coefficient(p2, n) == n // 2 + 1 for n in range(21))


def test_poincare_coefficients_are_partition_counts():
    for k in range(0, 7):
        pk = poincare_series(k, 60)
        for n in range(31):
            assert oracles.q_coefficient(pk, n) == oracles.brute_partition_count(n, k)


def q_series(v_max, low, q_coeffs):
    """The series sum c_i q^(low + i) over q_coeffs."""
    return VSeries(v_max, 2 * low, tuple(c for x in q_coeffs for c in (x, 0)))


# low >= 0: for s with a negative exponent, s * P_k would need P_k past v_max
@given(q_coeffs=st.lists(wide_coeffs, max_size=30), low=st.integers(0, 12),
       k=st.integers(0, 12), v_max=st.integers(0, 41))
@settings(max_examples=200)
@example(q_coeffs=[5, -3, 0, 7], low=2, k=12, v_max=7)  # run past an odd cutoff
@example(q_coeffs=[-1, 2], low=1, k=5, v_max=40)  # run well inside an even cutoff
def test_times_poincare_matches_the_kronecker_product(q_coeffs, low, k, v_max):
    s = q_series(v_max, low, q_coeffs)
    assert times_poincare(s, k) == s * poincare_series(k, v_max)


@pytest.mark.parametrize("s", [VSeries(20, 1, (1,)), VSeries(20, 0, (1, 1)), VSeries(20, -2, (3, 0, 0, 4))])
def test_times_poincare_refuses_odd_exponents(s):
    with pytest.raises(InconsistencyError, match="odd v exponents"):
        times_poincare(s, 2)


def test_times_poincare_edges():
    assert times_poincare(VSeries.zero(9), 4) == VSeries.zero(9)
    assert times_poincare(VSeries.one(9), 0) == VSeries.one(9)
    assert times_poincare(VSeries.one(9), 3) == poincare_series(3, 9)
    with pytest.raises(InvalidInputError):
        times_poincare(VSeries.one(9), -1)


def test_poincare_divides_once_per_new_index(monkeypatch):
    calls = []
    real = series_mod._divide
    monkeypatch.setattr(series_mod, "_divide", lambda s, js: calls.append(tuple(js)) or real(s, js))
    series_mod.poincare_series.cache_clear()
    poincare_series(5, 30)
    poincare_series(7, 30)
    assert calls == [(1,), (2,), (3,), (4,), (5,), (6,), (7,)]


def test_coefficient_past_truncation_rejected():
    s = series({0: 1}, v_max=6)
    with pytest.raises(InvalidInputError):
        s.coefficient(7)
    with pytest.raises(InvalidInputError):
        oracles.q_coefficient(s, 4)


def test_mismatched_truncation_orders_rejected():
    with pytest.raises(Exception):
        VSeries.one(6) + VSeries.one(8)


def test_str_rendering():
    assert str(series({0: 1, 2: -1, 4: -2, 7: 1})) == "1 - q - 2*q^2 + q^(7/2)"
    assert str(VSeries.zero(5)) == "0"


def test_from_pairs_roundtrip():
    s = series({-2: 1, 0: -4, 5: 2})
    assert oracles.series_from_pairs(24, s.to_pairs()) == s


# low < 0: s * P_k is exact only below v_max + min_exp, where s's terms past
# v_max, which P_k's constant term would carry, are missing
@given(q_coeffs=st.lists(wide_coeffs, max_size=30), low=st.integers(-12, -1),
       k=st.integers(0, 12), v_max=st.integers(0, 41))
@settings(max_examples=200)
@example(q_coeffs=[1], low=-1, k=1, v_max=4)
def test_times_poincare_matches_the_kronecker_product_below_its_precision(q_coeffs, low, k, v_max):
    s = q_series(v_max, low, q_coeffs)
    got, want = times_poincare(s, k), s * poincare_series(k, v_max)
    exact = range(2 * low, v_max + min(0, s.min_exp) + 1)
    assert [got.coefficient(e) for e in exact] == [want.coefficient(e) for e in exact]


def test_times_poincare_is_exact_where_the_product_is_cut():
    """q^-1 * P_1 = q^-1 + 1 + q + ...: the coefficient at v^4 is 1, which the
    product of v^-2 with P_1 cut at v^4 cannot see (it has no v^6 term)."""
    s = VSeries(4, -2, (1,))
    assert times_poincare(s, 1) == VSeries(4, -2, (1, 0, 1, 0, 1, 0, 1))
    assert (s * poincare_series(1, 4)).coefficient(2) == 1


def test_mul_is_cut_where_a_negative_exponent_meets_missing_terms():
    """q^-1 * P_1 cut at v^0: the product's v^0 term would need P_1's q^1,
    which the cut left out, so the product stops at v^-2."""
    got = VSeries(0, -2, (1,)) * poincare_series(1, 0)
    assert got == VSeries(-2, -2, (1,))
    with pytest.raises(InvalidInputError):
        got.coefficient(0)
    assert times_poincare(VSeries(0, -2, (1,)), 1).coefficient(0) == 1
    # factors cut at different orders: 1 + v cut at v^6, times v^-1, is known up to v^5
    assert VSeries(9, -1, (1,)) * VSeries(6, 0, (1, 1)) == VSeries(5, -1, (1, 1))


@given(q_coeffs=st.lists(wide_coeffs, max_size=30), low=st.integers(-12, 12),
       k=st.integers(0, 12), v_max=st.integers(0, 41))
@settings(max_examples=200)
@example(q_coeffs=[1], low=-1, k=1, v_max=0)
def test_mul_by_poincare_is_times_poincare_at_the_product_precision(q_coeffs, low, k, v_max):
    s = q_series(v_max, low, q_coeffs)
    got, want = s * poincare_series(k, v_max), times_poincare(s, k)
    assert got.v_max == v_max + min(0, s.min_exp)
    assert got == VSeries(got.v_max, want.min_exp, want.coeffs)
