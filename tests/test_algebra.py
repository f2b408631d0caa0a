"""Quantum algebra elements, dilogarithms, factorization verification."""
from __future__ import annotations

import random
from functools import lru_cache
from pathlib import Path

import pytest
from hypothesis import assume, example, given, settings, strategies as st

import oracles
from quiverdt import (
    BoundExceededError,
    DimVector,
    InvalidInputError,
    InvalidOrderError,
    QuantumElement,
    RootOrder,
    TruncationMismatchError,
    VSeries,
    admissible_total_order,
    dilog,
    enumerate_partitions,
    euler_form,
    factorization_product,
    identity,
    make_partition,
    monomial,
    parse_quiver,
    poincare_series,
    qt_multiply,
    skew_form,
    trivial_dt,
    validate_order,
    verify_factorization,
)
from quiverdt import algebra as algebra_mod
from quiverdt import series as series_mod
from quiverdt.algebra import working_v_max
from quiverdt.errors import InconsistencyError

V_MAX = 16


def bound_of(q, entry=3):
    return q.vector({v: entry for v in q.vertices})


def all_gammas(q, bound):
    import itertools

    ranges = [range(x + 1) for x in bound.values]
    return [q.vector(vals) for vals in itertools.product(*ranges)]


def random_element(rng, q, bound, work):
    """A sum of up to six monomials with dense random coefficients, some past 64 bits."""
    el = monomial(q, q.zero(), 0, bound, V_MAX)
    for _ in range(rng.randint(1, 6)):
        g = q.vector([rng.randint(0, b) for b in bound.values])
        top = rng.choice((3, 2**40, 2**100))
        terms = {rng.randint(-4, work): rng.randint(-top, top) for _ in range(rng.randint(1, 12))}
        el = el + monomial(q, g, VSeries.from_terms(work, terms), bound, V_MAX)
    return el


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_qt_multiply_matches_dense_reference(name, request, rng):
    q = request.getfixturevalue(name)
    bound = bound_of(q, 2)
    work = working_v_max(q, bound, V_MAX)
    for _ in range(25):
        x, y = random_element(rng, q, bound, work), random_element(rng, q, bound, work)
        got = qt_multiply(x, y)
        assert {g.values: s for g, s in got.terms.items()} == oracles.dense_qt_multiply(x, y)


@pytest.mark.parametrize("name", ["a3", "d4"])
def test_qt_multiply_of_dilogs_matches_dense_reference(name, request):
    q = request.getfixturevalue(name)
    bound = bound_of(q, 2)
    x = identity(q, bound, V_MAX)
    for v in q.vertices:
        y = dilog(q, q.unit(v), bound, V_MAX)
        want = oracles.dense_qt_multiply(x, y)
        x = qt_multiply(x, y)
        assert {g.values: s for g, s in x.terms.items()} == want


def as_values(el):
    return {g.values: s for g, s in el.terms.items()}


def with_y0(el, coeff):
    """el with its y_0 coefficient replaced by coeff; None drops the term."""
    q = el.quiver
    out = monomial(q, q.zero(), 0 if coeff is None else coeff, el.bound, V_MAX)
    for g, s in el.terms.items():
        if not g.is_zero:
            out = out + monomial(q, g, s, el.bound, V_MAX)
    return out


@pytest.mark.parametrize("unit", [2, "1+v", -1, None])
def test_qt_multiply_y0_other_than_one_is_multiplied(unit, a3, rng):
    """Only a y_0 coefficient equal to 1 passes the other operand through."""
    bound = bound_of(a3, 2)
    work = working_v_max(a3, bound, V_MAX)
    coeff = {"1+v": VSeries(work, 0, (1, 1))}.get(unit, unit)
    for _ in range(10):
        x = with_y0(random_element(rng, a3, bound, work), coeff)
        assert (a3.zero() in x.terms) == (unit is not None)
        y = random_element(rng, a3, bound, work)
        for left, right in ((x, y), (y, x), (x, x)):
            assert as_values(qt_multiply(left, right)) == oracles.dense_qt_multiply(left, right)


def test_qt_multiply_unit_hands_series_through_unchanged(a3, rng):
    bound = bound_of(a3, 2)
    work = working_v_max(a3, bound, V_MAX)
    for _ in range(10):
        x = random_element(rng, a3, bound, work)
        y = dilog(a3, a3.unit(rng.choice(a3.vertices)), bound, V_MAX)
        for left, right in ((x, y), (y, x), (y, y)):
            got = qt_multiply(left, right)
            assert as_values(got) == oracles.dense_qt_multiply(left, right)
        # a target that only the unit pair reaches keeps the operand's series object
        got = qt_multiply(x, identity(a3, bound, V_MAX))
        assert all(got.terms[g] is s for g, s in x.terms.items())
        assert all(any(k is g for k in got.terms) for g in x.terms)


def test_qt_multiply_both_operands_with_unit(a3, rng):
    bound = bound_of(a3, 2)
    work = working_v_max(a3, bound, V_MAX)
    for _ in range(10):
        x = random_element(rng, a3, bound, work)
        y = random_element(rng, a3, bound, work)
        x, y = with_y0(x, 1), with_y0(y, 1)
        assert x.terms[a3.zero()] == y.terms[a3.zero()] == VSeries.one(work)
        assert as_values(qt_multiply(x, y)) == oracles.dense_qt_multiply(x, y)


def test_qt_multiply_by_an_element_that_is_only_y0(a3, rng):
    bound = bound_of(a3, 2)
    work = working_v_max(a3, bound, V_MAX)
    one = identity(a3, bound, V_MAX)
    three = monomial(a3, a3.zero(), VSeries(work, -2, (3, 0, 1)), bound, V_MAX)
    x = random_element(rng, a3, bound, work)
    for left, right in ((one, one), (one, three), (three, one), (three, three),
                        (x, one), (one, x), (x, three), (three, x)):
        assert as_values(qt_multiply(left, right)) == oracles.dense_qt_multiply(left, right)
    assert qt_multiply(one, one).terms == one.terms


@pytest.mark.parametrize("entries", [(0, 2, 2), (2, 0, 3), (3, 3, 3), (4, 4, 4), (7, 1, 4),
                                     (8, 1, 3), (3, 8, 0)])
def test_qt_multiply_box_index_at_every_digit_width(entries, a3, rng):
    """Bound 0 and the bounds where the guard-bit digit widens (3→4, 7→8)."""
    bound = a3.vector(list(entries))
    work = working_v_max(a3, bound, V_MAX)
    for _ in range(8):
        x, y = random_element(rng, a3, bound, work), random_element(rng, a3, bound, work)
        assert as_values(qt_multiply(x, y)) == oracles.dense_qt_multiply(x, y)
    # edge pairs: sums at the bound are kept, one past it in any coordinate are dropped
    full = monomial(a3, bound, 1, bound, V_MAX)
    for i, b in enumerate(entries):
        if b:
            low = monomial(a3, a3.unit(a3.vertices[i]), 1, bound, V_MAX)
            assert qt_multiply(full, low).terms == {}
            rest = a3.vector([e - (j == i) for j, e in enumerate(entries)])
            part = monomial(a3, rest, 1, bound, V_MAX)
            assert as_values(qt_multiply(part, low)) == oracles.dense_qt_multiply(part, low)
            assert bound.values in as_values(qt_multiply(part, low))


def test_qt_multiply_forced_width_overflow_raises(a2, monkeypatch):
    b = bound_of(a2, 2)
    x = monomial(a2, a2.unit("1"), VSeries(V_MAX, 0, (100, 100, 100)), b, V_MAX)
    monkeypatch.setattr(series_mod, "_digit_width", lambda bound: 8)
    with pytest.raises(InconsistencyError):
        qt_multiply(x, x)


@pytest.mark.parametrize("width", [8, 16, 32, 64])
@pytest.mark.parametrize("step", [1, 2])
def test_qt_multiply_width_is_tight_at_every_word_width(width, step, a2):
    """The (1,1) coefficient peaks at L1 * Linf = 2^(width-1) - 1 exactly."""
    v_max, bound = 1200, bound_of(a2, 1)
    a, b = oracles.TIGHT_WIDTH_OPERANDS[width]
    sa, sb = (VSeries.from_terms(v_max, {step * i: c for i, c in enumerate(r)}) for r in (a, b))
    x = monomial(a2, a2.unit("1"), sa, bound, v_max)
    y = monomial(a2, a2.unit("2"), sb, bound, v_max)
    assert series_mod.product_width(x.terms.values(), y.terms.values()) == width
    got = qt_multiply(x, y)
    assert as_values(got) == oracles.dense_qt_multiply(x, y)
    assert min(got.terms[a2.vector([1, 1])].coeffs) == -(2 ** (width - 1) - 1)


def test_qt_multiply_mixed_parity_matches_dense_reference(a2):
    """Even x odd, pure x mixed, and one target that both parities reach."""
    bound, work = bound_of(a2, 2), working_v_max(a2, bound_of(a2, 2), V_MAX)
    even = VSeries.from_terms(work, {0: 3, 2: -1, 6: 2**70})
    odd = VSeries.from_terms(work, {-1: 2, 3: 5, 5: -7})
    mixed = even + odd
    e1, e2 = a2.unit("1"), a2.unit("2")

    def el(*pairs):
        out = monomial(a2, a2.zero(), 0, bound, V_MAX)
        for g, c in pairs:
            out = out + monomial(a2, g, c, bound, V_MAX)
        return out

    cases = [(el((e1, even)), el((e2, odd))), (el((e1, even)), el((e1, mixed), (e2, mixed))),
             (el((e1, mixed), (a2.zero(), 3)), el((e2, even)))]
    # (1,1) gets even * even * v^1 from e1 * e2 and odd * even * v^-1 from e2 * e1
    both = (el((e1, even), (e2, odd)), el((e2, even), (e1, even)))
    for x, y in cases + [both]:
        assert as_values(qt_multiply(x, y)) == oracles.dense_qt_multiply(x, y)
        assert as_values(qt_multiply(y, x)) == oracles.dense_qt_multiply(y, x)
    top = qt_multiply(*both).terms[a2.vector([1, 1])]
    assert {e % 2 for e, _ in top.items()} == {0, 1}


def _parities(s):
    return {e % 2 for e, _ in s.items()}


def test_dilog_products_obey_the_parity_rule(quiver_dir, monkeypatch):
    """Every coefficient of y_gamma has exponents of the parity of chi(gamma, gamma),
    and no multiply of a dilogarithm chain, summed or lone, sees an operand of
    mixed parity."""
    seen, lone = [], []

    def single_parity_convolve(acc, a, b, *rest):
        seen.append((_parities(a), _parities(b)))
        return convolve(acc, a, b, *rest)

    def single_parity_product(a, b, *rest):
        lone.append((_parities(a), _parities(b)))
        return product(a, b, *rest)

    convolve, product = algebra_mod.convolve_into, series_mod.product
    monkeypatch.setattr(algebra_mod, "convolve_into", single_parity_convolve)
    monkeypatch.setattr(series_mod, "product", single_parity_product)
    for path in sorted(quiver_dir.glob("*.json")):
        q = parse_quiver(path.read_text())
        bound = bound_of(q, 2)
        products = [trivial_dt(q, bound, 40)]
        for p in enumerate_partitions(q, admissible_only=True):
            products.append(factorization_product(q, admissible_total_order(q, p), bound, 40))
        for el in products:
            for g, s in el.terms.items():
                assert _parities(s) == {euler_form(q, g, g) % 2}, (path.name, g, s)
    assert seen and all(len(pa) == len(pb) == 1 for pa, pb in seen)
    assert lone and all(len(pa) == len(pb) == 1 for pa, pb in lone)


def test_identity_is_multiplicative_unit(a2):
    b = bound_of(a2)
    one = identity(a2, b, V_MAX)
    y = monomial(a2, a2.vector([1, 1]), 1, b, V_MAX)
    assert one.coefficient(a2.zero()) == VSeries.one(V_MAX)
    for g in all_gammas(a2, b):
        assert qt_multiply(one, y).coefficient(g) == y.coefficient(g)
        assert qt_multiply(y, one).coefficient(g) == y.coefficient(g)


def test_zero_coefficient_gives_empty_support(a2):
    z = monomial(a2, a2.unit("1"), 0, bound_of(a2), V_MAX)
    assert z.support() == []


def test_monomial_unseen_gamma_is_zero(a2):
    y = monomial(a2, a2.unit("1"), 1, bound_of(a2), V_MAX)
    assert y.coefficient(a2.unit("2")).is_zero


def test_coefficient_beyond_bound_rejected(a2):
    y = monomial(a2, a2.unit("1"), 1, bound_of(a2, 2), V_MAX)
    with pytest.raises(BoundExceededError):
        y.coefficient(a2.vector([3, 0]))


def test_monomial_beyond_bound_rejected(a2):
    with pytest.raises(BoundExceededError):
        monomial(a2, a2.vector([3, 0]), 1, bound_of(a2, 2), V_MAX)


def test_monomial_coeff_beyond_working_cutoff_rejected(a2):
    with pytest.raises(TruncationMismatchError):
        monomial(a2, a2.unit("1"), VSeries.one(10**6), bound_of(a2), V_MAX)


def test_mixed_truncations_rejected(a2):
    b = bound_of(a2)
    x = monomial(a2, a2.unit("1"), 1, b, V_MAX)
    y = monomial(a2, a2.unit("1"), 1, b, V_MAX + 2)
    with pytest.raises(TruncationMismatchError):
        qt_multiply(x, y)
    with pytest.raises(TruncationMismatchError):
        x + y


def test_unit_product_a2(a2):
    """y_{e1} y_{e2} = -v^{-1} y_{e1+e2} since lambda(e1, e2) = -1."""
    b = bound_of(a2)
    x = monomial(a2, a2.unit("1"), 1, b, V_MAX)
    y = monomial(a2, a2.unit("2"), 1, b, V_MAX)
    got = qt_multiply(x, y).coefficient(a2.vector([1, 1]))
    assert got == VSeries.monomial(V_MAX, -1, -1)


def test_commutation_relation(rng):
    """y_a y_b = q^lambda(a,b) y_b y_a, checked coefficient-wise."""
    for _ in range(60):
        q = oracles.random_acyclic_quiver(rng)
        a = oracles.random_dim_vector(rng, q, top=2)
        b = oracles.random_dim_vector(rng, q, top=2)
        bound = a + b
        x = monomial(q, a, 1, bound, V_MAX)
        y = monomial(q, b, 1, bound, V_MAX)
        lam = skew_form(q, a, b)
        lhs = qt_multiply(x, y).coefficient(a + b)
        rhs = qt_multiply(y, x).coefficient(a + b).shift(2 * lam)
        assert lhs.to_pairs() == [[e, c] for e, c in rhs.items() if e <= V_MAX]


def test_power_rule(a2, rng):
    """y_gamma^k = (-1)^(k-1) y_(k gamma)."""
    for q_builder in (lambda: a2, lambda: oracles.random_acyclic_quiver(rng)):
        q = q_builder()
        g = oracles.random_dim_vector(rng, q, top=1)
        if g.is_zero:
            g = q.unit(q.vertices[0])
        for k in range(1, 6):
            bound = k * g
            y = monomial(q, g, 1, bound, V_MAX)
            power = identity(q, bound, V_MAX)
            for _ in range(k):
                power = qt_multiply(power, y)
            want = VSeries.monomial(V_MAX, (-1) ** (k - 1), 0)
            assert power.coefficient(k * g) == want


def test_product_form_matches_fold_oracle(rng):
    for _ in range(60):
        q = oracles.random_acyclic_quiver(rng)
        gammas = [oracles.random_dim_vector(rng, q, top=1) for _ in range(4)]
        sign, power, total = oracles.monomial_product_form(q, gammas)
        bound = q.vector({v: sum(g[v] for g in gammas) for v in q.vertices})
        el = identity(q, bound, V_MAX)
        for g in gammas:
            el = qt_multiply(el, monomial(q, g, 1, bound, V_MAX))
        assert el.coefficient(total) == VSeries.monomial(V_MAX, sign, power)


def test_associativity_on_monomials(rng):
    for _ in range(40):
        q = oracles.random_acyclic_quiver(rng)
        gs = [oracles.random_dim_vector(rng, q, top=1) for _ in range(3)]
        bound = q.vector({v: sum(g[v] for g in gs) + 1 for v in q.vertices})
        coeffs = [
            VSeries.from_terms(V_MAX, {rng.randint(0, 3): rng.randint(-3, 3), 0: 1})
            for _ in gs
        ]
        x, y, z = (monomial(q, g, c, bound, V_MAX) for g, c in zip(gs, coeffs))
        left = qt_multiply(qt_multiply(x, y), z)
        right = qt_multiply(x, qt_multiply(y, z))
        for g in all_gammas(q, bound):
            assert left.coefficient(g) == right.coefficient(g)


def test_distributivity(a2, rng):
    b = bound_of(a2, 2)
    for _ in range(20):
        gs = [oracles.random_dim_vector(rng, a2, top=1) for _ in range(3)]
        x, y, z = (monomial(a2, g, 1, b, V_MAX) for g in gs)
        lhs = qt_multiply(x, y + z)
        rhs = qt_multiply(x, y) + qt_multiply(x, z)
        for g in all_gammas(a2, b):
            assert lhs.coefficient(g) == rhs.coefficient(g)


def test_dilog_a1_bound_two():
    q = oracles.build_quiver(["1"], [])
    b = q.vector([2])
    el = dilog(q, q.unit("1"), b, 20)
    assert el.coefficient(q.zero()) == VSeries.one(20)
    p1 = poincare_series(1, 20)
    assert el.coefficient(q.vector([1])) == (-1) * p1.shift(1)
    p2 = poincare_series(2, 20)
    assert el.coefficient(q.vector([2])) == (-1) * p2.shift(4)


def test_dilog_coefficients_match_partition_counts(a3, rng):
    for k in range(1, 4):
        g = a3.unit("2")
        el = dilog(a3, g, a3.vector([0, 4, 0]), 24)
        got = el.coefficient(k * g)
        assert got.to_pairs() == [
            [e, c] for e, c in oracles.dilog_coefficient_pairs(k, 24)
        ]


def test_dilog_constant_term_is_one(a3):
    for g in ((1, 0, 0), (0, 1, 1), (1, 1, 1)):
        el = dilog(a3, a3.vector(g), bound_of(a3, 2), V_MAX)
        assert el.coefficient(a3.zero()) == VSeries.one(V_MAX)


def test_dilog_lowest_power_is_k_squared(a2):
    b = bound_of(a2, 3)
    el = dilog(a2, a2.vector([1, 1]), b, 30)
    for k in range(1, 4):
        s = el.coefficient(a2.vector([k, k]))
        assert s.min_exp == k * k


def test_dilog_of_zero_rejected(a2):
    with pytest.raises(InvalidInputError):
        dilog(a2, a2.zero(), bound_of(a2), V_MAX)


def test_dilog_outside_bound_is_identity(a2):
    el = dilog(a2, a2.vector([3, 0]), bound_of(a2, 2), V_MAX)
    assert el.support() == [a2.zero()]


def test_dilog_is_memoized_with_a_bounded_cache(a3):
    bound = bound_of(a3, 2)
    el = dilog(a3, a3.unit("2"), bound, V_MAX)
    again = dilog(oracles.build_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")]),
                  a3.vector([0, 1, 0]), a3.vector([2, 2, 2]), V_MAX)
    assert again is el
    assert dilog(a3, a3.unit("2"), bound, V_MAX + 2) is not el
    assert 0 < dilog.cache_info().maxsize < 10**6


def test_dilog_chain_measures_and_packs_each_series_once(quiver_dir, monkeypatch):
    """Over trivial_dt and every factorization product of a3 at bound 2, each
    series has its norms computed at most once, and its parity halves at most
    once per digit width."""
    q = parse_quiver((quiver_dir / "a3.json").read_text())
    bound = bound_of(q, 2)
    measured, packed, halved = [], [], []
    measure, pack, halves = series_mod._measure, series_mod._packed, series_mod._halves

    def counted_measure(s):
        measured.append(s)  # held, so no id is reused
        return measure(s)

    def counted_packed(s, width):
        before = len(halved)
        out = pack(s, width)
        packed.extend([(s, width)] * (len(halved) - before))  # the halves this call built
        return out

    def counted_halves(coeffs, width):
        halved.append(width)
        return halves(coeffs, width)

    monkeypatch.setattr(series_mod, "_measure", counted_measure)
    monkeypatch.setattr(series_mod, "_packed", counted_packed)
    monkeypatch.setattr(series_mod, "_halves", counted_halves)
    trivial_dt(q, bound, V_MAX)
    for p in enumerate_partitions(q, admissible_only=True):
        factorization_product(q, admissible_total_order(q, p), bound, V_MAX)
    assert measured and packed
    assert len({id(s) for s in measured}) == len(measured)
    assert len({(id(s), w) for s, w in packed}) == len(packed)


def test_dim_vector_keys_hash_by_values_and_compare_by_vertices(a3):
    g, same = a3.vector([1, 0, 2]), DimVector(("1", "2", "3"), (1, 0, 2))
    other = DimVector(("x", "y", "z"), (1, 0, 2))
    assert g == same and hash(g) == hash(same)
    assert g != other
    keys = {g: "a3", other: "xyz"}
    assert len(keys) == 2 and keys[same] == "a3" and keys[other] == "xyz"


def test_qt_multiply_stores_no_zero_series(a2):
    """Two products that cancel on y_(1,1) leave no term there."""
    b = bound_of(a2, 2)
    e1, e2 = a2.unit("1"), a2.unit("2")
    work = working_v_max(a2, b, V_MAX)
    s = skew_form(a2, e1, e2)
    # y_1 * y_2 = -v^s y_(1,1) and y_2 * (-v^(2s) y_1) = v^(2s) v^(-s) y_(1,1)
    x = monomial(a2, e1, 1, b, V_MAX) + monomial(a2, e2, 1, b, V_MAX)
    y = monomial(a2, e2, 1, b, V_MAX) + monomial(a2, e1, VSeries(work, 2 * s, (-1,)), b, V_MAX)
    got = qt_multiply(x, y)
    assert a2.vector([1, 1]) not in got.terms
    assert all(c.coeffs for c in got.terms.values())
    assert as_values(got) == oracles.dense_qt_multiply(x, y)


def test_trivial_dt_constant_term(a3):
    el = trivial_dt(a3, bound_of(a3, 2), V_MAX)
    assert el.coefficient(a3.zero()) == VSeries.one(V_MAX)


def test_trivial_dt_single_vertex_is_dilog():
    q = oracles.build_quiver(["1"], [])
    b = q.vector([3])
    lhs = trivial_dt(q, b, V_MAX)
    rhs = dilog(q, q.unit("1"), b, V_MAX)
    for k in range(4):
        assert lhs.coefficient(q.vector([k])) == rhs.coefficient(q.vector([k]))


def test_trivial_dt_a2_frozen_coefficients(a2):
    el = trivial_dt(a2, bound_of(a2, 2), 12)
    p1 = poincare_series(1, 12)
    p2 = poincare_series(2, 12)
    assert el.coefficient(a2.vector([1, 1])) == (-1) * (p1 * p1).shift(1)
    assert el.coefficient(a2.vector([2, 2])) == (-1) * (p2 * p2).shift(4)


def test_trivial_dt_matches_closed_form(rng):
    """Every coefficient of the full product has the telescoped form."""
    for _ in range(25):
        q = oracles.random_acyclic_quiver(rng, max_arrows=3)
        bound = q.vector({v: 2 for v in q.vertices})
        el = trivial_dt(q, bound, V_MAX)
        for g in all_gammas(q, bound):
            want = oracles.closed_form_dt_coefficient(q, g, V_MAX)
            assert el.coefficient(g) == want, (q, g)


def test_factorization_product_singletons_equals_trivial(a3):
    p = make_partition(a3, [["1"], ["2"], ["3"]])
    order = admissible_total_order(a3, p)
    b = bound_of(a3, 2)
    lhs = factorization_product(a3, order, b, V_MAX)
    rhs = trivial_dt(a3, b, V_MAX)
    for g in all_gammas(a3, b):
        assert lhs.coefficient(g) == rhs.coefficient(g)


def test_factorization_product_rejects_invalid_order(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    bad = RootOrder(a3, order.partition, tuple(reversed(order.entries)), "test")
    with pytest.raises(InvalidOrderError):
        factorization_product(a3, bad, bound_of(a3, 2), V_MAX)


def test_verify_factorization_a3_all_partitions(a3):
    b = bound_of(a3, 2)
    ref = trivial_dt(a3, b, V_MAX)
    for p in enumerate_partitions(a3, admissible_only=True):
        report = verify_factorization(a3, p, b, V_MAX, reference=ref)
        assert report.passed and not report.mismatches


def test_verify_factorization_kronecker(kronecker):
    p = make_partition(kronecker, [["1"], ["2"]])
    report = verify_factorization(kronecker, p, bound_of(kronecker, 2), V_MAX)
    assert report.passed


def test_verify_factorization_pentagon(a2):
    """Two- and three-factor expansions of the same invariant agree."""
    b = bound_of(a2, 3)
    ref = trivial_dt(a2, b, 20)
    for blocks in ([["1"], ["2"]], [["1", "2"]]):
        p = make_partition(a2, blocks)
        report = verify_factorization(a2, p, b, 20, reference=ref)
        assert report.passed


def test_verify_factorization_sweep_orientations(a2_rev, a3_source_mid, a3_sink_mid):
    for q in (a2_rev, a3_source_mid, a3_sink_mid):
        b = bound_of(q, 2)
        ref = trivial_dt(q, b, V_MAX)
        for p in enumerate_partitions(q, admissible_only=True):
            assert verify_factorization(q, p, b, V_MAX, reference=ref).passed


def test_verify_factorization_rejects_reference_over_another_quiver():
    q = oracles.build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3")])
    other = oracles.build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "1", "3")])
    b = bound_of(q, 2)
    p = make_partition(q, [["1"], ["2"], ["3"]])
    with pytest.raises(TruncationMismatchError, match="different quivers"):
        verify_factorization(q, p, b, 20, reference=trivial_dt(other, b, 20))


def test_verify_factorization_reports_mismatches_up_to_v_max_only(a3):
    b = bound_of(a3, 2)
    work = working_v_max(a3, b, V_MAX)
    assert work > V_MAX + 1
    ref = trivial_dt(a3, b, V_MAX)
    p = make_partition(a3, [["1"], ["2", "3"]])
    rhs = factorization_product(a3, admissible_total_order(a3, p), b, V_MAX)
    # y_0's coefficient 1 ends below v_max, so a bump past v_max must not leave
    # zeros behind; v^(v_max+1) lies inside the working headroom, outside the window
    gammas = [a3.zero(), a3.vector([1, 1, 0]), a3.vector([2, 1, 2]), b]
    for exp, seen in ((V_MAX, True), (V_MAX + 1, False)):
        bumped = ref
        for k, g in enumerate(gammas):
            bumped = bumped + monomial(a3, g, VSeries.monomial(work, k + 1, exp), b, V_MAX)
        report = verify_factorization(a3, p, b, V_MAX, reference=bumped)
        assert report.passed is not seen
        assert list(report.mismatches) == oracles.coefficient_mismatches(bumped, rhs)
        assert [g for g, _, _ in report.mismatches] == (sorted(gammas, key=lambda g: (
            g.height, g.values)) if seen else [])


def test_verify_factorization_reports_terms_the_reference_lacks(a3):
    """A gamma held only by the factorized side is a mismatch against zero."""
    b = bound_of(a3, 2)
    ref = trivial_dt(a3, b, V_MAX)
    p = make_partition(a3, [["1"], ["2", "3"]])
    dropped = [a3.vector([1, 1, 0]), b]
    partial = QuantumElement(a3, b, V_MAX, {g: s for g, s in ref.terms.items() if g not in dropped})
    report = verify_factorization(a3, p, b, V_MAX, reference=partial)
    assert not report.passed
    assert [(g, lhs) for g, lhs, _ in report.mismatches] == [(g, VSeries.zero(V_MAX)) for g in dropped]
    assert [rhs for _, _, rhs in report.mismatches] == [ref.coefficient(g) for g in dropped]


def test_verification_report_fields(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    b = bound_of(a3, 2)
    report = verify_factorization(a3, p, b, V_MAX)
    assert report.quiver is a3 and report.partition.blocks == p.blocks
    assert report.bound == b and report.v_max == V_MAX
    assert report.order.entries == admissible_total_order(a3, p).entries


def test_lambda_violating_order_is_a_negative_control(a2):
    """Multiplying the three root dilogarithms against the skew rule does
    not reproduce the two-factor product."""
    bound = a2.vector([3, 3])
    v_max = 24
    reference = trivial_dt(a2, bound, v_max)
    e1, e2 = a2.vector([1, 0]), a2.vector([0, 1])
    long = a2.vector([1, 1])
    good = qt_multiply(qt_multiply(dilog(a2, e2, bound, v_max),
                                   dilog(a2, long, bound, v_max)),
                       dilog(a2, e1, bound, v_max))
    bad = qt_multiply(qt_multiply(dilog(a2, e1, bound, v_max),
                                  dilog(a2, long, bound, v_max)),
                      dilog(a2, e2, bound, v_max))
    gammas = all_gammas(a2, bound)
    assert all(good.coefficient(g) == reference.coefficient(g) for g in gammas)
    assert any(bad.coefficient(g) != reference.coefficient(g) for g in gammas)


def test_dt_coefficients_have_non_negative_q_support(a2, a2_rev, a3,
                                                     a3_source_mid,
                                                     a3_sink_mid, a4, d4,
                                                     atilde2):
    """Transient negative exponents from reordering must all cancel by
    the time a coefficient is reported, for every matrix quiver."""
    for q in (a2, a2_rev, a3, a3_source_mid, a3_sink_mid, a4, d4, atilde2):
        bound = q.vector({v: 2 for v in q.vertices})
        el = trivial_dt(q, bound, 20)
        for g in el.support():
            assert all(e >= 0 for e, _ in el.coefficient(g).items())


GRAPHS = {  # vertices and undirected edges of the seeded orientations
    "A4": (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4")]),
    "D4": (["c", "1", "2", "3"], [("c", "1"), ("c", "2"), ("c", "3")]),
    "Atilde3": (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]),
}


def block_runs(order) -> int:
    return 1 + sum(a.block != b.block for a, b in zip(order.entries, order.entries[1:]))


def file_and_seeded_quivers(quiver_dir):
    quivers = [parse_quiver(f.read_text()) for f in sorted(quiver_dir.glob("*.json"))]
    for name, (vertices, edges) in GRAPHS.items():
        rng = random.Random(name)
        quivers += [oracles.random_orientation(rng, vertices, edges) for _ in range(2)]
    return quivers


@pytest.mark.parametrize("entry", [2, 3])
def test_block_products_match_the_root_at_a_time_chain(quiver_dir, entry):
    """Every admissible partition of quivers/*.json and of seeded A4, D4 and
    Atilde3 orientations: the same coefficient at every gamma up to v_max."""
    checked = 0
    for q in file_and_seeded_quivers(quiver_dir):
        bound = bound_of(q, entry)
        for p in enumerate_partitions(q, admissible_only=True):
            order = admissible_total_order(q, p)
            got = factorization_product(q, order, bound, 40)
            want = oracles.chain_factorization_product(q, order, bound, 40)
            assert not oracles.coefficient_mismatches(got, want), (q.arrows, p)
            checked += 1
    assert checked > 40


def test_every_valid_order_of_a_small_partition_gives_the_same_product(a3, atilde2):
    """All valid orders, interleaved ones included, found by brute force."""
    interleaved = 0
    for q, blocks in ((a3, [["1"], ["2", "3"]]), (a3, [["1", "2"], ["3"]]),
                      (atilde2, [["1"], ["2", "3"]])):
        base = admissible_total_order(q, make_partition(q, blocks))
        p, bound = base.partition, bound_of(q, 2)
        want = oracles.chain_factorization_product(q, base, bound, V_MAX)
        for entries in oracles.brute_force_valid_orders(q, p):
            order = RootOrder(q, p, entries, "brute force")
            interleaved += block_runs(order) > p.size
            got = factorization_product(q, order, bound, V_MAX)
            assert not oracles.coefficient_mismatches(got, want), entries
    assert interleaved


@lru_cache(maxsize=None)
def multi_block_orders() -> list:
    """The admissible order of every partition with two or more blocks, over
    quivers/*.json and the seeded orientations."""
    quivers = file_and_seeded_quivers(Path(__file__).resolve().parent.parent / "quivers")
    return [admissible_total_order(q, p) for q in quivers
            for p in enumerate_partitions(q, admissible_only=True) if p.size > 1]


@given(pick=st.integers(0, 10**6), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_random_valid_interleaved_orders_give_the_same_product(pick, seed):
    """Random orders the pairing rules allow, which may split a block into
    several runs, multiply out to the root-at-a-time chain's coefficients."""
    orders = multi_block_orders()
    base = orders[pick % len(orders)]
    q, p = base.quiver, base.partition
    entries = oracles.random_valid_order(random.Random(seed), q, base.entries)
    assert validate_order(q, p, entries).valid
    order = RootOrder(q, p, entries, "random")
    bound = bound_of(q, 2)
    got = factorization_product(q, order, bound, V_MAX)
    want = oracles.chain_factorization_product(q, order, bound, V_MAX)
    assert not oracles.coefficient_mismatches(got, want)


def test_join_of_disjoint_blocks_multiplies_once_per_target(a4, monkeypatch):
    """Joining two blocks' products: every target whose two parts are both
    non-zero gets one direct product, the others are handed through, and no
    PackedSum is built."""
    order = admissible_total_order(a4, make_partition(a4, [["1", "2"], ["3", "4"]]))
    bound = bound_of(a4, 2)
    x, y = (algebra_mod._chain(a4, [e.root for e in order.entries if e.block == j], bound, V_MAX)
            for j in range(2))
    products, sums = [], []
    real_product, real_init = series_mod.product, series_mod.PackedSum.__init__
    monkeypatch.setattr(series_mod, "product",
                        lambda a, b, *rest: products.append((a, b)) or real_product(a, b, *rest))
    monkeypatch.setattr(series_mod.PackedSum, "__init__",
                        lambda acc, width: sums.append(acc) or real_init(acc, width))
    joined = qt_multiply(x, y)
    parts = [(a, b) for g, a in x.terms.items() if not g.is_zero
             for h, b in y.terms.items() if not h.is_zero]
    assert len(products) == len(parts) == (len(x.terms) - 1) * (len(y.terms) - 1) > 0
    assert {(id(a), id(b)) for a, b in products} == {(id(a), id(b)) for a, b in parts}
    assert not sums
    assert len(joined.terms) == len(x.terms) * len(y.terms)
    assert joined.terms == factorization_product(a4, order, bound, V_MAX).terms


def doubled(q):
    """q with a second copy of its first arrow: the same vertices, so the same
    dimension vectors, and another trivial product."""
    extra = q.arrows[0]
    return oracles.build_quiver(q.vertices, [(a.name, a.tail, a.head) for a in q.arrows]
                                + [(extra.name + "'", extra.tail, extra.head)])


@pytest.mark.parametrize("entry", [2, 3])
def test_verify_verdicts_match_the_materialized_compare(quiver_dir, entry):
    """Every admissible partition of quivers/*.json and of seeded A4, D4 and
    Atilde3 orientations, against its own trivial product and against the one
    of q with an arrow doubled, which differs at many gammas: passed and the
    mismatch list equal those of comparing with the whole factorization_product."""
    checked = failed = 0
    for q in file_and_seeded_quivers(quiver_dir):
        bound = bound_of(q, entry)
        own = trivial_dt(q, bound, V_MAX)
        other = QuantumElement(q, bound, V_MAX, trivial_dt(doubled(q), bound, V_MAX).terms)
        for p in enumerate_partitions(q, admissible_only=True):
            for reference in (own, other):
                report = verify_factorization(q, p, bound, V_MAX, reference=reference)
                want = oracles.materialized_verdict(q, p, bound, V_MAX, reference)
                assert (report.passed, list(report.mismatches)) == want, (q.arrows, p)
                failed += not report.passed
                checked += 1
    assert checked > 80 and failed > 10


def perturbation_cases(a3):
    """(quiver, partition, bound, v_max): a3 split in one, two and three blocks,
    and, at a v_max below k^2 for k >= 2, a one-vertex quiver and two unjoined
    vertices, whose products lack the multiples of a simple root past 1."""
    one = oracles.build_quiver(["1"], [])
    two = oracles.build_quiver(["1", "2"], [])
    cases = [(a3, make_partition(a3, blocks), bound_of(a3, 2), V_MAX)
             for blocks in ([["1", "2", "3"]], [["1"], ["2", "3"]], [["1"], ["2"], ["3"]])]
    cases += [(one, make_partition(one, [["1"]]), bound_of(one, 3), 2),
              (two, make_partition(two, [["1"], ["2"]]), bound_of(two, 3), 2)]
    return cases


def bump(ref, gamma, exp, coeff):
    """ref plus coeff * v^exp at gamma."""
    work = working_v_max(ref.quiver, ref.bound, ref.v_max)
    return ref + monomial(ref.quiver, gamma, VSeries.monomial(work, coeff, exp), ref.bound, ref.v_max)


def test_verify_reports_perturbed_references_as_the_materialized_compare(a3):
    """A change at v^v_max is reported and one at v^(v_max+1) or v^(v_max+2) is
    not; a gamma the reference lacks or the product lacks, a coefficient of
    mixed parity and a coefficient far past the product's digit width are
    reported exactly when they fall within v_max."""
    lacking = 0
    for q, p, bound, v_max in perturbation_cases(a3):
        ref = trivial_dt(q, bound, v_max)
        product = factorization_product(q, admissible_total_order(q, p), bound, v_max)
        width = series_mod.product_width(product.terms.values(), product.terms.values())
        gammas = all_gammas(q, bound)
        absent = [g for g in gammas if g not in product.terms]
        lacking += bool(absent)
        cases = []  # (reference, the gammas it must report)
        for g in gammas:
            parity = euler_form(q, g, g) % 2
            for exp, seen in ((v_max, True), (v_max + 1, False), (v_max + 2, False)):
                cases.append((bump(ref, g, exp, 3), [g] if seen else []))
            cases.append((bump(ref, g, v_max - 1 + parity, 1), [g]))  # the other parity
            cases.append((bump(ref, g, v_max, 2 ** (2 * width)), [g]))
            cases.append((bump(ref, g, v_max + 1, 2 ** (2 * width)), []))
            if g in ref.terms:
                lacks = QuantumElement(q, bound, v_max, {h: s for h, s in ref.terms.items() if h != g})
                cases.append((lacks, [g] if ref.coefficient(g) else []))
        for g in absent:
            cases.append((bump(ref, g, 0, -1), [g]))
        for reference, want in cases:
            report = verify_factorization(q, p, bound, v_max, reference=reference)
            assert [g for g, _, _ in report.mismatches] == want, (p, want)
            assert (report.passed, list(report.mismatches)) == oracles.materialized_verdict(
                q, p, bound, v_max, reference)
    assert lacking == 2


def test_one_and_multi_block_partitions_end_in_the_packed_compare(a3, monkeypatch):
    """verify_factorization makes one multiplication fewer than
    factorization_product; its last one goes to the packed compare, which
    sees series handed through, lone products and packed sums."""
    calls, seen = [], []
    real_multiply, real_agree = algebra_mod.qt_multiply, series_mod.target_agrees
    monkeypatch.setattr(algebra_mod, "qt_multiply",
                        lambda x, y: calls.append(1) or real_multiply(x, y))
    monkeypatch.setattr(algebra_mod, "target_agrees",
                        lambda held, *rest: seen.append(type(held)) or real_agree(held, *rest))
    bound = bound_of(a3, 2)
    ref = trivial_dt(a3, bound, V_MAX)
    kinds = set()
    for blocks in ([["1", "2", "3"]], [["1"], ["2", "3"]], [["1", "2"], ["3"]]):
        p = make_partition(a3, blocks)
        del calls[:], seen[:]
        factorization_product(a3, admissible_total_order(a3, p), bound, V_MAX)
        full = len(calls)
        del calls[:]
        assert verify_factorization(a3, p, bound, V_MAX, reference=ref).passed
        assert len(calls) == full - 1 and seen
        kinds |= set(seen)
    assert kinds == {VSeries, tuple, series_mod.PackedSum}


def test_verify_factorization_forced_width_overflow_raises(kronecker, monkeypatch):
    """With every digit width forced to 8 bits, the packed compare of the last
    multiplication raises as qt_multiply does."""
    p = make_partition(kronecker, [["1"], ["2"]])
    bound = bound_of(kronecker, 3)
    ref = trivial_dt(kronecker, bound, V_MAX)
    assert verify_factorization(kronecker, p, bound, V_MAX, reference=ref).passed
    entered = []
    real = algebra_mod._mismatches
    monkeypatch.setattr(algebra_mod, "_mismatches", lambda *a: entered.append(1) or real(*a))
    monkeypatch.setattr(series_mod, "_digit_width", lambda bound: 8)
    with pytest.raises(InconsistencyError):
        verify_factorization(kronecker, p, bound, V_MAX, reference=ref)
    assert entered


def test_matching_verdict_unpacks_nothing_in_its_last_multiplication(quiver_dir, monkeypatch):
    """Inside the packed compare, a passing verdict calls series._unpack never;
    a failing one unpacks only the targets it reports."""
    unpacked, inside = [], []
    real_unpack, real_mismatches = series_mod._unpack, algebra_mod._mismatches

    def counted_unpack(*args):
        if inside:
            unpacked.append(args)
        return real_unpack(*args)

    def marked(*args):
        inside.append(1)
        try:
            return real_mismatches(*args)
        finally:
            inside.pop()

    monkeypatch.setattr(series_mod, "_unpack", counted_unpack)
    monkeypatch.setattr(algebra_mod, "_mismatches", marked)
    for q in file_and_seeded_quivers(quiver_dir)[:5]:
        bound = bound_of(q, 2)
        ref = trivial_dt(q, bound, V_MAX)
        for p in enumerate_partitions(q, admissible_only=True):
            assert verify_factorization(q, p, bound, V_MAX, reference=ref).passed
            assert not unpacked
            g = max(ref.terms, key=lambda g: g.height)
            for exp in (V_MAX + 1, V_MAX + 2):  # past v_max: still a match
                assert verify_factorization(q, p, bound, V_MAX, reference=bump(ref, g, exp, 1)).passed
                assert not unpacked
            report = verify_factorization(q, p, bound, V_MAX, reference=bump(ref, g, V_MAX, 1))
            assert [h for h, _, _ in report.mismatches] == [g]
            assert 0 < len(unpacked) <= 2
            del unpacked[:]


def test_packed_compare_matches_the_built_product(a3, rng, monkeypatch):
    """On random elements with mixed parities and wide coefficients, the last
    multiplication's compare reports what comparing with the built product
    does, and unpacks nothing when the reference is that product, on the
    array and the byte-sliced paths.  One target sums runs that cancel at
    their low end, so its runs and the reference's start at different
    exponents."""
    unpacked = []
    real = series_mod._unpack
    monkeypatch.setattr(series_mod, "_unpack", lambda *a: unpacked.append(a) or real(*a))
    bound = bound_of(a3, 2)
    work = working_v_max(a3, bound, V_MAX)
    e1 = a3.unit("1")
    for codes in (series_mod._WORD_CODES, {}):
        monkeypatch.setattr(series_mod, "_WORD_CODES", codes)
        q_step = VSeries.from_terms(work, {0: 1, 2: 1})
        pairs = [(monomial(a3, a3.zero(), 2, bound, V_MAX) + monomial(a3, e1, -2, bound, V_MAX),
                  identity(a3, bound, V_MAX) + monomial(a3, e1, q_step, bound, V_MAX))]
        pairs += [(random_element(rng, a3, bound, work), random_element(rng, a3, bound, work))
                  for _ in range(12)]
        for x, y in pairs:
            product = qt_multiply(x, y)
            del unpacked[:]
            assert algebra_mod._mismatches(x, y, product, V_MAX) == []
            assert not unpacked
            for _ in range(6):
                g = rng.choice(all_gammas(a3, bound))
                ref = bump(product, g, rng.randint(-4, work), rng.choice((1, -5, 2**90)))
                assert algebra_mod._mismatches(x, y, ref, V_MAX) == (
                    oracles.coefficient_mismatches(ref, product))
        # 2 * (1 + q) - 2 at y_e1: the packed sum starts at v^0, the series at v^2
        assert qt_multiply(*pairs[0]).terms[e1] == VSeries.monomial(work, 2, 2)


q_runs = st.lists(st.one_of(st.integers(-9, 9), st.integers(-(2**40), 2**40),
                            st.integers(-(2**90), 2**90)), min_size=1, max_size=6)


@pytest.mark.parametrize("path", ["array", "bytes"])
@given(a=q_runs, b=q_runs, ea=st.integers(-6, 6), eb=st.integers(-6, 6),
       shift=st.integers(-6, 6), sign=st.sampled_from((1, -1)),
       kind=st.sampled_from(["none", "product", "bumped", "random"]), er=st.integers(-12, 12),
       run=q_runs, bump=st.sampled_from((1, -3, 2**70)), v_max=st.integers(-20, 24),
       width=st.sampled_from(range(8, 201, 8)))
@settings(max_examples=200)
@example(a=[1], b=[1], ea=0, eb=0, shift=0, sign=1, kind="bumped", er=4, run=[1], bump=1,
         v_max=4, width=8)  # the two differ at v_max alone
@example(a=[1], b=[2], ea=1, eb=0, shift=-4, sign=-1, kind="bumped", er=-5, run=[1], bump=1,
         v_max=-3, width=8)  # the bump is the reference's first digit
@example(a=[1], b=[1], ea=0, eb=0, shift=2, sign=1, kind="random", er=0, run=[1], bump=1,
         v_max=0, width=8)  # runs of one digit 1, at v^2 and v^0
@example(a=[2], b=[3], ea=1, eb=2, shift=0, sign=1, kind="random", er=4, run=[6], bump=1,
         v_max=4, width=8)  # 6 v^3 against 6 v^4: the parities differ
@example(a=[2], b=[3], ea=1, eb=2, shift=0, sign=1, kind="none", er=0, run=[1], bump=1,
         v_max=3, width=8)  # no reference, and the product starts at v_max
@example(a=[2], b=[3], ea=1, eb=2, shift=0, sign=1, kind="random", er=5, run=[1], bump=1,
         v_max=2, width=8)  # both runs start past v_max
def test_lone_product_compare_is_unpack_and_compare(path, a, b, ea, eb, shift, sign, kind, er,
                                                    run, bump, v_max, width):
    """For a lone product of two one-parity series and a reference of at most
    one parity (or none), series.target_agrees takes its one-run path, with
    no PackedSum, and answers what unpacking the product and comparing up to
    v_max answers: references of the other parity, cut before the first
    digit, or equal but for one digit."""
    work = 40
    sa, sb = oracles.q_series(work, ea, a), oracles.q_series(work, eb, b)
    if not (sa and sb):  # a pair loop holds no zero series
        return
    built = series_mod.product(sa, sb, shift, sign, work, series_mod.product_width([sa], [sb]))
    r = {"none": None, "product": built, "random": oracles.q_series(work, er, run),
         "bumped": built + VSeries.monomial(work, bump, er)}[kind]
    if r is not None and not r:  # nor a zero reference
        r = None
    top = 0 if r is None else max(map(abs, r.coeffs))
    width = max(width, series_mod.product_width([sa], [sb]), series_mod._digit_width(top))
    want = (oracles.series_from_pairs(v_max, built.to_pairs())
            == oracles.series_from_pairs(v_max, [] if r is None else r.to_pairs()))
    sums = []
    with pytest.MonkeyPatch.context() as mp:
        if path == "bytes":
            mp.setattr(series_mod, "_WORD_CODES", {})
        real = series_mod.PackedSum.__init__
        mp.setattr(series_mod.PackedSum, "__init__",
                   lambda acc, w: sums.append(1) or real(acc, w))
        assert series_mod.target_agrees((sa, sb, shift, sign), r, width, v_max) == want
    assert not sums or len(series_mod._packed(r, width)) == 2


@pytest.mark.parametrize("path", ["array", "bytes"])
@given(parts=st.lists(st.tuples(q_runs, q_runs, st.integers(-6, 6), st.integers(-6, 6),
                                st.integers(-6, 6), st.sampled_from((1, -1)), st.booleans()),
                      min_size=1, max_size=3),
       kind=st.sampled_from(["none", "product", "bumped", "random"]), er=st.integers(-12, 12),
       run=q_runs, bump=st.sampled_from((1, -3, 2**70)), v_max=st.integers(-20, 24),
       width=st.sampled_from(range(8, 201, 8)))
@settings(max_examples=150)
def test_packed_sum_compare_is_unpack_and_compare(path, parts, kind, er, run, bump, v_max, width):
    """A PackedSum of products, each with an operand of mixed parity when its
    flag is set, and the first product alone as a lone target: series.target_agrees
    answers what unpacking the target and comparing up to v_max answers, and
    leaves the target as it was, since a target that differs is unpacked after."""
    work = 40
    products = []
    for ra, rb, ea, eb, shift, sign, mixed in parts:
        a = oracles.q_series(work, ea, ra) + (oracles.q_series(work, ea + 1, rb) if mixed
                                              else VSeries.zero(work))
        b = oracles.q_series(work, eb, rb)
        if a and b:  # a pair loop holds no zero series
            products.append((a, b, shift, sign))
    assume(products)
    with pytest.MonkeyPatch.context() as mp:
        if path == "bytes":
            mp.setattr(series_mod, "_WORD_CODES", {})
        for summed in (products, products[:1]):
            terms: dict[int, int] = {}
            for a, b, shift, sign in summed:
                oracles.dict_convolve_into(terms, a, b, shift, sign, work)
            built = VSeries.from_terms(work, terms)
            r = {"none": None, "product": built, "random": oracles.q_series(work, er, run),
                 "bumped": built + VSeries.monomial(work, bump, er)}[kind]
            if r is not None and not r:
                r = None
            w = max(width, series_mod.compare_width([a for a, *_ in summed], [b for _, b, *_ in summed],
                                                    [] if r is None else [r]))
            if summed is products:
                target = series_mod.PackedSum(w)
                for a, b, shift, sign in summed:
                    series_mod.convolve_into(target, a, b, shift, sign, work)
                held = [c and list(c) for c in target.classes]
            else:
                target = summed[0]
            want = (oracles.series_from_pairs(v_max, built.to_pairs())
                    == oracles.series_from_pairs(v_max, [] if r is None else r.to_pairs()))
            assert series_mod.target_agrees(target, r, w, v_max) == want
            assert series_mod.target_series(target, work, w) == built
            if summed is products:
                assert target.classes == held
