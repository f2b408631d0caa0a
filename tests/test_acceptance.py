"""Acceptance gate: the eight headline checks, one visible line each.

Each test computes its verdict first, prints a single
"acceptance N/8 PASS|FAIL" line outside capture, then asserts.  The
assertion message carries the specifics when something broke.
"""
from __future__ import annotations

import itertools
import random
import time

import pytest

import oracles
from quiverdt import (
    NotDynkinError,
    admissible_total_order,
    betti_identity_check,
    check_admissible,
    cli,
    codim_additivity_check,
    codim_of_stratum,
    enumerate_partitions,
    kostant_series,
    make_partition,
    monomial,
    monomial_normal_form,
    qt_multiply,
    series_from_inner_lists,
    skew_form,
    stratum_orbit_decomposition,
    trivial_dt,
    verify_factorization,
)
from quiverdt.series import VSeries

SEED = 20250819


def announce(capsys, n: int, ok: bool, desc: str) -> None:
    with capsys.disabled():
        print(f"acceptance {n}/8 {'PASS' if ok else 'FAIL'} — {desc}")


def test_criterion_1_a3_four_factorizations(capsys, a3):
    started = time.monotonic()
    partitions = enumerate_partitions(a3)
    problems = []
    if len(partitions) != 4:
        problems.append(f"expected 4 partitions, got {len(partitions)}")
    if not all(check_admissible(a3, p).admissible for p in partitions):
        problems.append("some partition not admissible")
    bound = a3.vector([3, 3, 3])
    reference = trivial_dt(a3, bound, 40)
    for p in partitions:
        report = verify_factorization(a3, p, bound, 40, reference=reference)
        if not report.passed:
            problems.append(f"{p}: {len(report.mismatches)} mismatches")
    elapsed = time.monotonic() - started
    if elapsed >= 10:
        problems.append(f"took {elapsed:.1f}s")
    announce(capsys, 1, not problems,
             f"A3: all 4 partitions factorize at bound (3,3,3), q-order 20 "
             f"({elapsed:.2f}s)")
    assert not problems, problems


def test_criterion_2_betti_a2_identity(capsys, a2, quiver_dir):
    p = make_partition(a2, [["1", "2"]])
    verdict = betti_identity_check(a2, p, a2.vector([2, 2]), 60)
    got = {(t.codim, t.factors) for t in verdict.terms}
    want = {(0, (2,)), (1, (1, 1, 1)), (4, (2, 2))}
    code = cli.main(["betti", "--quiver", str(quiver_dir / "a2.json"),
                     "--partition", '[["1","2"]]', "--gamma", '{"1":2,"2":2}',
                     "--q-order", "30"])
    out = capsys.readouterr().out
    ok = verdict.equal and got == want and code == 0 and "PASS" in out
    announce(capsys, 2, ok,
             "A2 gamma=(2,2): terms q^0*P_2 + q^1*P_1^3 + q^4*P_2^2 match to q-order 30")
    assert verdict.equal
    assert got == want
    assert code == 0 and "PASS" in out


def test_criterion_3_kronecker_gate(capsys, kronecker):
    admissible = enumerate_partitions(kronecker, admissible_only=True)
    only = [str(p) for p in admissible] == ["[1][2]"]
    with pytest.raises(NotDynkinError):
        make_partition(kronecker, [["1", "2"]])
    report = verify_factorization(
        kronecker, admissible[0], kronecker.vector([4, 4]), 40
    )
    ok = only and report.passed
    announce(capsys, 3, ok,
             "Kronecker: [1][2] is the only admissible partition, [1,2] rejected, "
             "factorization passes at bound (4,4)")
    assert only and report.passed


def test_criterion_4_atilde2_counterexamples(capsys, atilde2):
    problems = []
    good = make_partition(atilde2, [["1"], ["2", "3"]])
    if not check_admissible(atilde2, good).admissible:
        problems.append("[1][2,3] not admissible")
    if not verify_factorization(atilde2, good, atilde2.vector([2, 2, 2]), 40).passed:
        problems.append("[1][2,3] factorization failed")
    bad = make_partition(atilde2, [["1", "3"], ["2"]])
    verdict = check_admissible(atilde2, bad)
    if verdict.admissible or verdict.witness != ("1+3", "2", "1+3"):
        problems.append(f"[1,3][2] verdict {verdict}")
    loop = check_admissible(atilde2, [["1", "2", "3"]])
    if loop.admissible or loop.witness != ("1+2+3", "1+2+3"):
        problems.append(f"[1,2,3] verdict {loop}")
    from oracles import brute_force_valid_orders

    if brute_force_valid_orders(atilde2, bad):
        problems.append("brute force found a valid order for the 2-cycle case")
    announce(capsys, 4, not problems,
             "Atilde2: [1][2,3] passes; [1,3][2] 2-cycle witness; [1,2,3] loop "
             "witness; no valid order exists for the 2-cycle partition")
    assert not problems, problems


def test_criterion_5_codim_oracle_and_additivity(capsys, rng, a2, a2_rev, a3,
                                                 a3_source_mid, a3_sink_mid,
                                                 a4, d4, atilde2):
    p = make_partition(a3, [["1"], ["2", "3"]])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    worked = codim_of_stratum(a3, p, m, a3.vector([2, 3, 2])).codim
    rank_locus = (2 - 1) * (3 - 1)
    quivers = (a2, a2_rev, a3, a3_source_mid, a3_sink_mid, a4, d4, atilde2)
    cases = 0
    failed = 0
    local = random.Random(SEED)
    while cases < 50:
        q = local.choice(quivers)
        part = local.choice(enumerate_partitions(q))
        g = q.vector({v: local.randint(0, 3) for v in q.vertices})
        series = kostant_series(q, part, g)
        if not series:
            continue
        failed += not codim_additivity_check(q, part, local.choice(series), g).equal
        cases += 1
    ok = worked == rank_locus == 2 and failed == 0
    announce(capsys, 5, ok,
             f"worked codim = {worked} = rank-locus (2-1)(3-1); additivity holds "
             f"on {cases - failed}/{cases} randomized cases")
    assert worked == rank_locus == 2
    assert failed == 0


def test_criterion_6_factorization_sweep(capsys, a2, a2_rev, a3, a3_source_mid,
                                         a3_sink_mid, a4, d4, atilde2):
    matrix = (a2, a2_rev, a3, a3_source_mid, a3_sink_mid, a4, d4, atilde2)
    checked = 0
    problems = []
    for q in matrix:
        bound = q.vector({v: 2 for v in q.vertices})
        reference = trivial_dt(q, bound, 40)
        for p in enumerate_partitions(q, admissible_only=True):
            report = verify_factorization(q, p, bound, 40, reference=reference)
            checked += 1
            if not report.passed:
                problems.append(f"{list(q.vertices)} {p}")
    announce(capsys, 6, not problems,
             f"all {checked} admissible partitions across the 8-quiver matrix "
             f"verify at bound 2, q-order 20")
    assert not problems, problems


def test_criterion_7_algebra_property_suite(capsys, a2, a2_rev, a3,
                                            a3_source_mid, a3_sink_mid,
                                            a4, d4, atilde2):
    local = random.Random(SEED)
    matrix = (a2, a2_rev, a3, a3_source_mid, a3_sink_mid, a4, d4, atilde2)
    v_max = 12
    counts = {}
    problems = []

    def vec(q, top=2):
        return tuple(local.randint(0, top) for _ in q.vertices)

    # associativity and commutation and the power rule on random monomials
    assoc = comm = pw = 0
    for _ in range(110):
        q = local.choice(matrix)
        bound = q.vector({v: 6 for v in q.vertices})
        xs = [monomial(q, q.vector(vec(q)), VSeries.monomial(v_max, 1, local.randint(-2, 2)), bound, v_max)
              for _ in range(3)]
        left = qt_multiply(qt_multiply(xs[0], xs[1]), xs[2])
        right = qt_multiply(xs[0], qt_multiply(xs[1], xs[2]))
        if not all(left.coefficient(g) == right.coefficient(g)
                   for g in set(left.support()) | set(right.support())):
            problems.append("associativity")
        assoc += 1
        g1, g2 = q.vector(vec(q)), q.vector(vec(q))
        a = monomial(q, g1, 1, bound, v_max)
        b = monomial(q, g2, 1, bound, v_max)
        lhs = qt_multiply(a, b)
        rhs = qt_multiply(b, a)
        shift = 2 * skew_form(q, g1, g2)
        tot = g1 + g2
        if lhs.coefficient(tot) != rhs.coefficient(tot).shift(shift):
            problems.append(f"commutation {g1} {g2}")
        comm += 1
        g = q.vector(vec(q))
        if not g.is_zero:
            k = local.randint(1, 4)
            kb = k * g
            el = monomial(q, g, 1, kb, v_max)
            pk = el
            for _ in range(k - 1):
                pk = qt_multiply(pk, el)
            want = VSeries.one(v_max) if k % 2 else -VSeries.one(v_max)
            if pk.coefficient(k * g) != want:
                problems.append(f"power {g} {k}")
            pw += 1
    counts["associativity"] = assoc
    counts["commutation"] = comm
    counts["power rule"] = pw

    # sign parity of every normal form against the closed formula
    parity = 0
    while parity < 110:
        q = local.choice(matrix)
        p = local.choice(enumerate_partitions(q, admissible_only=True))
        order = admissible_total_order(q, p)
        g = q.vector(vec(q, top=2))
        for m in kostant_series(q, p, g):
            nf = monomial_normal_form(q, p, order, m)
            s = sum(mult * (root.height - 1) for _, root, _, mult in m.entries())
            if nf.sign != (-1) ** (s % 2):
                problems.append(f"parity {q.vertices} {m}")
            parity += 1
    counts["sign parity"] = parity

    # block reordering leaves the normal form alone
    reorder = 0
    for q in matrix:
        for p in enumerate_partitions(q, admissible_only=True):
            if p.size < 2:
                continue
            order = admissible_total_order(q, p)
            g = q.vector(vec(q, top=2))
            for m in kostant_series(q, p, g):
                base = monomial_normal_form(q, p, order, m)
                by_block: dict[int, list] = {}
                for e in order.entries:
                    by_block.setdefault(e.block, []).append(e)
                for perm in itertools.permutations(sorted(by_block)):
                    entries = tuple(e for j in perm for e in by_block[j])
                    shuffled = type(order)(q, order.partition, entries, "shuffled")
                    nf = monomial_normal_form(q, p, shuffled, m)
                    if (nf.sign, nf.v_power) != (base.sign, base.v_power):
                        problems.append(f"reorder {q.vertices} {m} {perm}")
                    reorder += 1
    counts["block reordering"] = reorder

    # closed form for the product-of-dilogarithms coefficients
    closed = 0
    orng = random.Random(SEED + 1)
    while closed < 110:
        q = oracles.random_acyclic_quiver(orng)
        bound = q.vector({v: 2 for v in q.vertices})
        el = trivial_dt(q, bound, v_max)
        for values in itertools.product(*(range(3) for _ in q.vertices)):
            g = q.vector(values)
            want = oracles.closed_form_dt_coefficient(q, g, v_max)
            if el.coefficient(g) != want:
                problems.append(f"closed form {q.arrows} {g}")
            closed += 1
    counts["closed form"] = closed

    short = sorted(name for name, c in counts.items() if c < 100)
    ok = not problems and not short
    announce(capsys, 7, ok,
             "properties hold with zero tolerance: " +
             ", ".join(f"{name} x{c}" for name, c in counts.items()))
    assert not short, f"under 100 cases for {short}"
    assert not problems, problems[:5]


def test_criterion_8_five_orbit_decomposition(capsys, a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    g = a3.vector([2, 3, 2])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    orbits = stratum_orbit_decomposition(a3, p, m, g)
    ok = len(orbits) == 5 and all(o.dimension_vector() == g for o in orbits)
    announce(capsys, 8, ok,
             f"worked stratum splits into {len(orbits)} full-quiver orbits")
    assert len(orbits) == 5
    assert all(o.dimension_vector() == g for o in orbits)
