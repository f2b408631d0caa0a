"""Stratum codimensions, the Betti q-series identity, orbit decomposition."""
from __future__ import annotations

import itertools
import re

import pytest

import oracles
from quiverdt import (
    InvalidInputError,
    InvalidOrderError,
    KeyMismatchError,
    NotTypeAError,
    admissible_total_order,
    betti_identity_check,
    check_admissible,
    codim_additivity_check,
    codim_of_stratum,
    enumerate_partitions,
    inner_lists,
    kostant_partitions,
    kostant_series,
    make_partition,
    monomial_normal_form,
    parse_quiver,
    poincare_series,
    positive_roots,
    series_from_inner_lists,
    stratum_orbit_decomposition,
    topological_vertex_order,
)


def whole(q):
    return make_partition(q, [list(q.vertices)])


def test_normal_form_single_long_root(a2):
    """y_(1,1) = -v * (y_e1 y_e2), so the normalized form is (-1, 1)."""
    p = whole(a2)
    order = admissible_total_order(a2, p)
    m = series_from_inner_lists(a2, p, [[0, 1, 0]])
    nf = monomial_normal_form(a2, p, order, m)
    assert (nf.sign, nf.v_power) == (-1, 1)
    assert nf.gamma == a2.vector([1, 1])


def test_normal_form_single_simple_root(a2):
    p = whole(a2)
    order = admissible_total_order(a2, p)
    m = series_from_inner_lists(a2, p, [[1, 0, 0]])
    nf = monomial_normal_form(a2, p, order, m)
    assert (nf.sign, nf.v_power) == (1, 0)


def test_normal_form_worked_case(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    nf = monomial_normal_form(a3, p, order, m)
    assert (nf.sign, nf.v_power) == (-1, 11)
    assert nf.gamma == a3.vector([2, 3, 2])


def test_normal_form_rejects_an_order_root_outside_the_series(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    bad = (order.entries[0]._replace(root=a3.vector([1, 1, 1])),) + order.entries[1:]
    with pytest.raises(InvalidOrderError):
        monomial_normal_form(a3, p, type(order)(a3, order.partition, bad), m)


def test_normal_form_invariant_under_block_permutation(a3, a4, d4, atilde2, rng):
    """The cross-block correction cancels however blocks are interleaved."""
    for q in (a3, a4, d4, atilde2):
        for p in enumerate_partitions(q, admissible_only=True):
            order = admissible_total_order(q, p)
            g = q.vector({v: rng.randint(0, 2) for v in q.vertices})
            for m in kostant_series(q, p, g):
                base = monomial_normal_form(q, p, order, m)
                by_block = {}
                for e in order.entries:
                    by_block.setdefault(e.block, []).append(e)
                for perm in itertools.permutations(sorted(by_block)):
                    entries = tuple(
                        e for j in perm for e in by_block[j]
                    )
                    shuffled = type(order)(q, order.partition, entries, "shuffled")
                    nf = monomial_normal_form(q, p, shuffled, m)
                    assert (nf.sign, nf.v_power) == (base.sign, base.v_power)


def _literal_form(q, entries, m):
    """(sign, v_power) of the factors of m multiplied literally in the order
    of entries, over the simple-root monomial multiplied out heads first:
    the oracle's fold, one copy at a time."""
    mult = {root.values: k for _, _, root, k in m.entries()}
    sign, power, total = oracles.monomial_product_form(
        q, [e.root for e in entries for _ in range(mult[e.root.values])])
    s_sign, s_power, _ = oracles.monomial_product_form(
        q, [q.unit(v) for v in topological_vertex_order(q) for _ in range(total[v])])
    return sign * s_sign, power - s_power


def test_normal_form_matches_every_literal_admissible_product(a3, a4, a3_source_mid):
    """Multiplying the factors literally, in any order that passes
    validation, lands on the same canonical (sign, v_power)."""
    from oracles import brute_force_valid_orders

    interleaved = 0
    for q in (a3, a4, a3_source_mid):
        for p in enumerate_partitions(q, admissible_only=True):
            try:
                orders = brute_force_valid_orders(q, p)
            except InvalidInputError:
                continue
            g = q.vector({v: 2 for v in q.vertices})
            for m in kostant_series(q, p, g):
                base = monomial_normal_form(q, p, admissible_total_order(q, p), m)
                for entries in orders:
                    assert _literal_form(q, entries, m) == (base.sign, base.v_power)
                    if [e.block for e in entries] != sorted(e.block for e in entries):
                        interleaved += 1
    assert interleaved > 100


def test_simple_root_monomial_closed_form_matches_the_fold(rng):
    """On random acyclic quivers, gamma = 0 included, the normal form equals the
    literal product over the simple-root monomial folded copy by copy.  On
    singleton blocks the product is the simple-root monomial itself, so its
    form must be (1, 0): the closed form equals the fold."""
    zeros = 0
    for _ in range(240):
        q = oracles.random_acyclic_quiver(rng, max_vertices=5, max_arrows=6)
        g = q.zero() if rng.random() < 0.15 else oracles.random_dim_vector(rng, q, top=2)
        zeros += g.is_zero
        singles = make_partition(q, [[v] for v in q.vertices])
        (m,) = kostant_series(q, singles, g)
        order = admissible_total_order(q, singles)
        nf = monomial_normal_form(q, singles, order, m)
        assert (nf.sign, nf.v_power, nf.gamma) == (1, 0, g)
        assert _literal_form(q, order.entries, m) == (1, 0)
        p = rng.choice(enumerate_partitions(q, admissible_only=True))
        order = admissible_total_order(q, p)
        for m in kostant_series(q, p, g)[:5]:
            nf = monomial_normal_form(q, p, order, m)
            assert (nf.sign, nf.v_power) == _literal_form(q, order.entries, m)
    assert zeros >= 10


def test_product_form_matches_copy_by_copy_fold(rng):
    """The closed form for k copies of a factor against folding them in one by one."""
    from quiverdt.strata import _product_form

    leading_powers = 0
    for _ in range(300):
        q = oracles.random_acyclic_quiver(rng)
        pool = [g for g in (oracles.random_dim_vector(rng, q, top=2) for _ in range(3))
                if not g.is_zero] or [q.unit(q.vertices[0])]
        factors = [(rng.choice(pool), rng.randint(0, 6)) for _ in range(rng.randint(1, 5))]
        first = next((k for _, k in factors if k), 0)
        leading_powers += first > 1
        sign, power, total = _product_form(q, [(g.values, k) for g, k in factors])
        want = oracles.monomial_product_form(q, [g for g, k in factors for _ in range(k)])
        assert (sign, power, total) == (want[0], want[1], want[2].values)
    assert leading_powers > 100


def test_codim_a2_whole_gamma22(a2):
    p = whole(a2)
    want = {(0, 2, 0): (0, 0), (1, 1, 1): (1, 1), (2, 0, 2): (4, 0)}
    for lists, (codim, parity) in want.items():
        m = series_from_inner_lists(a2, p, [list(lists)])
        rep = codim_of_stratum(a2, p, m, a2.vector([2, 2]))
        assert (rep.codim, rep.sign_exponent_parity) == (codim, parity)


def test_codim_worked_case_matches_rank_locus(a3):
    """Rank-1 maps in Hom(C^2, C^3) drop codimension (2-1)(3-1) = 2."""
    p = make_partition(a3, [["1"], ["2", "3"]])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    rep = codim_of_stratum(a3, p, m, a3.vector([2, 3, 2]))
    assert rep.codim == (2 - 1) * (3 - 1)
    assert rep.sign_exponent_parity == 1


def test_codim_singleton_partition_is_zero(a3):
    p = make_partition(a3, [["1"], ["2"], ["3"]])
    g = a3.vector([2, 2, 2])
    (m,) = kostant_series(a3, p, g)
    assert codim_of_stratum(a3, p, m, g).codim == 0


def test_codim_gamma_mismatch_rejected(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    with pytest.raises(InvalidInputError):
        codim_of_stratum(a3, p, m, a3.vector([1, 1, 1]))


def test_codim_non_admissible_partition_block_route(atilde2):
    p = make_partition(atilde2, [["1", "3"], ["2"]])
    g = atilde2.vector([2, 2, 2])
    codims = sorted(
        codim_of_stratum(atilde2, p, m, g).codim for m in kostant_series(atilde2, p, g)
    )
    assert codims == [0, 1, 4]


def test_codim_parity_formula(a3, d4, rng):
    """Sign parity equals sum of mult * (height - 1) over the series."""
    for q in (a3, d4):
        for p in enumerate_partitions(q, admissible_only=True):
            g = q.vector({v: rng.randint(0, 2) for v in q.vertices})
            for m in kostant_series(q, p, g):
                rep = codim_of_stratum(q, p, m, g)
                want = sum(mult * (root.height - 1) for _, root, _, mult in m.entries())
                assert rep.sign_exponent_parity == want % 2


# edges of D5 and E6 (short leg 6 on the branch vertex 3); orientations are drawn per test
D5_EDGES = [("1", "2"), ("2", "3"), ("3", "4"), ("3", "5")]
E6_EDGES = [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6")]


def _seeded_strata(rng, edges, whole, split, per_draw=3):
    """Cases (quiver, partition, series, gamma) on random orientations of edges:
    whole draws on the one-block partition, then split draws on a random
    partition, each at a random gamma with entries 1-2 and with per_draw of
    its series sampled."""
    vertices = sorted({v for e in edges for v in e})
    cases = []
    for n in range(whole + split):
        q = oracles.build_quiver(vertices, [
            (f"a{i}", *(e if rng.random() < 0.5 else e[::-1])) for i, e in enumerate(edges)
        ])
        p = make_partition(q, [vertices]) if n < whole else rng.choice(enumerate_partitions(q))
        g = q.vector({v: rng.randint(1, 2) for v in q.vertices})
        series = kostant_series(q, p, g)
        cases += [(q, p, m, g) for m in rng.sample(series, min(per_draw, len(series)))]
    return cases


def test_codim_sweep_scans_each_distinct_block_once(rng):
    """Every series of every partition of a seeded E6 orientation: one scan
    per distinct block, by quiver equality, however many partitions and
    series share it."""
    positive_roots.cache_clear()
    q = oracles.random_orientation(rng, sorted({v for e in E6_EDGES for v in e}), E6_EDGES)
    g = q.vector({v: 1 for v in q.vertices})
    checks, blocks = 0, set()
    for p in enumerate_partitions(q):
        blocks.update(p.induced)
        for m in kostant_series(q, p, g):
            assert codim_additivity_check(q, p, m, g).equal
            checks += 1
    info = positive_roots.cache_info()
    assert info.misses == len(blocks) and checks


def test_block_codims_match_the_normal_form_oracle(quiver_dir, rng):
    """The Euler-form block codims equal the per-block normal-form solve, and an
    admissible stratum's own normal-form codim is their sum."""
    cases = []
    for path in sorted(quiver_dir.glob("*.json")):
        q = parse_quiver(path.read_text())
        for p in enumerate_partitions(q):
            for top in (1, 2, 3):
                g = q.vector({v: top for v in q.vertices})
                cases += [(q, p, m, g) for m in kostant_series(q, p, g)]
    cases += _seeded_strata(rng, D5_EDGES, 3, 3) + _seeded_strata(rng, E6_EDGES, 1, 2, per_draw=1)
    admissible = 0
    for q, p, m, g in cases:
        r = codim_of_stratum(q, p, m, g)
        assert r.block_codims == oracles.normal_form_block_codims(m)
        if check_admissible(q, p).admissible:
            admissible += 1
            assert r.codim == sum(r.block_codims)
    assert len(cases) > 400 and 0 < admissible < len(cases)


def test_type_a_stratum_codim_is_the_least_orbit_codim(quiver_dir):
    """A stratum is a union of full-quiver orbits, so its codim is the least of theirs."""
    q = parse_quiver((quiver_dir / "a3.json").read_text())
    cases = [(make_partition(q, [["1"], ["2", "3"]]), q.vector([2, 3, 2]))]
    cases += [(p, q.vector({v: top for v in q.vertices}))
              for p in enumerate_partitions(q) for top in (1, 2)]
    strata = 0
    for p, g in cases:
        for m in kostant_series(q, p, g):
            orbits = stratum_orbit_decomposition(q, p, m, g)
            assert codim_of_stratum(q, p, m, g).codim == min(o.orbit_codim() for o in orbits)
            strata += 1
    assert strata > 25


def test_additivity_worked_case(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    v = codim_additivity_check(a3, p, m, a3.vector([2, 3, 2]))
    assert v.equal and v.block_codims == (0, 2) and v.total_codim == 2


def test_additivity_whole_partition_trivial(a3):
    p = whole(a3)
    g = a3.vector([1, 1, 1])
    for m in kostant_series(a3, p, g):
        v = codim_additivity_check(a3, p, m, g)
        assert v.equal and len(v.block_codims) == 1


def test_additivity_randomized(a2, a3, a4, d4, atilde2, rng):
    cases = 0
    quivers = (a2, a3, a4, d4, atilde2)
    while cases < 30:
        q = rng.choice(quivers)
        p = rng.choice(enumerate_partitions(q))
        g = q.vector({v: rng.randint(0, 3) for v in q.vertices})
        series = kostant_series(q, p, g)
        if not series:
            continue
        m = rng.choice(series)
        assert codim_additivity_check(q, p, m, g).equal
        cases += 1


def test_betti_a2_whole_frozen(a2):
    p = whole(a2)
    v = betti_identity_check(a2, p, a2.vector([2, 2]), 60)
    assert v.equal
    p2 = poincare_series(2, 60)
    assert v.lhs == p2 * p2
    got = {(t.codim, t.factors) for t in v.terms}
    assert got == {(0, (2,)), (1, (1, 1, 1)), (4, (2, 2))}


def test_betti_computes_inner_orders_once_per_block(a3, inner_sorts):
    """One sort per distinct block quiver per process: the blocks A1 and A2,
    however many gammas and series read them."""
    p = make_partition(a3, [["1"], ["2", "3"]])
    for g in ([2, 3, 2], [3, 4, 3]):
        v = betti_identity_check(a3, p, a3.vector(g), 30)
        assert v.equal and len(v.terms) >= 3
        assert inner_sorts == [1, 3]


def test_codim_contracts_once_and_orders_each_block_once(a3, d4, monkeypatch, inner_sorts):
    """One contraction per check, and one sort per distinct block quiver per
    process, however many series and checks read it."""
    import quiverdt.strata as strata

    contractions = []
    real = strata._contraction_order

    def counted(*args):
        contractions.append(args)
        return real(*args)

    monkeypatch.setattr(strata, "_contraction_order", counted)
    blocks_seen = set()
    for q, blocks in ((a3, [["1"], ["2", "3"]]), (d4, [["3"], ["c", "1", "2"]])):
        p = make_partition(q, blocks)
        blocks_seen.update(p.induced)
        g = q.vector({v: 2 for v in q.vertices})
        for m in kostant_series(q, p, g):
            contractions.clear()
            codim_of_stratum(q, p, m, g)
            assert len(contractions) == 1
            assert codim_additivity_check(q, p, m, g).equal
            assert len(inner_sorts) == len(blocks_seen)


@pytest.mark.parametrize("check", ["codim", "betti"])
def test_second_check_on_a_partition_makes_no_sort(a3, d4, check, inner_sorts):
    """A first codim or Betti check sorts each block once; a second check on
    the same partition sorts nothing."""
    for q, blocks in ((a3, [["1"], ["2", "3"]]), (d4, [["3"], ["c", "1", "2"]])):
        p = make_partition(q, blocks)
        g = q.vector({v: 2 for v in q.vertices})

        def run():
            if check == "codim":
                return codim_additivity_check(q, p, kostant_series(q, p, g)[-1], g).equal
            return betti_identity_check(q, p, g, 20).equal

        inner_sorts.clear()
        assert run() and len(inner_sorts) == p.size
        inner_sorts.clear()
        assert run() and inner_sorts == []


def test_codims_ignore_how_the_blocks_are_listed(a3, a4, d4):
    """Every listing of an admissible partition's blocks, with its series passed
    alongside the listing that built them or another one, gives one stratum
    codimension and the same block codimensions by block members."""
    for q in (a3, a4, d4):
        g = q.vector({v: 2 for v in q.vertices})
        for p in enumerate_partitions(q, admissible_only=True):
            seen = {}
            for perm in itertools.permutations(p.blocks):
                listed = make_partition(q, perm)
                for m in kostant_series(q, listed, g):
                    key = frozenset(
                        (frozenset(b), kp.multiplicities)
                        for b, kp in zip(m.partition.blocks, m.per_block)
                    )
                    v = codim_additivity_check(q, listed, m, g)
                    by_members = {frozenset(b): c for b, c in zip(m.partition.blocks, v.block_codims)}
                    got = (codim_of_stratum(q, listed, m, g).codim, v.total_codim, by_members)
                    assert got == seen.setdefault(key, got)
                    assert codim_of_stratum(q, p, m, g).codim == got[0]
            assert seen


def test_forms_read_the_series_blocks_not_the_listing(quiver_dir):
    """On every series of every admissible multi-block partition of
    quivers/*.json at gamma = all-2, passing the series' blocks in reverse
    order gives the codimension report and normal form that its own
    partition gives."""
    checked = 0
    for path in sorted(quiver_dir.glob("*.json")):
        q = parse_quiver(path.read_text())
        g = q.vector({v: 2 for v in q.vertices})
        for p in enumerate_partitions(q, admissible_only=True):
            if p.size < 2:
                continue
            reverse = make_partition(q, p.blocks[::-1])
            order = admissible_total_order(q, p)
            for m in kostant_series(q, p, g):
                assert codim_of_stratum(q, reverse, m, g) == codim_of_stratum(q, p, m, g)
                assert (monomial_normal_form(q, reverse, order, m)
                        == monomial_normal_form(q, p, order, m))
                checked += 1
    assert checked == 56


def test_series_on_another_partition_is_refused(a3):
    g = a3.vector([2, 2, 2])
    p = make_partition(a3, [["1"], ["2", "3"]])
    other = make_partition(a3, [["1", "2"], ["3"]])
    m = kostant_series(a3, other, g)[0]
    with pytest.raises(KeyMismatchError, match="different partition"):
        codim_of_stratum(a3, p, m, g)
    with pytest.raises(KeyMismatchError, match="different partition"):
        monomial_normal_form(a3, p, admissible_total_order(a3, other), m)


def test_normal_form_refuses_an_order_from_another_partition(a3):
    """The order of [1,2][3] holds the root (1,1,0), which no block of
    [1][2,3] has; the error names it."""
    g = a3.vector([2, 2, 2])
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, make_partition(a3, [["1", "2"], ["3"]]))
    m = kostant_series(a3, p, g)[0]
    with pytest.raises(InvalidOrderError, match=re.escape(str(a3.vector([1, 1, 0])))):
        monomial_normal_form(a3, p, order, m)


@pytest.mark.parametrize("block, own", [
    ({(1, 1): 2}, (1, 4)),
    ({(0, 1): 1, (1, 0): 1, (1, 1): 1}, (-1, 7)),
    ({(0, 1): 2, (1, 0): 2}, (1, 8)),  # every root with a multiplicity is in the order
])
def test_normal_form_refuses_the_order_of_a_finer_partition(quiver_dir, block, own):
    """On quivers/a3.json at gamma = (2,2,2), each series of [1][2,3] with
    the order of [1][2][3]: that order names (0,1,0) before (0,0,1), which
    the block [2,3] must take the other way round (skew form -1), and
    leaves out its root (0,1,1).  The error names the first of these; the
    series' own order gives its form."""
    q = parse_quiver((quiver_dir / "a3.json").read_text())
    p = make_partition(q, [["1"], ["2", "3"]])
    m, = [m for m in kostant_series(q, p, q.vector([2, 2, 2]))
          if {r.values: k for r, k in m.per_block[1].nonzero()} == block]
    nf = monomial_normal_form(q, p, admissible_total_order(q, p), m)
    assert (nf.sign, nf.v_power, nf.gamma) == (*own, q.vector([2, 2, 2]))
    finer = admissible_total_order(q, make_partition(q, [["1"], ["2"], ["3"]]))
    first = f"{q.vector([0, 0, 1])} comes after {q.vector([0, 1, 0])} of its block, skew form -1"
    with pytest.raises(InvalidOrderError, match=re.escape(first)):
        monomial_normal_form(q, p, finer, m)


def test_normal_form_refuses_a_missing_or_repeated_root_and_a_wrong_inner_order(a3):
    """The own order of [1][2,3] is (1,0,0) | (0,0,1) (0,1,1) (0,1,0).
    Leaving out a root, naming one twice, or swapping (0,0,1) and (0,1,0),
    whose skew form is 1, raises InvalidOrderError naming the root at fault."""
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    m = kostant_series(a3, p, a3.vector([2, 2, 2]))[0]
    e = order.entries
    with pytest.raises(InvalidOrderError, match=re.escape(f"leaves out root {e[3].root}")):
        monomial_normal_form(a3, p, type(order)(a3, p, e[:3]), m)
    twice = e[:3] + (e[2],)
    with pytest.raises(InvalidOrderError, match=re.escape(f"{e[2].root} is named twice")):
        monomial_normal_form(a3, p, type(order)(a3, p, twice), m)
    swapped = (e[0], e[3], e[2], e[1])
    with pytest.raises(InvalidOrderError,
                       match=re.escape(f"{e[2].root} comes after {e[3].root} of its block")):
        monomial_normal_form(a3, p, type(order)(a3, p, swapped), m)


def test_betti_zero_gamma(a2):
    v = betti_identity_check(a2, whole(a2), a2.zero(), 20)
    assert v.equal and v.lhs.to_pairs() == [[0, 1]]


def test_betti_a3_worked_case(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    v = betti_identity_check(a3, p, a3.vector([2, 3, 2]), 40)
    assert v.equal
    got = {(t.codim, t.factors) for t in v.terms}
    assert got == {(0, (1, 2, 2)), (2, (1, 1, 2, 2)), (6, (2, 2, 3))}


def test_betti_non_admissible_partition(atilde2):
    p = make_partition(atilde2, [["1", "3"], ["2"]])
    v = betti_identity_check(atilde2, p, atilde2.vector([2, 2, 2]), 40)
    assert v.equal


def test_betti_cross_partition_consistency(a3):
    """Every partition reproduces the same left-hand product."""
    g = a3.vector([2, 2, 2])
    verdicts = [
        betti_identity_check(a3, p, g, 40) for p in enumerate_partitions(a3)
    ]
    assert all(v.equal for v in verdicts)
    assert len({tuple(map(tuple, v.lhs.to_pairs())) for v in verdicts}) == 1


def test_betti_sweep_small_gammas(a3_sink_mid, d4, rng):
    for q in (a3_sink_mid, d4):
        for p in enumerate_partitions(q, admissible_only=True):
            for _ in range(3):
                g = q.vector({v: rng.randint(0, 3) for v in q.vertices})
                assert betti_identity_check(q, p, g, 30).equal


def test_betti_matches_naive_oracle_on_every_quivers_partition(quiver_dir):
    for path in sorted(quiver_dir.glob("*.json")):
        q = parse_quiver(path.read_text())
        for p in enumerate_partitions(q):
            for top in (1, 2):
                g = q.vector({v: top for v in q.vertices})
                v = betti_identity_check(q, p, g, 40)
                assert v == oracles.naive_betti(q, p, g, 40)
                assert v.equal


@pytest.mark.parametrize("name, block, values, q_order", [
    ("a3", ("1", "2", "3"), [3, 4, 3], 80),
    ("a4", ("1", "2", "3"), [3, 7, 3, 6], 100),
    ("d4", ("c", "1", "2"), [5, 4, 3, 6], 120),
])
def test_betti_matches_naive_oracle_on_long_series(request, name, block, values, q_order):
    """The betti-long shapes: one A3 block, gamma entries 3-7, q-order 80-120."""
    q = request.getfixturevalue(name)
    p = make_partition(q, [list(block)] + [[v] for v in q.vertices if v not in block])
    g = q.vector(values)
    v = betti_identity_check(q, p, g, 2 * q_order)
    assert v == oracles.naive_betti(q, p, g, 2 * q_order)
    assert v.equal and len(v.terms) >= 10


def test_betti_wrong_codim_gives_one_diff_list_from_both_engines(a3, monkeypatch):
    from quiverdt import KostantPartition

    real = KostantPartition.orbit_codim
    monkeypatch.setattr(KostantPartition, "orbit_codim", lambda kp: real(kp) + 1)
    p = make_partition(a3, [["1"], ["2", "3"]])
    g = a3.vector([2, 3, 2])
    v = betti_identity_check(a3, p, g, 40)
    assert not v.equal and v.diffs
    assert v == oracles.naive_betti(a3, p, g, 40)


def test_betti_divides_once_per_distinct_factor_prefix(a3, d4, monkeypatch):
    import quiverdt.strata as strata

    calls = []
    real = strata.times_poincare
    monkeypatch.setattr(strata, "times_poincare", lambda s, k: calls.append(k) or real(s, k))
    for q, blocks, values in ((a3, [["1"], ["2", "3"]], [2, 3, 2]),
                              (a3, [["1", "2", "3"]], [4, 6, 4]),
                              (d4, [["c", "1", "2"], ["3"]], [5, 3, 4, 2])):
        p = make_partition(q, blocks)
        calls.clear()
        v = betti_identity_check(q, p, q.vector(values), 60)
        keys = [tuple(sorted(x for x in values if x))] + [t.factors for t in v.terms]
        prefixes = {f[:n] for f in keys for n in range(2, len(f) + 1)}
        assert v.equal and len(calls) == len(prefixes)
        assert len(calls) < sum(len(f) - 1 for f in keys)


def test_inner_lists_roundtrip(a3, rng):
    p = make_partition(a3, [["1"], ["2", "3"]])
    for _ in range(10):
        g = a3.vector({v: rng.randint(0, 3) for v in a3.vertices})
        for m in kostant_series(a3, p, g):
            lists = inner_lists(m)
            back = series_from_inner_lists(a3, p, lists)
            assert back.multiplicities() == m.multiplicities()


def test_series_from_inner_lists_validates(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    with pytest.raises(InvalidInputError):
        series_from_inner_lists(a3, p, [[2]])
    with pytest.raises(InvalidInputError):
        series_from_inner_lists(a3, p, [[2], [1, 1]])
    with pytest.raises(InvalidInputError):
        series_from_inner_lists(a3, p, [[2], [1, 1, -1]])


def test_orbit_decomposition_worked_case(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    g = a3.vector([2, 3, 2])
    m = series_from_inner_lists(a3, p, [[2], [1, 1, 2]])
    orbits = stratum_orbit_decomposition(a3, p, m, g)
    assert len(orbits) == 5
    for orb in orbits:
        assert orb.dimension_vector() == g


def test_orbit_decomposition_whole_partition_identity(a3):
    p = whole(a3)
    g = a3.vector([2, 3, 2])
    for m in kostant_series(a3, p, g):
        orbits = stratum_orbit_decomposition(a3, p, m, g)
        assert len(orbits) == 1
        assert tuple(orbits[0].multiplicities) == tuple(m.multiplicities())


def test_orbit_decomposition_partitions_everything(a3, a4):
    """Across all strata the orbit lists tile the full Kostant set."""
    for q, blocks in ((a3, [["1"], ["2", "3"]]), (a4, [["1", "2"], ["3", "4"]])):
        p = make_partition(q, blocks)
        g = q.vector({v: 2 for v in q.vertices})
        seen = []
        for m in kostant_series(q, p, g):
            for orb in stratum_orbit_decomposition(q, p, m, g):
                seen.append(tuple(orb.multiplicities))
        full = {tuple(kp.multiplicities) for kp in kostant_partitions(q, g)}
        assert len(seen) == len(full)
        assert set(seen) == full


def test_orbit_decomposition_rejects_non_type_a(d4):
    p = make_partition(d4, [["c", "1"], ["2"], ["3"]])
    g = d4.vector([1, 1, 1, 1])
    for m in kostant_series(d4, p, g):
        with pytest.raises(NotTypeAError):
            stratum_orbit_decomposition(d4, p, m, g)
        break


@pytest.mark.parametrize("name, blocks, shape", [
    ("atilde2", [["1"], ["2"], ["3"]], "not Dynkin (cycle)"),
    ("kronecker", [["1"], ["2"]], "not Dynkin (multi-edge)"),
    ("two_paths", [["1", "2"], ["3", "4"]], "not connected"),
])
def test_orbit_decomposition_rejects_every_non_path(request, name, blocks, shape):
    if name == "two_paths":
        q = oracles.build_quiver(["1", "2", "3", "4"], [("a", "2", "1"), ("b", "4", "3")])
    else:
        q = request.getfixturevalue(name)
    p = make_partition(q, blocks)
    g = q.vector({v: 1 for v in q.vertices})
    m = kostant_series(q, p, g)[0]
    with pytest.raises(NotTypeAError, match=rf"needs type A; the quiver is {re.escape(shape)}"):
        stratum_orbit_decomposition(q, p, m, g)
