"""Admissible root orders: block-wise construction and rule checking."""
from __future__ import annotations

import random
from collections import Counter
from functools import lru_cache

import pytest

import oracles
from quiverdt import (
    DynkinType,
    InvalidOrderError,
    RootEntry,
    admissible_total_order,
    classify_dynkin,
    enumerate_partitions,
    expected_root_multiset,
    induced_subquiver,
    make_partition,
    parse_quiver,
    positive_roots,
    reineke_inner_order,
    skew_form,
    validate_order,
)
from quiverdt import ordering as ordering_mod
from quiverdt.dynkin import _root_count
from oracles import brute_force_valid_orders


def order_values(order):
    return [e.root.values for e in order.entries]


def test_inner_order_a2_block_of_a3(a3):
    block = induced_subquiver(a3, ["2", "3"])
    assert [r.values for r in reineke_inner_order(block)] == [(0, 1), (1, 1), (1, 0)]


def test_inner_order_a1_block(a3):
    block = induced_subquiver(a3, ["1"])
    assert [r.values for r in reineke_inner_order(block)] == [(1,)]


def test_inner_order_a2_other_labels(a2):
    assert [r.values for r in reineke_inner_order(a2)] == [(0, 1), (1, 1), (1, 0)]


def test_inner_order_respects_skew_rule(d4):
    roots = reineke_inner_order(d4)
    for i in range(len(roots)):
        for j in range(i + 1, len(roots)):
            assert skew_form(d4, roots[i], roots[j]) >= 0


def test_total_order_a3_two_blocks(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    assert order_values(order) == [(1, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)]
    assert [e.block for e in order.entries] == [0, 1, 1, 1]


def test_total_order_singletons_is_topological(a3):
    p = make_partition(a3, [["1"], ["2"], ["3"]])
    order = admissible_total_order(a3, p)
    assert order_values(order) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]


def test_total_order_whole_a3(a3):
    p = make_partition(a3, [["1", "2", "3"]])
    order = admissible_total_order(a3, p)
    assert order_values(order) == [
        (0, 0, 1),
        (0, 1, 1),
        (0, 1, 0),
        (1, 1, 1),
        (1, 1, 0),
        (1, 0, 0),
    ]


def test_total_order_unsorted_blocks_accepted(a3):
    p = make_partition(a3, [["2", "3"], ["1"]])
    order = admissible_total_order(a3, p)
    assert order_values(order) == [(1, 0, 0), (0, 0, 1), (0, 1, 1), (0, 1, 0)]


def test_constructed_orders_validate(a3, a4, d4, atilde2):
    for q in (a3, a4, d4, atilde2):
        for p in enumerate_partitions(q, admissible_only=True):
            order = admissible_total_order(q, p)
            assert validate_order(q, p, order).valid
            assert oracles.validate_order_technical(q, p, order).valid


def test_swapped_inner_pair_violates(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    e = list(order.entries)
    e[2], e[3] = e[3], e[2]
    verdict = validate_order(a3, p, e)
    assert not verdict.valid
    u, v, rule, value = verdict.violation
    assert rule == "within-block" and value == -1


def test_validate_rejects_non_permutation(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    order = admissible_total_order(a3, p)
    with pytest.raises(InvalidOrderError):
        validate_order(a3, p, order.entries[:-1])
    with pytest.raises(InvalidOrderError):
        validate_order(a3, p, order.entries + (order.entries[0],))
    wrong_block = tuple(RootEntry(e.root, 1 - e.block) for e in order.entries)
    with pytest.raises(InvalidOrderError):
        validate_order(a3, p, wrong_block)


def test_expected_root_multiset_counts(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    ms = expected_root_multiset(a3, p)
    assert sum(ms.values()) == 4
    assert all(c == 1 for c in ms.values())


def test_brute_force_finds_no_order_for_bad_partition(atilde2):
    p = make_partition(atilde2, [["1", "3"], ["2"]])
    assert brute_force_valid_orders(atilde2, p) == []


def test_brute_force_contains_constructed_order(a3, atilde2):
    for q, blocks in ((a3, [["1"], ["2", "3"]]), (atilde2, [["1"], ["2", "3"]])):
        p = make_partition(q, blocks)
        constructed = tuple(admissible_total_order(q, p).entries)
        found = brute_force_valid_orders(q, p)
        assert constructed in found
        for perm in found:
            assert validate_order(q, p, perm).valid


def test_brute_force_matches_direct_rule_scan(a3):
    """Cross-check the search against an inline restatement of the rules."""
    from itertools import permutations

    p = make_partition(a3, [["1"], ["2", "3"]])
    pool = sorted(
        expected_root_multiset(a3, p).elements(),
        key=lambda e: (e.block, e.root.values),
    )

    def ok(perm):
        for u in range(len(perm)):
            for v in range(u + 1, len(perm)):
                val = skew_form(a3, perm[u].root, perm[v].root)
                if perm[u].block == perm[v].block and val < 0:
                    return False
                if perm[u].block != perm[v].block and val > 0:
                    return False
        return True

    want = {perm for perm in permutations(pool) if ok(perm)}
    assert set(brute_force_valid_orders(a3, p)) == want


def test_brute_force_root_limit(d4):
    p = make_partition(d4, [["c", "1", "2", "3"]])
    with pytest.raises(Exception):
        brute_force_valid_orders(d4, p, max_roots=8)


def test_adjacent_zero_skew_swap_stays_valid(a3, a4, d4):
    """Swapping adjacent entries with vanishing pairing keeps validity."""
    for q in (a3, a4, d4):
        for p in enumerate_partitions(q, admissible_only=True):
            order = admissible_total_order(q, p)
            entries = list(order.entries)
            for i in range(len(entries) - 1):
                if skew_form(q, entries[i].root, entries[i + 1].root) == 0:
                    swapped = list(entries)
                    swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                    assert validate_order(q, p, swapped).valid


GRAPHS = {  # vertices and undirected edges of the seeded orientations
    "A5": (["1", "2", "3", "4", "5"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5")]),
    "D5": (["1", "2", "3", "4", "5"], [("1", "2"), ("2", "3"), ("3", "4"), ("3", "5")]),
    "E6": (["1", "2", "3", "4", "5", "6"],
           [("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6")]),
    "Atilde3": (["1", "2", "3", "4"], [("1", "2"), ("2", "3"), ("3", "4"), ("4", "1")]),
}


def file_and_seeded_partitions(quiver_dir):
    """Every partition of quivers/*.json and of two seeded orientations of each graph."""
    quivers = [parse_quiver(f.read_text()) for f in sorted(quiver_dir.glob("*.json"))]
    for name, (vertices, edges) in GRAPHS.items():
        rng = random.Random(name)
        quivers += [oracles.random_orientation(rng, vertices, edges) for _ in range(2)]
    return [(q, p) for q in quivers for p in enumerate_partitions(q)]


def corruptions(q, p, entries):
    """Named wrong candidates built from a right one."""
    first = entries[0]
    root, j = first
    yield "dropped root", entries[1:]
    yield "duplicated root", entries + (first,)
    yield "duplicate in place of a root", entries[:-1] + (first,)
    yield "block index out of range", (RootEntry(root, p.size),) + entries[1:]
    yield "twice a root", (RootEntry(root * 2, j),) + entries[1:]
    yield "zero vector", (RootEntry(q.zero(), j),) + entries[1:]
    if p.size > 1:
        yield "wrong block index", (RootEntry(root, (j + 1) % p.size),) + entries[1:]
        other = next(e for e in entries if e.block != j)
        yield "root of another block", (RootEntry(other.root, j),) + entries[1:]


def permutation_message(expected, entries):
    got = Counter(entries)
    missing = [(str(e.root), e.block) for e in (expected - got).elements()]
    extra = [(str(e.root), e.block) for e in (got - expected).elements()]
    return (f"candidate is not a permutation of the expected roots; "
            f"missing {missing}, extra {extra}")


def test_root_count_check_accepts_what_the_enumeration_accepts(quiver_dir, monkeypatch):
    """On every partition the enumerated multiset, in either direction, passes
    the permutation check and gets the oracle's verdict, and each corrupted
    candidate raises with the enumeration's message."""
    # each corrupted candidate enumerates its partition's roots again; once is enough here
    monkeypatch.setattr(ordering_mod, "positive_roots", lru_cache(ordering_mod.positive_roots))
    checked = 0
    for q, p in file_and_seeded_partitions(quiver_dir):
        expected = expected_root_multiset(q, p)
        entries = tuple(expected)
        for candidate in (entries, entries[::-1]):
            assert validate_order(q, p, candidate) == oracles.validate_order_technical(q, p, candidate)
        for name, bad in corruptions(q, p, entries):
            assert Counter(bad) != expected, name
            with pytest.raises(InvalidOrderError) as err:
                validate_order(q, p, bad)
            assert str(err.value) == permutation_message(expected, bad), name
            checked += 1
    assert checked > 600


def test_root_count_check_follows_the_type_table():
    """A_n: n(n+1)/2, D_n: n(n-1), E6/E7/E8: 36/63/120, as the enumeration
    counts them for every type up to rank 6 and for E6."""
    paths = {n: oracles.build_quiver([str(i) for i in range(n)],
                                     [(f"a{i}", str(i + 1), str(i)) for i in range(n - 1)])
             for n in range(1, 7)}
    d = {n: oracles.build_quiver([str(i) for i in range(n)],
                                 [(f"a{i}", str(i + 1), str(i)) for i in range(n - 2)]
                                 + [("b", str(n - 1), str(n - 3))])
         for n in range(4, 7)}
    e6 = oracles.build_quiver([str(i) for i in range(6)],
                              [(f"a{i}", str(i + 1), str(i)) for i in range(4)] + [("b", "5", "2")])
    for q in [*paths.values(), *d.values(), e6]:
        t = classify_dynkin(q)
        assert _root_count(t) == len(positive_roots(q).roots), t
    assert [_root_count(DynkinType("E", n)) for n in (6, 7, 8)] == [36, 63, 120]


def _star_edges(legs):
    """Edges of a tree with legs of the given lengths hanging off a center c."""
    edges = []
    for i, length in enumerate(legs):
        prev = "c"
        for j in range(length):
            edges.append((prev, f"v{i}_{j}"))
            prev = f"v{i}_{j}"
    return edges


@pytest.mark.parametrize("legs, rank", [((1, 1, 2), 5), ((1, 2, 2), 6), ((1, 2, 3), 7)],
                         ids=["D5", "E6", "E7"])
def test_one_block_order_of_d5_e6_e7_stars_validates(legs, rank, rng):
    """The memoized inner order of a seeded D5, E6 or E7 orientation, as the
    one-block total order, passes validate_order."""
    edges = _star_edges(legs)
    q = oracles.random_orientation(rng, sorted({v for e in edges for v in e}), edges)
    p = make_partition(q, [list(q.vertices)])
    order = admissible_total_order(q, p)
    assert len(order.entries) == _root_count(classify_dynkin(q)) and q.n == rank
    assert validate_order(q, p, order).valid
