"""Admissible root orders: block-wise construction and rule checking."""
from __future__ import annotations

import pytest

import oracles
from quiverdt import (
    InvalidOrderError,
    RootEntry,
    admissible_total_order,
    enumerate_partitions,
    expected_root_multiset,
    induced_subquiver,
    make_partition,
    reineke_inner_order,
    skew_form,
    validate_order,
)
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
