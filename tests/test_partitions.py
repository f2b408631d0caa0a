"""Dynkin subquiver partitions: construction, admissibility, Kostant series."""
from __future__ import annotations

import itertools
import time

import pytest

import oracles
from quiverdt import (
    DynkinType,
    NotAdmissibleError,
    NotConnectedError,
    NotDynkinError,
    check_admissible,
    enumerate_partitions,
    induced_subquiver,
    kostant_series,
    make_partition,
    order_blocks,
)


def test_make_partition_a3_two_blocks(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    assert p.blocks == (("1",), ("2", "3"))
    assert p.types == (DynkinType("A", 1), DynkinType("A", 2))
    assert str(p) == "[1][2,3]"
    assert p.size == 2


def test_make_partition_rejects_disconnected_block(a3):
    with pytest.raises(NotConnectedError):
        make_partition(a3, [["1", "3"], ["2"]])


def test_make_partition_rejects_kronecker_block(kronecker):
    with pytest.raises(NotDynkinError) as exc:
        make_partition(kronecker, [["1", "2"]])
    assert exc.value.kind == "multi-edge"


def test_make_partition_rejects_cyclic_block(atilde2):
    with pytest.raises(NotDynkinError) as exc:
        make_partition(atilde2, [["1", "2", "3"]])
    assert exc.value.kind == "cycle"


def test_enumerate_a3_all_admissible(a3):
    ps = enumerate_partitions(a3)
    assert [str(p) for p in ps] == ["[1][2][3]", "[1][2,3]", "[1,2][3]", "[1,2,3]"]
    assert all(check_admissible(a3, p).admissible for p in ps)
    assert len(enumerate_partitions(a3, admissible_only=True)) == 4


def test_enumerate_kronecker(kronecker):
    assert [str(p) for p in enumerate_partitions(kronecker)] == ["[1][2]"]
    adm = enumerate_partitions(kronecker, admissible_only=True)
    assert [p.blocks for p in adm] == [(("1",), ("2",))]


def test_enumerate_single_vertex():
    q = oracles.build_quiver(["1"], [])
    assert len(enumerate_partitions(q)) == 1


def test_enumerate_atilde2(atilde2):
    ps = enumerate_partitions(atilde2)
    assert [str(p) for p in ps] == ["[1][2][3]", "[1][2,3]", "[1,2][3]", "[1,3][2]"]
    adm = enumerate_partitions(atilde2, admissible_only=True)
    assert [str(p) for p in adm] == ["[1][2][3]", "[1][2,3]", "[1,2][3]"]


def test_enumerate_d4_admissible_count(d4):
    adm = enumerate_partitions(d4, admissible_only=True)
    assert [str(p) for p in adm] == [
        "[c][1][2][3]",
        "[c,1][2][3]",
        "[c,2][1][3]",
        "[c,3][1][2]",
        "[c,1,2][3]",
        "[c,1,3][2]",
        "[c,2,3][1]",
        "[c,1,2,3]",
    ]


def test_enumerate_classifies_each_candidate_block_once(d4, monkeypatch):
    """Partitions are built from the candidates' shapes, not classified again,
    and each remaining vertex set's candidates are found once per call.

    With center c first, the recursion reaches 8 remaining sets: it tests
    8 blocks on {c,1,2,3}, 4 on {1,2,3}, 2 on each of {1,2}, {1,3} and
    {2,3}, and 1 on each of {1}, {2} and {3}: 21 calls for 8 partitions of
    20 blocks.
    """
    import quiverdt.partitions as partitions

    calls = []
    real = partitions.classify_dynkin
    monkeypatch.setattr(partitions, "classify_dynkin", lambda sub: calls.append(sub) or real(sub))
    ps = enumerate_partitions(d4)
    assert len(ps) == 8 and sum(p.size for p in ps) == 20
    assert len(calls) == 21
    monkeypatch.undo()
    assert ps == [make_partition(d4, p.blocks) for p in ps]


def test_admissible_verdict_atilde2_good(atilde2):
    v = check_admissible(atilde2, make_partition(atilde2, [["1"], ["2", "3"]]))
    assert v.admissible and v.witness is None and v.ordered


def test_admissible_verdict_atilde2_two_cycle(atilde2):
    v = check_admissible(atilde2, make_partition(atilde2, [["1", "3"], ["2"]]))
    assert not v.admissible
    assert v.witness == ("1+3", "2", "1+3")


def test_admissible_verdict_atilde2_loop_block(atilde2):
    """Raw-blocks diagnosis keeps the spanning forest and reports the loop."""
    v = check_admissible(atilde2, [["1", "2", "3"]])
    assert not v.admissible
    assert v.witness == ("1+2+3", "1+2+3")


def test_order_blocks_reorders(a3):
    p = make_partition(a3, [["2", "3"], ["1"]])
    assert str(order_blocks(a3, p)) == "[1][2,3]"


def test_order_blocks_idempotent(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    q = order_blocks(a3, p)
    assert q.blocks == p.blocks
    assert order_blocks(a3, q).blocks == q.blocks


def test_order_blocks_rejects_non_admissible(atilde2):
    p = make_partition(atilde2, [["1", "3"], ["2"]])
    with pytest.raises(NotAdmissibleError):
        order_blocks(atilde2, p)


def test_check_admissible_agrees_with_order_blocks(a2, a2_rev, a3, a4, d4, atilde2, kronecker):
    """Every partition, every listing of its blocks: one decision, one witness,
    and ordered exactly when every cross-block arrow's head block is listed first."""
    cases = 0
    for q in (a2, a2_rev, a3, a4, d4, atilde2, kronecker):
        for p in enumerate_partitions(q):
            for perm in itertools.permutations(p.blocks):
                listed = make_partition(q, perm)
                verdict = check_admissible(q, listed)
                try:
                    ordered = order_blocks(q, listed)
                except NotAdmissibleError as e:
                    assert not verdict.admissible and not verdict.ordered
                    assert verdict.witness == e.witness
                else:
                    assert verdict.admissible and verdict.witness is None
                    assert verdict.ordered == (ordered.blocks == listed.blocks)
                    at = {v: j for j, b in enumerate(listed.blocks) for v in b}
                    heads_first = all(at[a.head] <= at[a.tail] for a in q.arrows)
                    assert verdict.ordered == heads_first
                cases += 1
    assert cases > 100
    raw = check_admissible(atilde2, [["1", "2", "3"]])
    assert raw.witness == ("1+2+3", "1+2+3") and not raw.ordered


def test_admissible_contraction_needs_no_cycle_scan(a4, d4, atilde2, monkeypatch):
    """An acyclic contraction is decided by its topological sort alone."""
    import quiverdt.partitions as partitions
    import quiverdt.quiver as quiver

    def scan(q):
        raise AssertionError(f"cycle scan of an acyclic contraction {q.vertices}")

    cases = [(q, p) for q in (a4, d4, atilde2) for p in enumerate_partitions(q, admissible_only=True)]
    monkeypatch.setattr(quiver, "shortest_directed_cycle", scan)
    # and any binding of it that partitions imports
    monkeypatch.setattr(partitions, "shortest_directed_cycle", scan, raising=False)
    for q, p in cases:
        assert check_admissible(q, p).admissible


def _quiver_files():
    from conftest import QUIVER_DIR
    from quiverdt import parse_quiver

    return [parse_quiver(path.read_text()) for path in sorted(QUIVER_DIR.glob("*.json"))]


def _order_or_witness(q, blocks):
    from quiverdt.partitions import _contraction_order

    try:
        return _contraction_order(q, blocks)
    except NotAdmissibleError as e:
        return e.witness


def test_contraction_order_is_least_valid_block_permutation(rng):
    """Every listing of every partition of quivers/*.json, and seeded random
    block splits of random quivers: the order is the lexicographically least
    permutation that lists each cross-block arrow's head block first, and
    there is none exactly when the contraction is not admissible."""
    cases = [(q, perm) for q in _quiver_files() for p in enumerate_partitions(q)
             for perm in itertools.permutations(p.blocks)]
    for _ in range(300):
        q = (oracles.random_cyclic_quiver(rng) if rng.random() < 0.5 else
             oracles.random_acyclic_quiver(rng, max_vertices=6, max_arrows=8))
        cases.append((q, tuple(map(tuple, oracles.random_set_partition(rng, q.vertices)))))
    rejected = 0
    for q, blocks in cases:
        want = oracles.brute_contraction_order(q, blocks)
        got = _order_or_witness(q, blocks)
        if want is not None:
            assert got == want
            continue
        rejected += 1
        # the witness: a block whose arrows close an undirected cycle, or else
        # the name-keyed search's shortest cycle among the cross-block arrows
        names = ["+".join(b) for b in blocks]
        at = {v: j for j, b in enumerate(blocks) for v in b}
        if len(got) == 2:
            block = blocks[names.index(got[0])]
            assert oracles.brute_contraction_order(induced_subquiver(q, block), (block,)) is None
        else:
            cross = [(names[at[a.tail]], names[at[a.head]]) for a in q.arrows
                     if at[a.tail] != at[a.head]]
            assert got == oracles.bfs_shortest_cycle(names, cross)
    assert len(cases) > 350 and 50 < rejected < len(cases) - 50


def test_admissible_contraction_calls_no_cycle_search(a4, d4, atilde2, monkeypatch):
    """The Kahn sort alone decides an admissible contraction."""
    import quiverdt.partitions as partitions
    import quiverdt.quiver as quiver

    def search(*args):
        raise AssertionError("cycle search of an admissible contraction")

    cases = [(q, p) for q in (a4, d4, atilde2, *_quiver_files())
             for p in enumerate_partitions(q, admissible_only=True)]
    for module, name in ((partitions, "_shortest_cycle"), (quiver, "_shortest_cycle"),
                         (quiver, "shortest_directed_cycle")):
        monkeypatch.setattr(module, name, search)
    for q, p in cases:
        assert check_admissible(q, p).admissible
        assert order_blocks(q, p).size == p.size
    with pytest.raises(AssertionError, match="cycle search"):
        check_admissible(atilde2, make_partition(atilde2, [["1", "3"], ["2"]]))


def test_kostant_series_a3_worked_case(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    series = kostant_series(a3, p, a3.vector([2, 3, 2]))
    assert len(series) == 3
    for m in series:
        assert m.gamma() == a3.vector([2, 3, 2])


def test_kostant_series_singletons_unique(a3):
    p = make_partition(a3, [["1"], ["2"], ["3"]])
    series = kostant_series(a3, p, a3.vector([2, 2, 2]))
    assert len(series) == 1
    assert series[0].multiplicities() == [2, 2, 2]


def test_kostant_series_zero_gamma(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    series = kostant_series(a3, p, a3.zero())
    assert len(series) == 1 and series[0].gamma() == a3.zero()


def test_kostant_series_counts_product_of_blocks(a3, rng):
    """Series count factors as the product of per-block Kostant counts."""
    from quiverdt import kostant_partitions

    p = make_partition(a3, [["1"], ["2", "3"]])
    for _ in range(10):
        g = oracles.random_dim_vector(rng, a3, top=3)
        expect = 1
        for j, blk in enumerate(p.induced):
            expect *= len(kostant_partitions(blk, g.restrict(blk.vertices)))
        assert len(kostant_series(a3, p, g)) == expect


def test_kostant_series_cap_is_exact_at_its_boundary(a4):
    """Two A2 blocks with 2 Kostant partitions each: 4 series fit a cap of 4,
    and a cap of 3 stops at the product, not in either block."""
    from quiverdt import EnumerationCapError

    p = make_partition(a4, [["1", "2"], ["3", "4"]])
    gamma = a4.vector([1, 1, 1, 1])
    assert len(kostant_series(a4, p, gamma, cap=4)) == 4
    with pytest.raises(EnumerationCapError, match="more than 3 Kostant series"):
        kostant_series(a4, p, gamma, cap=3)


def test_kostant_series_entries_embed(a3):
    p = make_partition(a3, [["1"], ["2", "3"]])
    series = kostant_series(a3, p, a3.vector([2, 3, 2]))
    for m in series:
        total = a3.zero()
        for block_idx, local_root, embedded, mult in m.entries():
            assert embedded.vertices == a3.vertices
            assert embedded.restrict(p.blocks[block_idx]).values == local_root.values
            assert mult >= 0
            total = total + mult * embedded
        assert total == m.gamma()


def test_all_singletons_always_present_and_admissible(a2, a2_rev, a3, a4, d4,
                                                      atilde2, kronecker):
    for q in (a2, a2_rev, a3, a4, d4, atilde2, kronecker):
        found = enumerate_partitions(q)
        singles = [p for p in found if all(len(b) == 1 for b in p.blocks)]
        assert len(singles) == 1
        assert check_admissible(q, singles[0]).admissible


def test_witness_rewalks_as_contraction_cycle(atilde2):
    bad = make_partition(atilde2, [["1", "3"], ["2"]])
    verdict = check_admissible(atilde2, bad)
    witness = verdict.witness
    assert witness[0] == witness[-1] and len(witness) >= 2
    members = {"+".join(b): set(b) for b in bad.blocks}
    for tail, head in zip(witness, witness[1:]):
        assert any(a.tail in members[tail] and a.head in members[head] for a in atilde2.arrows)

    loop = check_admissible(atilde2, [["1", "2", "3"]])
    assert loop.witness == ("1+2+3", "1+2+3")
    # a loop witness names one block holding more arrows than any tree could
    assert len(atilde2.arrows) >= atilde2.n


def test_whole_partition_series_match_kostant_partitions(a2, a3, d4):
    from quiverdt import kostant_partitions

    for q in (a2, a3, d4):
        p = make_partition(q, [list(q.vertices)])
        g = q.vector({v: 2 for v in q.vertices})
        series = kostant_series(q, p, g)
        direct = kostant_partitions(q, g)
        assert [m.multiplicities() for m in series] == [
            list(kp.multiplicities) for kp in direct
        ]


def test_enumerate_partitions_cap_counts_every_leaf(a3, atilde2):
    """A cap equal to the number of partitions lets them all through; one less
    stops at the next leaf, admissible or not, also with admissible_only."""
    from quiverdt import EnumerationCapError

    for q in (a3, atilde2):
        found = enumerate_partitions(q)
        assert enumerate_partitions(q, cap=len(found)) == found
        for admissible_only in (False, True):
            with pytest.raises(EnumerationCapError, match=f"more than {len(found) - 1} partitions"):
                enumerate_partitions(q, admissible_only=admissible_only, cap=len(found) - 1)
    assert len(enumerate_partitions(atilde2, admissible_only=True)) < len(enumerate_partitions(atilde2))


def test_enumerate_partitions_stops_at_the_cap_on_a_long_path():
    """A 14-vertex path has 8,192 partitions; a cap of 10 stops at the 11th."""
    from quiverdt import EnumerationCapError

    q = oracles.path_quiver(14)
    started = time.perf_counter()
    with pytest.raises(EnumerationCapError, match="more than 10 partitions"):
        enumerate_partitions(q, cap=10)
    assert time.perf_counter() - started < 5


def test_enumerate_partitions_rejects_the_empty_quiver():
    from quiverdt import InvalidInputError

    with pytest.raises(InvalidInputError, match="empty quiver"):
        enumerate_partitions(oracles.build_quiver([], []))
