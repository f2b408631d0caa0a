"""ADE recognition, positive root enumeration, Kostant partitions."""
from __future__ import annotations

import time

import pytest

import oracles
from quiverdt import (
    DynkinType,
    EnumerationCapError,
    NotConnectedError,
    NotDynkin,
    NotDynkinError,
    classify_dynkin,
    euler_form,
    kostant_partitions,
    make_partition,
    positive_roots,
)


def star(legs):
    """Tree with legs of the given lengths hanging off a center c."""
    vertices = ["c"]
    arrows = []
    for i, length in enumerate(legs):
        prev = "c"
        for j in range(length):
            v = f"v{i}_{j}"
            vertices.append(v)
            arrows.append((f"a{i}_{j}", v, prev))
            prev = v
    return oracles.build_quiver(vertices, arrows)


def test_classify_a3(a3):
    assert classify_dynkin(a3) == DynkinType("A", 3)


def test_classify_single_vertex():
    q = oracles.build_quiver(["1"], [])
    assert classify_dynkin(q) == DynkinType("A", 1)


def test_classify_path_orientation_free(a3_source_mid, a3_sink_mid):
    assert classify_dynkin(a3_source_mid) == DynkinType("A", 3)
    assert classify_dynkin(a3_sink_mid) == DynkinType("A", 3)


def test_classify_kronecker_multi_edge(kronecker):
    out = classify_dynkin(kronecker)
    assert isinstance(out, NotDynkin) and out.kind == "multi-edge"


def test_classify_cycle(atilde2):
    out = classify_dynkin(atilde2)
    assert isinstance(out, NotDynkin) and out.kind == "cycle"


def test_classify_d4(d4):
    assert classify_dynkin(d4) == DynkinType("D", 4)


@pytest.mark.parametrize(
    "legs, family, rank",
    [
        ((1, 1, 2), "D", 5),
        ((1, 1, 4), "D", 7),
        ((1, 2, 2), "E", 6),
        ((1, 2, 3), "E", 7),
        ((1, 2, 4), "E", 8),
    ],
)
def test_classify_de_families(legs, family, rank):
    assert classify_dynkin(star(legs)) == DynkinType(family, rank)


@pytest.mark.parametrize("legs", [(1, 2, 5), (2, 2, 2), (1, 1, 1, 1)])
def test_classify_rejects_bad_stars(legs):
    out = classify_dynkin(star(legs))
    assert isinstance(out, NotDynkin) and out.kind == "branching"


def test_classify_rejects_two_branch_vertices():
    q = star((1, 1, 2))
    extra = oracles.build_quiver(
        list(q.vertices) + ["w"],
        [(a.name, a.tail, a.head) for a in q.arrows] + [("w0", "w", "v2_0")],
    )
    out = classify_dynkin(extra)
    assert isinstance(out, NotDynkin) and out.kind == "branching"


def test_classify_rejects_disconnected():
    q = oracles.build_quiver(["1", "2", "3"], [("a", "2", "1")])
    with pytest.raises(NotConnectedError):
        classify_dynkin(q)
    with pytest.raises(NotConnectedError):
        classify_dynkin(oracles.build_quiver([], []))


def test_positive_roots_a2(a2):
    rs = positive_roots(a2)
    assert rs.dynkin_type == DynkinType("A", 2)
    assert {r.values for r in rs.roots} == {(1, 0), (0, 1), (1, 1)}


def test_positive_roots_a3_has_six(a3):
    rs = positive_roots(a3)
    assert len(rs.roots) == 6
    assert (1, 1, 1) in {r.values for r in rs.roots}


def test_positive_roots_d4_has_twelve(d4):
    assert len(positive_roots(d4).roots) == 12


def test_positive_roots_sorted_by_height_then_values(a3):
    rs = positive_roots(a3)
    keys = [(r.height, r.values) for r in rs.roots]
    assert keys == sorted(keys)


def test_positive_roots_tits_form_is_one(d4):
    for r in positive_roots(d4).roots:
        assert euler_form(d4, r, r) == 1


def test_roots_match_reflection_closure():
    """Through E6 and E7 (36 and 63 roots); each quiver is scanned once."""
    positive_roots.cache_clear()
    cases = [
        oracles.path_quiver(1),
        oracles.path_quiver(2),
        oracles.path_quiver(3, flips=(1,)),
        oracles.path_quiver(4),
        oracles.path_quiver(5, flips=(2,)),
        star((1, 1, 1)),
        star((1, 1, 2)),
        star((1, 2, 2)),
        star((1, 2, 3)),
    ]
    for q in cases:
        rs = positive_roots(q)
        assert {r.values for r in rs.roots} == oracles.reflection_closure_roots(q)
        assert positive_roots(q) is rs
    assert [len(positive_roots(q).roots) for q in cases[-2:]] == [36, 63]
    assert positive_roots.cache_info().misses == len(cases)


def test_equal_quivers_share_one_root_set(d4):
    """The memo is keyed by quiver equality, not identity."""
    positive_roots.cache_clear()
    twin = oracles.build_quiver(list(d4.vertices), [(a.name, a.tail, a.head) for a in d4.arrows])
    assert twin == d4 and twin is not d4
    rs = positive_roots(d4)
    assert positive_roots(twin) is rs
    assert positive_roots.cache_info().misses == 1


def test_equal_block_quivers_share_one_inner_order(a4):
    """Two partitions' equal but distinct induced blocks read the identical
    inner-order tuple, sorted once."""
    positive_roots.cache_clear()
    first = make_partition(a4, [["1"], ["2", "3", "4"]]).induced[1]
    second = make_partition(a4, [["1"], ["2", "3", "4"]]).induced[1]
    assert first == second and first is not second
    inner = positive_roots(first).inner()
    assert positive_roots(second).inner() is inner
    assert sorted(inner) == list(range(6))


def test_not_dynkin_is_raised_on_every_call_and_not_memoized(atilde2):
    positive_roots.cache_clear()
    for _ in range(2):
        with pytest.raises(NotDynkinError):
            positive_roots(atilde2)
    assert positive_roots.cache_info().currsize == 0


def test_root_count_type_a_formula():
    for n in range(1, 7):
        q = oracles.path_quiver(n)
        assert len(positive_roots(q).roots) == n * (n + 1) // 2


def test_root_count_type_d(d4):
    assert len(positive_roots(d4).roots) == 12
    assert len(positive_roots(star((1, 1, 2))).roots) == 20


def test_root_box_holds_every_e8_entry(a2, monkeypatch):
    """The scan's box reaches 6, the largest entry of E8's highest root (found
    by the reflection closure).  Scanning E8 itself takes seconds, so the
    test reads the box the scan asks for on A2."""
    import itertools
    import quiverdt.dynkin as dynkin

    top = max(max(v) for v in oracles.reflection_closure_roots(star((1, 2, 4))))
    boxes = []

    def spy(box, repeat):
        boxes.append(box)
        return itertools.product(box, repeat=repeat)

    monkeypatch.setattr(dynkin, "product", spy)
    assert len(positive_roots.__wrapped__(a2).roots) == 3
    assert top == 6 and max(boxes[0]) >= top


def test_kostant_a2_gamma11(a2):
    parts = kostant_partitions(a2, a2.vector([1, 1]))
    assert len(parts) == 2
    assert {str(p) for p in parts} == {"1x(0,1) + 1x(1,0)", "1x(1,1)"}


def test_kostant_a2_gamma22(a2):
    parts = kostant_partitions(a2, a2.vector([2, 2]))
    assert [str(p) for p in parts] == [
        "2x(1,1)",
        "1x(0,1) + 1x(1,0) + 1x(1,1)",
        "2x(0,1) + 2x(1,0)",
    ]


def test_kostant_zero_vector(a2):
    parts = kostant_partitions(a2, a2.zero())
    assert len(parts) == 1 and parts[0].dimension_vector() == a2.zero()
    assert not parts[0].nonzero()


def test_kostant_sums_back_to_gamma(a3, rng):
    rs = positive_roots(a3)
    for _ in range(20):
        g = oracles.random_dim_vector(rng, a3, top=3)
        for p in kostant_partitions(a3, g):
            assert p.dimension_vector() == g
            assert len(p.multiplicities) == len(rs.roots)


def test_kostant_matches_brute_force(a3, d4, rng):
    """Same partitions as the oracle, in lexicographic order of multiplicities."""
    for q in (a3, d4):
        roots = [r.values for r in positive_roots(q).roots]
        for _ in range(12):
            g = oracles.random_dim_vector(rng, q, top=3)
            got = [tuple(p.multiplicities) for p in kostant_partitions(q, g)]
            assert got == sorted(oracles.brute_kostant(roots, g.values))


def test_kostant_cap(d4):
    with pytest.raises(EnumerationCapError):
        kostant_partitions(d4, d4.vector([3, 3, 3, 3]), cap=5)


def test_kostant_partition_str_multiplicity(a2):
    parts = kostant_partitions(a2, a2.vector([2, 2]))
    assert str(parts[0]) == "2x(1,1)"


def test_kostant_matches_brute_force_on_lopsided_gammas(a4, d4, rng):
    """Zero and large entries side by side, where the per-root lower bound prunes most."""
    for q in (a4, d4):
        roots = [r.values for r in positive_roots(q).roots]
        for _ in range(12):
            g = q.vector([rng.choice((0, 0, 1, 5)) for _ in q.vertices])
            got = [tuple(p.multiplicities) for p in kostant_partitions(q, g)]
            assert got == sorted(oracles.brute_kostant(roots, g.values))


# one orientation each; E6 has its short leg 6 on the branch vertex 3
A5 = (list("12345"), [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"), ("d", "5", "4")])
D5 = (list("12345"), [("a", "1", "2"), ("b", "2", "3"), ("c", "4", "3"), ("d", "3", "5")])
E6 = (list("123456"), [("a", "1", "2"), ("b", "3", "2"), ("c", "3", "4"), ("d", "5", "4"),
                       ("e", "6", "3")])


@pytest.mark.parametrize("shape, draws", [(A5, 6), (D5, 6), (E6, 3)], ids=["A5", "D5", "E6"])
def test_kostant_matches_brute_force_on_rank_5_and_6(shape, draws, rng):
    """Only non-simple roots branch; the simple multiplicities are the remainder."""
    q = oracles.build_quiver(*shape)
    roots = [r.values for r in positive_roots(q).roots]
    for _ in range(draws):
        g = q.vector([rng.randint(0, 2) for _ in q.vertices])
        got = [tuple(p.multiplicities) for p in kostant_partitions(q, g)]
        assert got == sorted(oracles.brute_kostant(roots, g.values))


@pytest.mark.parametrize("gamma, count", [((1, 2, 3, 2, 1, 2), 622), ((2, 2, 3, 2, 2, 2), 1139)])
def test_kostant_e6_counts_and_cap(gamma, count):
    q = oracles.build_quiver(*E6)
    g = q.vector(list(gamma))
    assert len(kostant_partitions(q, g)) == count
    assert len(kostant_partitions(q, g, cap=count)) == count
    with pytest.raises(EnumerationCapError, match=f"more than {count - 1} "):
        kostant_partitions(q, g, cap=count - 1)


def test_kostant_cap_bounds_the_work():
    """Every node of the walk leads to an output, so a huge gamma stops at the cap."""
    q = oracles.build_quiver(*E6)
    g = q.vector([10**6 * x for x in (1, 2, 3, 2, 1, 2)])
    started = time.perf_counter()
    with pytest.raises(EnumerationCapError):
        kostant_partitions(q, g, cap=50)
    assert time.perf_counter() - started < 2.0
