"""Quiver model: parsing, vertex orders, bilinear forms, block contraction."""
from __future__ import annotations

import json

import pytest
from hypothesis import given, strategies as st

import oracles
from quiverdt import (
    CyclicQuiverError,
    KeyMismatchError,
    NotAdmissibleError,
    NotAPartitionError,
    QuiverParseError,
    UnknownVertexError,
    check_vertex_partition,
    euler_form,
    induced_subquiver,
    parse_quiver,
    shortest_directed_cycle,
    skew_form,
    topological_vertex_order,
)
from oracles import skew_form_restricted
from quiverdt.partitions import _contraction_order
from quiverdt.quiver import _kahn_order, _shortest_cycle

A3_TEXT = json.dumps(
    {
        "vertices": ["1", "2", "3"],
        "arrows": [
            {"id": "a", "tail": "2", "head": "1"},
            {"id": "b", "tail": "3", "head": "2"},
        ],
    }
)


def test_parse_a3_file():
    q = parse_quiver(A3_TEXT)
    assert q.vertices == ("1", "2", "3")
    assert [(a.name, a.tail, a.head) for a in q.arrows] == [("a", "2", "1"), ("b", "3", "2")]


def test_parse_single_vertex_no_arrows():
    q = parse_quiver('{"vertices": ["1"], "arrows": []}')
    assert q.n == 1 and not q.arrows


def test_parse_coerces_integer_labels():
    q = parse_quiver('{"vertices": [1, 2], "arrows": [{"id": "a", "tail": 2, "head": 1}]}')
    assert q.vertices == ("1", "2")


def test_parse_rejects_loop():
    with pytest.raises(QuiverParseError):
        parse_quiver('{"vertices": ["1"], "arrows": [{"id": "a", "tail": "1", "head": "1"}]}')


@pytest.mark.parametrize(
    "text",
    [
        "not json",
        "[]",
        '{"arrows": []}',
        '{"vertices": ["1", "1"], "arrows": []}',
        '{"vertices": ["1", "2"], "arrows": [{"id": "a", "tail": "9", "head": "1"}]}',
        '{"vertices": ["1", "2"], "arrows": [{"id": "a", "tail": "2"}]}',
        '{"vertices": ["1", "2"], "arrows": [{"id": "a", "tail": "2", "head": "1"},'
        ' {"id": "a", "tail": "2", "head": "1"}]}',
        pytest.param("[" * 100000, id="nested-too-deeply"),
        pytest.param('{"vertices": [' + "1" * 5000 + "]}", id="integer-too-long"),
    ],
)
def test_parse_rejects_malformed(text):
    with pytest.raises(QuiverParseError):
        parse_quiver(text)


def test_dim_vector_arithmetic(a3):
    g = a3.vector({"1": 1, "2": 2, "3": 0})
    h = a3.vector([1, 0, 3])
    assert (g + h).values == (2, 2, 3)
    assert (2 * g).values == (2, 4, 0)
    assert g["2"] == 2
    assert g.height == 3
    assert not g.is_zero and a3.zero().is_zero
    assert g.support == ("1", "2")
    assert h <= a3.vector([1, 2, 3]) and not a3.vector([2, 0, 0]) <= h


def test_dim_vector_restrict_embed_roundtrip(a3):
    g = a3.vector({"1": 0, "2": 2, "3": 1})
    r = g.restrict(["2", "3"])
    assert r.vertices == ("2", "3") and r.values == (2, 1)
    assert r.embed(a3.vertices) == g


def test_dim_vector_rejects_negative(a3):
    with pytest.raises(Exception):
        a3.vector({"1": -1, "2": 0, "3": 0})


def test_dim_vector_key_mismatch(a3, a2):
    with pytest.raises(KeyMismatchError):
        a3.vector([1, 1, 1]) + a2.vector([1, 1])
    with pytest.raises(KeyMismatchError):
        a2.vector([1, 0]).embed(["2", "3"])


def test_dim_vector_str(a3):
    assert str(a3.vector([2, 3, 2])) == "(2,3,2)"


def test_unknown_lookups(a2):
    with pytest.raises(UnknownVertexError):
        a2.index("9")
    with pytest.raises(UnknownVertexError):
        a2.vector({"1": 1, "9": 0})


def test_topological_order_a3(a3):
    assert topological_vertex_order(a3) == ("1", "2", "3")


def test_topological_order_single_vertex():
    q = oracles.build_quiver(["1"], [])
    assert topological_vertex_order(q) == ("1",)


def test_topological_order_heads_first_property(rng):
    for _ in range(60):
        q = oracles.random_acyclic_quiver(rng)
        seq = topological_vertex_order(q)
        pos = {v: i for i, v in enumerate(seq)}
        assert sorted(seq) == sorted(q.vertices)
        for a in q.arrows:
            assert pos[a.head] < pos[a.tail]


def test_two_cycle_detected():
    q = oracles.build_quiver(["1", "2"], [("a", "1", "2"), ("b", "2", "1")])
    with pytest.raises(CyclicQuiverError) as exc:
        topological_vertex_order(q)
    assert exc.value.witness == ("1", "2", "1")
    assert shortest_directed_cycle(q) == ("1", "2", "1")


def test_topological_order_is_sorted_once_per_quiver(a3, monkeypatch):
    import quiverdt.quiver as quiver_mod

    sorts = []
    kahn = quiver_mod._kahn_order
    monkeypatch.setattr(quiver_mod, "_kahn_order", lambda succ: sorts.append(1) or kahn(succ))
    first = topological_vertex_order(a3)
    assert topological_vertex_order(a3) is first and len(sorts) == 1
    assert a3 == oracles.build_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])
    assert "_topo" not in repr(a3)


def test_cyclic_quiver_raises_on_every_call():
    q = oracles.build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "2", "3"), ("c", "3", "1")])
    for _ in range(2):
        with pytest.raises(CyclicQuiverError) as exc:
            topological_vertex_order(q)
        assert exc.value.witness == ("1", "2", "3", "1")


def test_shortest_cycle_none_when_acyclic(a3):
    assert shortest_directed_cycle(a3) is None


def test_euler_form_a2(a2):
    g = a2.vector([1, 1])
    assert euler_form(a2, g, g) == 1


def test_euler_form_kronecker(kronecker):
    g = kronecker.vector([1, 1])
    assert euler_form(kronecker, g, g) == 0


def test_euler_form_zero_argument(a3):
    g = a3.vector([2, 1, 2])
    assert euler_form(a3, a3.zero(), g) == 0
    assert euler_form(a3, g, a3.zero()) == 0


@given(
    u=st.tuples(*[st.integers(0, 5)] * 3),
    w=st.tuples(*[st.integers(0, 5)] * 3),
    x=st.tuples(*[st.integers(0, 5)] * 3),
)
def test_euler_form_bilinear(u, w, x):
    q = oracles.build_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])
    gu, gw, gx = q.vector(u), q.vector(w), q.vector(x)
    assert euler_form(q, gu + gw, gx) == euler_form(q, gu, gx) + euler_form(q, gw, gx)
    assert euler_form(q, gx, gu + gw) == euler_form(q, gx, gu) + euler_form(q, gx, gw)


def test_skew_form_a2_units(a2):
    assert skew_form(a2, a2.unit("2"), a2.unit("1")) == 1
    assert skew_form(a2, a2.unit("1"), a2.unit("2")) == -1


def test_skew_form_a3_distant_units(a3):
    assert skew_form(a3, a3.unit("1"), a3.unit("3")) == 0


def test_skew_form_is_chi_antisymmetrized(rng):
    for _ in range(60):
        q = oracles.random_acyclic_quiver(rng)
        g = oracles.random_dim_vector(rng, q)
        h = oracles.random_dim_vector(rng, q)
        assert skew_form(q, g, h) == euler_form(q, h, g) - euler_form(q, g, h)
        assert skew_form(q, g, g) == 0


def test_skew_form_restricted_a3(a3):
    e1, e2, e3 = (a3.unit(v) for v in "123")
    assert skew_form_restricted(a3, ["b"], e3, e2) == 1
    assert skew_form_restricted(a3, ["b"], e2, e1) == 0
    assert skew_form_restricted(a3, [], e3, e2) == 0


def test_skew_form_restricted_full_set_agrees(rng):
    for _ in range(100):
        q = oracles.random_acyclic_quiver(rng)
        g = oracles.random_dim_vector(rng, q)
        h = oracles.random_dim_vector(rng, q)
        names = [a.name for a in q.arrows]
        assert skew_form_restricted(q, names, g, h) == skew_form(q, g, h)


def test_skew_form_restricted_additive_over_split(rng):
    for _ in range(60):
        q = oracles.random_acyclic_quiver(rng)
        g = oracles.random_dim_vector(rng, q)
        h = oracles.random_dim_vector(rng, q)
        names = [a.name for a in q.arrows]
        cut = len(names) // 2
        assert skew_form_restricted(q, names[:cut], g, h) + skew_form_restricted(
            q, names[cut:], g, h
        ) == skew_form(q, g, h)


def test_skew_form_restricted_unknown_arrow(a3):
    with pytest.raises(ValueError):
        skew_form_restricted(a3, ["zz"], a3.unit("1"), a3.unit("2"))


def test_induced_subquiver_a3(a3):
    s = induced_subquiver(a3, ["2", "3"])
    assert s.vertices == ("2", "3")
    assert [(a.name, a.tail, a.head) for a in s.arrows] == [("b", "3", "2")]


def test_induced_subquiver_empty(a3):
    s = induced_subquiver(a3, [])
    assert s.vertices == () and s.arrows == ()


def test_induced_subquiver_full_kronecker(kronecker):
    s = induced_subquiver(kronecker, ["1", "2"])
    assert len(s.arrows) == 2


def test_contraction_a3_two_blocks(a3):
    """The internal arrow 3 -> 2 is absorbed; the one arrow 2 -> 1 between
    the blocks puts its head block {1} first in either listing."""
    assert _contraction_order(a3, (("1",), ("2", "3"))) == [0, 1]
    assert _contraction_order(a3, (("2", "3"), ("1",))) == [1, 0]


def test_contraction_atilde2_two_cycle(atilde2):
    with pytest.raises(NotAdmissibleError) as exc:
        _contraction_order(atilde2, (("1", "3"), ("2",)))
    assert exc.value.witness == ("1+3", "2", "1+3")


def test_contraction_singletons_identity(a3):
    """Singleton blocks contract to the quiver itself: the block order is
    the topological vertex order."""
    order = _contraction_order(a3, (("1",), ("2",), ("3",)))
    assert [a3.vertices[j] for j in order] == list(topological_vertex_order(a3))


def test_shortest_directed_cycle_matches_bfs_oracle(rng):
    """Seeded random quivers, acyclic and with a planted cycle: the index
    search and its public wrapper give the name-keyed search's witness."""
    planted = [oracles.random_cyclic_quiver(rng) for _ in range(150)]
    acyclic = [oracles.random_acyclic_quiver(rng, max_vertices=6, max_arrows=8) for _ in range(50)]
    for q in planted + acyclic:
        want = oracles.bfs_shortest_cycle(q.vertices, [(a.tail, a.head) for a in q.arrows])
        assert (want is None) == (q in acyclic)
        assert shortest_directed_cycle(q) == want
        succ = [[q.index(a.head) for a in q.arrows if a.tail == v] for v in q.vertices]
        got = _shortest_cycle(succ, range(q.n))
        assert (None if got is None else tuple(q.vertices[i] for i in got)) == want


def test_shortest_cycle_takes_self_edges_first(rng):
    """Index graphs with self-edges: a self-edge beats every longer cycle,
    the smallest looped node first, as in the name-keyed search; passing
    only the nodes a Kahn sort leaves over changes nothing."""
    loops = 0
    for _ in range(300):
        n = rng.randint(1, 6)
        pairs = [(rng.randrange(n), rng.randrange(n)) for _ in range(rng.randint(0, 8))]
        succ = [[h for t, h in pairs if t == i] for i in range(n)]
        want = oracles.bfs_shortest_cycle(list(range(n)), pairs)
        got = _shortest_cycle(succ, range(n))
        assert (None if got is None else tuple(got)) == want
        assert _shortest_cycle(succ, set(range(n)) - set(_kahn_order(succ))) == got
        loops += want is not None and len(want) == 2
    assert loops > 50
    assert _shortest_cycle([[1], [0, 1]], range(2)) == [1, 1]


def test_check_vertex_partition_normalizes(a3):
    blocks = check_vertex_partition(a3, [["3", "2"], ["1"]])
    assert blocks == (("2", "3"), ("1",))


@pytest.mark.parametrize(
    "blocks",
    [
        [["1", "2"]],
        [["1"], ["2"], ["3"], ["3"]],
        [["1", "1"], ["2"], ["3"]],
        [["1"], ["2"], ["9"]],
        [[], ["1"], ["2"], ["3"]],
    ],
)
def test_check_vertex_partition_rejects(a3, blocks):
    with pytest.raises(NotAPartitionError):
        check_vertex_partition(a3, blocks)


def test_skew_values_matches_skew_form(rng):
    for _ in range(40):
        q = oracles.random_acyclic_quiver(rng)
        g = oracles.random_dim_vector(rng, q)
        h = oracles.random_dim_vector(rng, q)
        assert q.skew_values(g.values, h.values) == skew_form(q, g, h)
