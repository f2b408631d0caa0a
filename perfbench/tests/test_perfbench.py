"""Tests of the benchmark's own machinery: inputs, tracer, self times, digests.

    python3 -m pytest perfbench/tests -q
"""
from __future__ import annotations

import json
import random
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

import quiverdt  # noqa: E402
import quiverdt.cli  # noqa: E402,F401  (loaded, so its bindings must be covered too)


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(workload):
    assert inputs.generate(workload, 7) == inputs.generate(workload, 7)
    assert inputs.generate(workload, 7) != inputs.generate(workload, 8)
    json.dumps(inputs.generate(workload, 7))  # plain data only


@pytest.mark.parametrize("graph", ["A3", "A4", "D4", "Atilde3", "double"])
def test_orientations_are_acyclic_and_distinct(graph):
    found = inputs.orientations(graph)
    assert len({tuple(a) for a in found}) == len(found) > 1
    for arrows in found:
        quiverdt.topological_vertex_order(quiverdt.parse_quiver(inputs.quiver_text(graph, arrows)))


@pytest.mark.parametrize("graph, block", [("A3", ("1", "2", "3")), ("D5", ("1", "2", "3", "4", "5"))])
def test_kostant_counts_match_the_library(graph, block):
    q = quiverdt.parse_quiver(inputs.quiver_text(graph, inputs.orientations(graph)[0]))
    sub = quiverdt.induced_subquiver(q, block)
    counts = inputs.kostant_counts(graph, block, 2)
    for gamma in random.Random(1).sample(sorted(counts), 20):
        assert counts[gamma] == len(quiverdt.kostant_partitions(sub, sub.vector(list(gamma))))


def test_self_times_on_a_synthetic_tree():
    # 0 [0,10] has children 1 [1,4] and 3 [5,9]; 1 has child 2 [2,3]; 4 [11,12] is a second root.
    # The tracer spent 0.5 s inside 0 around its children, and 0.25 s inside 1 around 2.
    start = [0.0, 1.0, 2.0, 5.0, 11.0]
    end = [10.0, 4.0, 3.0, 9.0, 12.0]
    parent = [-1, 0, 1, 0, -1]
    tracer_s = [0.5, 0.25, 0.0, 0.0, 0.0]
    assert tracing.self_times(start, end, parent, tracer_s) == [2.5, 1.75, 1.0, 4.0, 1.0]


def test_per_call_is_each_calls_median_over_rounds():
    rounds = [SimpleNamespace(times=[3.0, 1.0, 5.0]), SimpleNamespace(times=[2.0, 4.0, 6.0]),
              SimpleNamespace(times=[9.0, 2.0, 7.0])]
    assert run.per_call(rounds, "times") == [3.0, 2.0, 6.0]


def test_paced_time_is_in_units_of_the_kernel():
    # A call of 0.5 s between kernel times of 0.1 s and 0.3 s took 2.5 kernel times.
    assert pace.paced(0.5, 0.1, 0.3) == pytest.approx(2.5 * pace.NOMINAL_S)
    assert pace.kernel() == pace.kernel()


def test_a_paced_round_scales_each_call_by_the_kernel_times_beside_it(monkeypatch):
    probes = iter([1.0, 2.0, 4.0])
    monkeypatch.setattr(pace, "probe", lambda: next(probes))
    clock = iter([0.0, 3.0, 10.0, 16.0])
    monkeypatch.setattr(workloads.time, "perf_counter", lambda: next(clock))
    rnd = workloads.Round()
    rnd.call(lambda: "x")
    rnd.verdict(lambda r: r, lambda: True)
    rnd.close()
    assert rnd.times == pytest.approx([3.0 / 1.5 * pace.NOMINAL_S, 6.0 / 3.0 * pace.NOMINAL_S])
    assert rnd.latencies == rnd.times[1:]
    assert (rnd.attempted, rnd.failed) == (1, 0)


def _is_original(value, originals) -> bool:
    return any(tracing._unwrap(value) is fn for fn in originals)


def test_install_covers_every_binding_and_restore_puts_them_back():
    before = [(owner, attr, value) for owner, attr, value in tracing.bindings()]
    t = tracing.Tracer()
    t.install()
    try:
        originals = list(t.originals.values())
        assert {"series.convolve_into", "dynkin.positive_roots", "series.VSeries.__post_init__",
                "series.VSeries.from_terms", "strata.betti_identity_check"} <= set(t.originals)
        leftovers = [(getattr(owner, "__name__", owner), attr)
                     for owner, attr, value in tracing.bindings() if _is_original(value, originals)]
        assert leftovers == []
        for module in ("dynkin", "ordering", "strata"):
            assert getattr(sys.modules[f"quiverdt.{module}"], "positive_roots") is not \
                t.originals["dynkin.positive_roots"]
    finally:
        t.restore()
    after = {(id(owner), attr): value for owner, attr, value in tracing.bindings()}
    assert all(after[(id(owner), attr)] is value for owner, attr, value in before)


def test_traced_calls_give_spans_and_every_layer_metric():
    q = quiverdt.parse_quiver((BENCH.parent / "quivers" / "a3.json").read_text())
    bound = q.vector([1, 1, 1])
    t = tracing.Tracer()
    t.install()
    try:
        reference = quiverdt.trivial_dt(q, bound, 8)
        for p in quiverdt.enumerate_partitions(q, admissible_only=True):
            assert quiverdt.verify_factorization(q, p, bound, 8, reference=reference).passed
    finally:
        t.restore()
    spans = list(t.spans())
    assert spans and all(end >= start for _, start, end, _, _ in spans)
    assert all(parent < k for k, (_, _, _, parent, _) in enumerate(spans))
    assert len(t.tracer_s) == len(spans) and sum(t.tracer_s) > 0
    wall = max(end for _, _, end, _, _ in spans) - spans[0][1]
    metrics = layers.layer_metrics(t, wall=wall, overhead=0.0)
    assert list(metrics) == list(layers.METRICS)
    assert metrics["algebra.qt_multiply.calls"] > 0 and metrics["series.convolve.pairs"] > 0
    assert 0 < metrics["algebra.qt_multiply.kept_frac"] <= 1
    assert 0.9 < metrics["trace.coverage_frac"] <= 1.0


def test_digest_is_order_independent():
    records = [{"case": "x", "codim": k, "m": [[0, [1, 0], k]]} for k in range(6)]
    shuffled = records[:]
    random.Random(3).shuffle(shuffled)
    assert workloads.digest(shuffled) == workloads.digest(records)
    records[2] = {"case": "x", "codim": 99, "m": [[0, [1, 0], 2]]}
    assert workloads.digest(shuffled) != workloads.digest(records)
