"""Per-layer metrics of one traced round.

Names follow `<layer>.<function>.<what>` and are those of the per_layer list
in BENCHMARK.json.  `<layer>.self_s` sums the self time of every wrapped
function of that module, listed here or not.
"""
from __future__ import annotations

import json
from collections import Counter, defaultdict
from pathlib import Path

from tracer import self_times

# metric prefix -> span name
SPANS = {
    "quiver.skew_form": "quiver.skew_form",
    "quiver.topo_order": "quiver.topological_vertex_order",
    "series.mul": "series.VSeries.__mul__",
    "series.convolve": "series.convolve_into",
    "series.construct": "series.VSeries.__post_init__",
    "series.from_terms": "series.VSeries.from_terms",
    "series.add": "series.VSeries.__add__",
    "series.poincare": "series.poincare_series",
    "dynkin.positive_roots": "dynkin.positive_roots",
    "dynkin.kostant": "dynkin.kostant_partitions",
    "dynkin.classify": "dynkin.classify_dynkin",
    "partitions.enumerate": "partitions.enumerate_partitions",
    "partitions.check_admissible": "partitions.check_admissible",
    "partitions.kostant_series": "partitions.kostant_series",
    "partitions.order_blocks": "partitions.order_blocks",
    "ordering.inner_order": "ordering.reineke_inner_order",
    "ordering.validate": "ordering.validate_order",
    "ordering.total_order": "ordering.admissible_total_order",
    "algebra.qt_multiply": "algebra.qt_multiply",
    "algebra.dilog": "algebra.dilog",
    "algebra.trivial_dt": "algebra.trivial_dt",
    "algebra.factorization_product": "algebra.factorization_product",
    "algebra.verify": "algebra.verify_factorization",
    "strata.codim": "strata.codim_of_stratum",
    "strata.normal_form": "strata.monomial_normal_form",
    "strata.additivity": "strata.codim_additivity_check",
    "strata.betti": "strata.betti_identity_check",
}

# metric name -> unit, as BENCHMARK.json's per_layer list gives them
METRICS = {m["name"]: m["unit"] for m in json.loads(
    (Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())["per_layer"]}


def _ratio(part, whole) -> float:
    return part / whole if whole else 0.0


def layer_metrics(t, wall: float, overhead: float) -> dict[str, float]:
    """Every per-layer metric of a traced round that took `wall` seconds.

    overhead is the traced round's verdicts per second over the untraced
    rounds', minus 1.
    """
    own = self_times(t.start, t.end, t.parent, t.tracer_s)
    calls: Counter = Counter()
    self_s: defaultdict = defaultdict(float)
    top = 0.0
    kept = 0
    convolve = t.names.index(SPANS["series.convolve"])
    multiply = t.names.index(SPANS["algebra.qt_multiply"])
    for k, nid in enumerate(t.name_id):
        calls[nid] += 1
        self_s[nid] += own[k]
        p = t.parent[k]
        if p < 0:
            top += t.end[k] - t.start[k]
        elif nid == convolve and t.name_id[p] == multiply:
            kept += 1
    by_name_calls = {t.names[i]: n for i, n in calls.items()}
    by_name_self = {t.names[i]: s for i, s in self_s.items()}
    layer_self: defaultdict = defaultdict(float)
    for name, s in by_name_self.items():
        layer_self[name.split(".")[0]] += s
    c = t.counts
    special = {
        "series.convolve.pairs": c["series.convolve.pairs"],
        "series.poincare.misses": t.cache_misses.get(SPANS["series.poincare"], 0),
        "series.max_coeff_bits": c["series.max_coeff_bits"],
        "dynkin.positive_roots.repeat_frac": _ratio(
            c["dynkin.positive_roots.repeats"], by_name_calls.get(SPANS["dynkin.positive_roots"], 0)),
        "dynkin.kostant.partitions": c["dynkin.kostant.partitions"],
        "partitions.enumerate.count": c["partitions.enumerate.count"],
        "partitions.admissible_frac": _ratio(
            c["partitions.admissible"], by_name_calls.get(SPANS["partitions.check_admissible"], 0)),
        "partitions.kostant_series.count": c["partitions.kostant_series.count"],
        "ordering.validate.pairs": c["ordering.validate.pairs"],
        "algebra.qt_multiply.term_pairs": c["algebra.qt_multiply.term_pairs"],
        "algebra.qt_multiply.kept_frac": _ratio(kept, c["algebra.qt_multiply.term_pairs"]),
        "algebra.headroom_used_frac": t.headroom_used,
        "strata.betti.terms": c["strata.betti.terms"],
        "trace.coverage_frac": _ratio(top, wall),
        "trace.overhead_frac": overhead,
    }
    out = {}
    for metric in METRICS:
        prefix, _, what = metric.rpartition(".")
        if metric in special:
            out[metric] = special[metric]
        elif prefix in SPANS and what == "calls":
            out[metric] = by_name_calls.get(SPANS[prefix], 0)
        elif prefix in SPANS and what == "self_s":
            out[metric] = by_name_self.get(SPANS[prefix], 0.0)
        else:  # <layer>.self_s
            out[metric] = layer_self[prefix]
    return out
