"""Span tracing of quiverdt from outside the library.

`Tracer.install` wraps every public function of the layer modules, plus the
VSeries methods the series kernel runs on, at every binding a loaded
`quiverdt` module or class holds (`from .series import convolve_into` copies
the reference into `algebra`, and the package namespace re-exports most
names).  Each call into a wrapped function records a span: name, start, end,
parent span and verdict id, kept in flat arrays in memory.  `restore` puts
every original binding back.

Self time of a span is its duration minus the durations of its child spans
and minus the tracer's own time around those children: the wrappers'
bookkeeping, and the hooks that compute a few counts from arguments and
results after a span closes.  That time falls inside the parent span but is
the benchmark's, not the library's.
"""
from __future__ import annotations

import functools
import sys
import time
from array import array
from collections import Counter

PACKAGE = "quiverdt"
LAYERS = ("quiver", "series", "dynkin", "partitions", "ordering", "algebra", "strata")
METHODS = {"series": {"VSeries": ("__mul__", "__add__", "__post_init__", "from_terms")}}


def _nonzero(series) -> int:
    return len(series.coeffs) - series.coeffs.count(0)


def _convolve(t, args, result):
    t.counts["series.convolve.pairs"] += _nonzero(args[1]) * _nonzero(args[2])


def _construct(t, args, result):
    coeffs = args[0].coeffs
    if coeffs:
        bits = max(max(coeffs), -min(coeffs)).bit_length()
        if bits > t.counts["series.max_coeff_bits"]:
            t.counts["series.max_coeff_bits"] = bits


def _positive_roots(t, args, result):
    t.counts["dynkin.positive_roots.repeats"] += args[0] in t.seen_quivers
    t.seen_quivers.add(args[0])


def _validate(t, args, result):
    candidate = args[2]
    n = len(getattr(candidate, "entries", candidate))
    t.counts["ordering.validate.pairs"] += n * (n - 1) // 2


def _qt_multiply(t, args, result):
    x, y = args[0], args[1]
    t.counts["algebra.qt_multiply.term_pairs"] += len(x.terms) * len(y.terms)
    b = x.bound.values
    headroom = sum(b[i] * b[j] for i, j in x.quiver._arrow_pairs)
    if headroom and result.terms:
        lowest = min(s.min_exp for s in result.terms.values())
        used = max(0, -lowest) / headroom
        if used > t.headroom_used:
            t.headroom_used = used


HOOKS = {
    "series.convolve_into": _convolve,
    "series.VSeries.__post_init__": _construct,
    "dynkin.positive_roots": _positive_roots,
    "dynkin.kostant_partitions":
        lambda t, args, r: t.counts.update({"dynkin.kostant.partitions": len(r)}),
    "partitions.enumerate_partitions":
        lambda t, args, r: t.counts.update({"partitions.enumerate.count": len(r)}),
    "partitions.check_admissible":
        lambda t, args, r: t.counts.update({"partitions.admissible": int(r.admissible)}),
    "partitions.kostant_series":
        lambda t, args, r: t.counts.update({"partitions.kostant_series.count": len(r)}),
    "ordering.validate_order": _validate,
    "algebra.qt_multiply": _qt_multiply,
    "strata.betti_identity_check":
        lambda t, args, r: t.counts.update({"strata.betti.terms": len(r.terms)}),
}


def _public_functions(module):
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and callable(obj) and not isinstance(obj, type)
                and getattr(obj, "__module__", None) == module.__name__):
            yield attr, obj


def loaded_modules() -> list:
    return [m for name, m in sorted(sys.modules.items())
            if m is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


def bindings():
    """Every (owner, attribute, value) of loaded package modules and their classes."""
    for module in loaded_modules():
        owners = [module] + [c for c in vars(module).values()
                             if isinstance(c, type) and c.__module__.startswith(PACKAGE)]
        for owner in owners:
            for attr, value in list(vars(owner).items()):
                yield owner, attr, value


def _unwrap(value):
    return value.__func__ if isinstance(value, (classmethod, staticmethod)) else value


class Tracer:
    """Collects spans and computed counts for one traced round."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.verdict_of = array("i")
        self.tracer_s = array("d")  # per span: the tracer's own time around its children
        self.verdict = -1  # set by the workload before each engine call
        self.counts: Counter = Counter()
        self.seen_quivers: set = set()
        self.headroom_used = 0.0
        self.cache_misses: dict[str, int] = {}  # span name -> lru_cache misses in the round
        self.originals: dict[str, object] = {}
        self._cache_start: dict[str, int] = {}
        self._stack = [-1]
        self._saved: list[tuple[object, str, object]] = []

    def install(self) -> None:
        targets = {}
        for layer in LAYERS:
            module = sys.modules[f"{PACKAGE}.{layer}"]
            found = [(f"{layer}.{attr}", fn) for attr, fn in _public_functions(module)]
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(module, cls_name)
                found += [(f"{layer}.{cls_name}.{m}", _unwrap(cls.__dict__[m])) for m in methods]
            for name, fn in found:
                self.originals[name] = fn
                targets[id(fn)] = (fn, self._wrap(name, fn))
        self._cache_start = {name: fn.cache_info().misses for name, fn in self.originals.items()
                             if hasattr(fn, "cache_info")}
        for owner, attr, value in bindings():
            fn = _unwrap(value)
            hit = targets.get(id(fn))
            if hit is not None and hit[0] is fn:
                wrapper = hit[1] if fn is value else type(value)(hit[1])
                setattr(owner, attr, wrapper)
                self._saved.append((owner, attr, value))

    def restore(self) -> None:
        for name, before in self._cache_start.items():
            self.cache_misses[name] = self.originals[name].cache_info().misses - before
        for owner, attr, value in reversed(self._saved):
            setattr(owner, attr, value)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        tracer = self
        nid = len(self.names)
        self.names.append(name)
        hook = HOOKS.get(name)
        names, starts, ends = self.name_id, self.start, self.end
        parents, verdicts, tracer_s, stack = self.parent, self.verdict_of, self.tracer_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            entered = clock()
            i = len(starts)
            names.append(nid)
            parents.append(stack[-1])
            verdicts.append(tracer.verdict)
            starts.append(0.0)
            ends.append(0.0)
            tracer_s.append(0.0)
            stack.append(i)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                ends[i] = t1
                starts[i] = t0
                stack.pop()
            if hook is not None:
                hook(tracer, args, result)
            if stack[-1] >= 0:
                tracer_s[stack[-1]] += t0 - entered + clock() - t1
            return result

        return functools.update_wrapper(wrapper, fn)

    def spans(self):
        """(name, start, end, parent, verdict) per span, in call order."""
        for k in range(len(self.start)):
            yield (self.names[self.name_id[k]], self.start[k], self.end[k],
                   self.parent[k], self.verdict_of[k])

    def write(self, path) -> None:
        """Write the spans as tab-separated lines, one span per line, times in seconds."""
        with open(path, "w") as out:
            out.write("name\tstart\tend\tparent\tverdict\n")
            for name, start, end, parent, verdict in self.spans():
                out.write(f"{name}\t{start:.9f}\t{end:.9f}\t{parent}\t{verdict}\n")


def self_times(start, end, parent, tracer_s) -> list[float]:
    """Each span's duration minus its direct children's durations and the tracer's time around them."""
    own = [e - s - x for s, e, x in zip(start, end, tracer_s)]
    for i, p in enumerate(parent):
        if p >= 0:
            own[p] -= end[i] - start[i]
    return own
