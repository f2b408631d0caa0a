"""The three workloads: parsing their inputs and running one round of verdicts.

A round is one pass over a seed's inputs, as one CLI invocation per input
would make it.  A verdict is one public engine call whose result is checked:
`verify_factorization`, `codim_additivity_check` or `betti_identity_check`.
Every other engine call a round makes (`trivial_dt`, `enumerate_partitions`,
`kostant_series`) is timed as part of the round but is not a verdict.

Round functions look library functions up on the package at call time, so a
tracer installed on the package sees them.  They read results through plain
attributes only, so building the output records calls no library code.
"""
from __future__ import annotations

import hashlib
import json
import time
from types import SimpleNamespace

import pace


class Round:
    """Times engine calls, counts verdicts and failures, and keeps output records.

    `times` holds the duration of every engine call in call order, verdicts
    and the calls between them alike; `latencies` holds the verdicts' alone.
    The pace kernel is timed before every call and after the last one, and
    `close` turns each call's wall time into kernel units with the kernel
    times on either side of it (see pace.py).  The kernel calls no quiverdt
    code, so a tracer records no spans for it.
    """

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.times: list[float] = []
        self.probes: list[float] = []
        self.verdicts: list[int] = []  # positions of the verdicts in `times`
        self.latencies: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.records: list[dict] = []
        self.digest = ""

    def close(self) -> None:
        """Pace the call times, digest the round's output records and let them go."""
        self.probes.append(pace.probe())
        p = self.probes
        self.times = [pace.paced(t, p[k], p[k + 1]) for k, t in enumerate(self.times)]
        self.latencies = [self.times[k] for k in self.verdicts]
        self.digest = digest(self.records)
        self.records = []

    def _timed(self, fn, args, kwargs):
        """fn's result, or None when it raised; the failure and the time are recorded."""
        self.probes.append(pace.probe())
        started = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        except Exception as e:  # any library error is a failure of the run, not a crash
            self.failed += 1
            self.records.append({"call": fn.__name__, "error": type(e).__name__})
            return None
        finally:
            self.times.append(time.perf_counter() - started)

    def call(self, fn, *args, **kwargs):
        """An engine call that is not a verdict.  An exception counts as one failed attempt."""
        if self.tracer is not None:
            self.tracer.verdict = -1
        result = self._timed(fn, args, kwargs)
        if result is None:
            self.attempted += 1
        return result

    def verdict(self, passed, fn, *args, **kwargs):
        """A verdict call; it fails when it raises or when passed(result) is false."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.verdict = self.attempted
        self.verdicts.append(len(self.times))
        result = self._timed(fn, args, kwargs)
        if result is not None and not passed(result):
            self.failed += 1
        return result


def digest(records: list[dict]) -> str:
    """Order-independent digest: SHA-256 over the sorted canonical JSON records."""
    lines = sorted(json.dumps(r, sort_keys=True, separators=(",", ":")) for r in records)
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def _pairs(series, v_max: int) -> list[list[int]]:
    """Nonzero [v exponent, coefficient] pairs of a series, cut at v_max."""
    lo = series.min_exp
    return [[lo + i, c] for i, c in enumerate(series.coeffs) if c and lo + i <= v_max]


def _kostant(m) -> list:
    """A Kostant series as sorted (block, local root, multiplicity) triples."""
    return sorted(
        [j, list(r.values), k]
        for j, kp in enumerate(m.per_block)
        for r, k in zip(kp.root_set.roots, kp.multiplicities)
        if k
    )


# --- torus-sweep: `factorize --all-partitions` on every quiver ---------------

def parse_torus(lib, raw: list[dict]) -> list:
    cases = []
    for c in raw:
        q = lib.parse_quiver(c["quiver"])
        cases.append(SimpleNamespace(
            name=c["name"], q=q, bound=q.vector({v: c["bound"] for v in q.vertices}),
            v_max=2 * c["q_order"],
        ))
    return cases


def torus_round(lib, cases, rnd: Round) -> None:
    for c in cases:
        reference = rnd.call(lib.trivial_dt, c.q, c.bound, c.v_max)
        if reference is None:
            continue
        table = sorted([list(g.values), _pairs(s, c.v_max)] for g, s in reference.terms.items())
        rnd.records.append({"case": c.name, "dt": [row for row in table if row[1]]})
        partitions = rnd.call(lib.enumerate_partitions, c.q, admissible_only=True)
        for p in partitions or ():
            report = rnd.verdict(
                lambda r: r.passed, lib.verify_factorization,
                c.q, p, c.bound, c.v_max, reference=reference,
            )
            if report is not None:
                rnd.records.append({
                    "case": c.name, "blocks": sorted(map(sorted, p.blocks)), "passed": report.passed,
                })


# --- strata-codim: stratum codimensions against per-block orbit codimensions --

def parse_strata(lib, raw: list[dict]) -> list:
    cases = []
    for c in raw:
        q = lib.parse_quiver(c["quiver"])
        cases.append(SimpleNamespace(
            name=c["name"], q=q, p=lib.make_partition(q, c["blocks"]),
            gamma=q.vector(c["gamma"]), series=c["series"],
        ))
    return cases


def strata_round(lib, cases, rnd: Round) -> None:
    for c in cases:
        series = rnd.call(lib.kostant_series, c.q, c.p, c.gamma)
        if series is None:
            continue
        if len(series) != c.series:  # the generator counted them independently
            rnd.attempted += 1
            rnd.failed += 1
        rnd.records.append({"case": c.name, "series": len(series)})
        for m in series:
            v = rnd.verdict(lambda r: r.equal, lib.codim_additivity_check, c.q, c.p, m, c.gamma)
            if v is not None:
                rnd.records.append({
                    "case": c.name, "m": _kostant(m), "codim": v.total_codim,
                    "block_codims": list(v.block_codims), "equal": v.equal,
                })


# --- betti-long: the Betti q-series identity on long series -------------------

def parse_betti(lib, raw: list[dict]) -> list:
    cases = []
    for c in raw:
        q = lib.parse_quiver(c["quiver"])
        cases.append(SimpleNamespace(
            name=c["name"], q=q, p=lib.make_partition(q, c["blocks"]),
            gamma=q.vector(c["gamma"]), v_max=2 * c["q_order"],
        ))
    return cases


def betti_round(lib, cases, rnd: Round) -> None:
    for c in cases:
        v = rnd.verdict(lambda r: r.equal, lib.betti_identity_check, c.q, c.p, c.gamma, c.v_max)
        if v is not None:
            rnd.records.append({
                "case": c.name, "lhs": _pairs(v.lhs, c.v_max), "equal": v.equal,
                "terms": sorted([_kostant(t.series), t.codim, list(t.factors)] for t in v.terms),
            })


WORKLOADS = {
    "torus-sweep": (parse_torus, torus_round),
    "strata-codim": (parse_strata, strata_round),
    "betti-long": (parse_betti, betti_round),
}
