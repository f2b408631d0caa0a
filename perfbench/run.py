"""Benchmark of quiverdt: three seeded workloads, one per identity of the paper.

    python3 perfbench/run.py --workload torus-sweep --seed 0 --seconds 25 --trace 0

Run it from the repository root; it imports quiverdt from `src/`.  The load
is a closed loop: one process, no threads, one verdict after another.  The
loop runs whole rounds (one pass over the seed's inputs, on a fresh import
of quiverdt so every round starts with cold caches) until `--seconds` of
round time have passed.  Every round makes the same engine calls, so each
call is timed once per round.  Each call's time is paced: the fixed kernel
of pace.py is timed before and after it, and the call's time is expressed in
kernel times (scaled to seconds by pace.NOMINAL_S), because the machine's
speed swings by up to 1.7x over seconds to minutes while the program's work
stays the same.  The latency and throughput metrics take each call's median
paced time over the rounds; set-up times are paced the same way.

With `--trace 0` it reports the end-to-end metrics; with `--trace 1` it runs
untraced rounds for half of `--seconds`, then one traced round and one more
untraced round (the paced times of the traced round against those of the
untraced ones give the tracing overhead), and reports the per-layer metrics
of the traced round, writing the spans to `.bench_out/`.  Human-readable
lines come first; the last line of standard output is one JSON object with
the keys correct, attempted, failed and metrics.  A run is correct when no
verdict failed, every round produced the same output digest and, on the
default seed, that digest equals the one in `digests.json`.
"""
from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import inputs  # noqa: E402
import pace  # noqa: E402
import layers  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPS = 9
DIGESTS = HERE / "digests.json"
SPAN_DIR = ROOT / ".bench_out"


def fresh_setup(workload: str, seed: int):
    """Import quiverdt afresh from src/, generate the seed's inputs and parse them."""
    if not (ROOT / "src" / "quiverdt").is_dir():
        raise ImportError(f"no quiverdt package under {ROOT / 'src'}")
    for name in [n for n in sys.modules if n == "quiverdt" or n.startswith("quiverdt.")]:
        del sys.modules[name]
    lib = importlib.import_module("quiverdt")
    parse, _ = workloads.WORKLOADS[workload]
    return lib, parse(lib, inputs.generate(workload, seed))


def run_round(workload: str, lib, cases, tracer=None) -> tuple[workloads.Round, float]:
    _, round_fn = workloads.WORKLOADS[workload]
    rnd = workloads.Round(tracer)
    started = time.perf_counter()
    round_fn(lib, cases, rnd)
    wall = time.perf_counter() - started - sum(rnd.probes)
    rnd.close()
    return rnd, wall


def timed_setup(workload: str, seed: int, setups: list[float]):
    """fresh_setup, with its paced time appended to `setups`."""
    before = pace.probe()
    started = time.perf_counter()
    ready = fresh_setup(workload, seed)
    wall = time.perf_counter() - started
    setups.append(pace.paced(wall, before, pace.probe()))
    return ready


def timed_rounds(workload: str, seed: int, seconds: float, setups: list[float]):
    """A warm-up round, then whole rounds until their summed time reaches `seconds`.

    The warm-up round is checked like the others but not timed: the first
    round in a process runs slower while the allocator grows its arenas.
    Every round's set-up time is appended to `setups`.  Returns the warm-up
    round and the (round, seconds) pairs.
    """
    warm_up, _ = run_round(workload, *timed_setup(workload, seed, setups))
    timed = []
    while sum(wall for _, wall in timed) < seconds or not timed:
        timed.append(run_round(workload, *timed_setup(workload, seed, setups)))
    return warm_up, timed


def per_call(rounds, attr: str) -> list[float]:
    """Each engine call's median paced time over the rounds.

    Every round makes the same engine calls in the same order, so position k
    of `times` (or `latencies`) is the same call in every round.
    """
    return [statistics.median(column) for column in zip(*(getattr(rnd, attr) for rnd in rounds))]


def end_to_end(workload: str, seed: int, seconds: float):
    setups: list[float] = []
    for _ in range(SETUP_REPS):
        timed_setup(workload, seed, setups)
    warm_up, timed = timed_rounds(workload, seed, seconds, setups)
    rounds = [rnd for rnd, _ in timed]
    typical = [x * 1000 for x in per_call(rounds, "latencies")]
    metrics = {
        "verdicts_per_s": (len(typical) / sum(per_call(rounds, "times")), "1/s"),
        "verdict_p50_ms": (statistics.median(typical), "ms"),
        "verdict_p90_ms": (statistics.quantiles(typical, n=10)[-1], "ms"),
        "setup_s": (statistics.median(setups), "s"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    notes = [f"{len(timed)} timed rounds of {len(warm_up.latencies)} verdicts, round wall times "
             + " ".join(f"{wall:.3f}" for _, wall in timed) + " s",
             "round paced times " + " ".join(f"{sum(rnd.times):.3f}" for rnd in rounds) + " s",
             "paced setup times " + " ".join(f"{s:.4f}" for s in setups) + " s"]
    return [warm_up] + rounds, metrics, notes


def per_layer(workload: str, seed: int, seconds: float):
    warm_up, timed = timed_rounds(workload, seed, seconds / 2, [])
    lib, cases = fresh_setup(workload, seed)
    tracer = Tracer()
    tracer.install()
    try:
        traced_round, wall = run_round(workload, lib, cases, tracer)
    finally:
        tracer.restore()
    after = run_round(workload, *fresh_setup(workload, seed))
    untraced = [rnd for rnd, _ in timed] + [after[0]]
    untraced_s = sum(per_call(untraced, "times"))
    traced_s = sum(traced_round.times)
    values = layers.layer_metrics(tracer, wall, untraced_s / traced_s - 1)
    SPAN_DIR.mkdir(exist_ok=True)
    span_file = SPAN_DIR / f"spans-{workload}.tsv"
    tracer.write(span_file)
    metrics = {name: (value, layers.METRICS[name]) for name, value in values.items()}
    notes = [f"paced round times: untraced {untraced_s:.3f} s (median per call over "
             f"{len(untraced)} rounds), traced {traced_s:.3f} s; traced round wall {wall:.3f} s",
             f"{len(tracer.start)} spans written to {span_file.relative_to(ROOT)}"]
    return [warm_up] + [rnd for rnd, _ in timed] + [traced_round, after[0]], metrics, notes


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    measure = per_layer if args.trace else end_to_end
    try:
        rounds, metrics, notes = measure(args.workload, args.seed, args.seconds)
    except (ImportError, OSError) as e:
        print(f"error: cannot set up the benchmark: {e}", file=sys.stderr)
        return 2

    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    digests = {r.digest for r in rounds}
    digest = rounds[0].digest
    recorded = json.loads(DIGESTS.read_text()).get(args.workload)
    checked = args.seed == DEFAULT_SEED
    correct = failed == 0 and len(digests) == 1 and (digest == recorded or not checked)
    if not checked:
        gate = "not checked (seed is not the default)"
    else:
        gate = "matches digests.json" if digest == recorded else f"DIFFERS from digests.json ({recorded})"

    print(f"workload {args.workload}, seed {args.seed}, trace {args.trace}")
    for line in notes:
        print(line)
    print(f"fail_frac {failed / attempted if attempted else 0.0:.6f} ratio "
          f"({failed} of {attempted} verdicts failed)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"output digest {digest}{'' if len(digests) == 1 else ' (rounds DISAGREE)'}: {gate}")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
