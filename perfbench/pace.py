"""The machine's pace: a fixed pure-Python kernel timed next to every engine call.

On a shared virtual machine the same work runs up to 1.7x slower in slow
spells that last from seconds to minutes, with CPU time equal to wall time,
so neither a longer run nor a CPU clock removes them.  The benchmark times
this kernel before every engine call and after the last one, and scales each
call's time by NOMINAL_S over the mean of the kernel times on either side of
it: a call that took 2.5 kernel times counts as 2.5 * NOMINAL_S.  The kernel
does the kinds of work quiverdt does (dicts keyed by small ints and tuples,
sets of tuples, products of ~50-bit integers) and uses no quiverdt code, so a
change to the program leaves it alone.
"""
from __future__ import annotations

import time

# Seconds per kernel time in the reported figures.  The kernel took 1.8-3.0 ms
# on the baseline machine (perfbench/NOTES.md), depending on its speed at the
# time; the value only sets the scale and is fixed so that runs compare.
NOMINAL_S = 0.003


def kernel() -> int:
    """Fixed work; its result is returned so that none of it can be skipped."""
    acc: dict[int, int] = {}
    a = [(k * 2654435761) & 0x3FFFFFFFFFFFF for k in range(1, 71)]
    for i, x in enumerate(a):
        for j, y in enumerate(a[: 70 - i]):
            acc[i + j] = acc.get(i + j, 0) + x * y
    seen: set[tuple[int, ...]] = set()
    frontier = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
    while frontier:
        nxt = []
        for r in frontier:
            for k in range(4):
                s = r[:k] + (r[k] + 1,) + r[k + 1:]
                if sum(s) <= 8 and s not in seen:
                    seen.add(s)
                    nxt.append(s)
        frontier = nxt
    return len(seen) + sum(acc.values()) % 1009


def probe() -> float:
    """Seconds the kernel takes now."""
    started = time.perf_counter()
    kernel()
    return time.perf_counter() - started


def paced(seconds: float, before: float, after: float) -> float:
    """`seconds` of wall time, measured between kernel times `before` and `after`, in kernel units."""
    return seconds * NOMINAL_S * 2 / (before + after)
