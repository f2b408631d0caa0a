"""Seeded input generator for the benchmark workloads.

Everything here is plain data and uses no quiverdt code: quivers leave as
JSON text in the `quivers/*.json` format, partitions as block lists and
dimension vectors as vertex-to-integer dicts.  The same seed gives the same
inputs.

Seeds vary orientations, which leaf or path a block takes, and which
dimension vector is drawn, but hold the amount of work nearly fixed: the
number of Kostant series of each input is held at a fixed target, using the
count below, so that the verdict mix (and with it throughput and the latency
percentiles) does not depend on the seed.
"""
from __future__ import annotations

import json
import random
from itertools import product
from pathlib import Path

QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"

# Undirected graphs; a repeated pair is a doubled edge.
GRAPHS: dict[str, tuple[tuple[str, ...], tuple[tuple[str, str], ...]]] = {
    "A3": (("1", "2", "3"), (("1", "2"), ("2", "3"))),
    "A4": (("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"))),
    "D4": (("c", "1", "2", "3"), (("c", "1"), ("c", "2"), ("c", "3"))),
    "Atilde2": (("1", "2", "3"), (("1", "2"), ("2", "3"), ("1", "3"))),
    "Atilde3": (("1", "2", "3", "4"), (("1", "2"), ("2", "3"), ("3", "4"), ("4", "1"))),
    "double": (("1", "2", "3"), (("1", "2"), ("1", "2"), ("2", "3"))),
    "A5": (("1", "2", "3", "4", "5"), (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"))),
    "D5": (("1", "2", "3", "4", "5"), (("1", "2"), ("2", "3"), ("3", "4"), ("3", "5"))),
    "D6": (("1", "2", "3", "4", "5", "6"),
           (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("4", "6"))),
    "E6": (("1", "2", "3", "4", "5", "6"),
           (("1", "2"), ("2", "3"), ("3", "4"), ("4", "5"), ("3", "6"))),
}

# (graph, distinct seeded orientations per round).  The product's work depends
# on the orientation: convolution pairs differ by up to 1.35x on Atilde3 and
# D4, and a 4-vertex verdict on its one-block partition takes 180-360 ms
# against 70 ms for the median verdict.  Five orientations each of A4 and D4
# put 11 such verdicts among about 133, so p90 falls inside that cluster
# rather than on its edge, where it moved by 12% between seeds with three each.
TORUS_GRAPHS = (("A3", 3), ("A4", 5), ("D4", 5), ("Atilde2", 3), ("Atilde3", 1), ("double", 3))
TORUS_BOUND = 3
TORUS_Q_ORDER = 20

# strata-codim: (graph, candidate blocks of at least 5 vertices, Kostant series
# per input).  The one 6-vertex input carries 5 of the 26 verdicts, so the
# median falls inside the 5-vertex latency cluster and p90 near the middle of
# the 6-vertex one, whose verdicts are 6-8x slower.
STRATA_CASES = (
    ("A5", (("1", "2", "3", "4", "5"),), 7),
    ("D5", (("1", "2", "3", "4", "5"),), 7),
    ("D6", (("2", "3", "4", "5", "6"), ("1", "2", "3", "4", "5"), ("1", "2", "3", "4", "6")), 7),
    ("E6", (("1", "2", "3", "4", "5", "6"),), 5),
)
STRATA_GAMMA_ENTRIES = (0, 1, 2)

# betti-long: (graph, candidate 3-vertex blocks; other vertices are singletons).
# Every 3-vertex block here is of type A3.  Blocks of 5 or more vertices would
# turn the workload into a root-system one, so blocks stay small.
BETTI_CASES = (
    ("A3", (("1", "2", "3"),)),
    ("A4", (("1", "2", "3"), ("2", "3", "4"))),
    ("D4", (("c", "1", "2"), ("c", "1", "3"), ("c", "2", "3"))),
    ("Atilde3", (("1", "2", "3"), ("2", "3", "4"), ("3", "4", "1"), ("4", "1", "2"))),
)
BETTI_Q_ORDERS = (80, 100, 120)
BETTI_COPIES = 2  # inputs per (graph, q-order) in a round
BETTI_GAMMA_ENTRIES = (3, 4, 5, 6, 7)
BETTI_SERIES = 20


def orientations(graph: str) -> list[list[tuple[str, str]]]:
    """Every acyclic orientation of a menu graph, as (tail, head) lists, in a fixed order."""
    vertices, edges = GRAPHS[graph]
    found = []
    for flips in product((False, True), repeat=len(edges)):
        arrows = [(v, u) if flip else (u, v) for (u, v), flip in zip(edges, flips)]
        if _acyclic(vertices, arrows):
            found.append(arrows)
    return found


def quiver_text(graph: str, arrows: list[tuple[str, str]]) -> str:
    records = [{"id": f"a{i}", "tail": t, "head": h} for i, (t, h) in enumerate(arrows)]
    return json.dumps({"vertices": list(GRAPHS[graph][0]), "arrows": records})


def _acyclic(vertices, arrows) -> bool:
    indeg = dict.fromkeys(vertices, 0)
    for _, h in arrows:
        indeg[h] += 1
    ready = [v for v in vertices if indeg[v] == 0]
    seen = 0
    while ready:
        v = ready.pop()
        seen += 1
        for t, h in arrows:
            if t == v:
                indeg[h] -= 1
                if indeg[h] == 0:
                    ready.append(h)
    return seen == len(vertices)


def kostant_counts(graph: str, block: tuple[str, ...], top: int) -> dict[tuple[int, ...], int]:
    """Kostant partition counts on a block for every vector with entries up to top.

    The count for gamma is the number of ways to write gamma as a sum of
    positive roots.  Roots of a simply laced Dynkin graph are the
    non-negative vectors of Tits form 1, whatever the orientation, and only
    roots inside the box can take part.
    """
    _, edges = GRAPHS[graph]
    index = {v: i for i, v in enumerate(block)}
    pairs = [(index[u], index[v]) for u, v in edges if u in index and v in index]
    box = list(product(range(top + 1), repeat=len(block)))
    roots = [x for x in box
             if any(x) and sum(a * a for a in x) - sum(x[i] * x[j] for i, j in pairs) == 1]
    strides = [(top + 1) ** (len(block) - 1 - i) for i in range(len(block))]
    ways = [0] * len(box)
    ways[0] = 1
    for r in roots:
        offset = sum(a * s for a, s in zip(r, strides))
        # lexicographic order visits x - r before x, so r can repeat
        for x in product(*(range(a, top + 1) for a in r)):
            k = sum(a * s for a, s in zip(x, strides))
            ways[k] += ways[k - offset]
    return dict(zip(box, ways))


def _draw_gamma(rng, memo, graph, block, entries, target) -> dict[str, int]:
    """Gamma with entries from `entries` whose restriction to block has `target` Kostant partitions."""
    key = (graph, block)
    if key not in memo:
        memo[key] = kostant_counts(graph, block, max(entries))
    counts = memo[key]
    fits = [g for g, n in counts.items() if n == target and set(g) <= set(entries)]
    on_block = dict(zip(block, rng.choice(fits)))
    return {v: on_block[v] if v in on_block else rng.choice(entries) for v in GRAPHS[graph][0]}


def torus_inputs(seed: int) -> list[dict]:
    """The quivers/ files plus distinct seeded orientations of each TORUS_GRAPHS graph."""
    rng = random.Random(f"torus-sweep:{seed}")
    files = sorted(QUIVER_DIR.glob("*.json"))
    if not files:
        raise FileNotFoundError(f"no quiver files in {QUIVER_DIR}")
    cases = [{"name": f"file:{p.stem}", "quiver": p.read_text()} for p in files]
    for graph, copies in TORUS_GRAPHS:
        for k, arrows in enumerate(rng.sample(orientations(graph), copies)):
            cases.append({"name": f"menu:{graph}:{k}", "quiver": quiver_text(graph, arrows)})
    rng.shuffle(cases)
    for case in cases:
        case["bound"] = TORUS_BOUND
        case["q_order"] = TORUS_Q_ORDER
    return cases


def strata_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"strata-codim:{seed}")
    memo: dict = {}
    cases = []
    for graph, blocks, target in STRATA_CASES:
        vertices = GRAPHS[graph][0]
        big = rng.choice(blocks)
        cases.append({
            "name": graph,
            "quiver": quiver_text(graph, rng.choice(orientations(graph))),
            "blocks": [list(big)] + [[v] for v in vertices if v not in big],
            "gamma": _draw_gamma(rng, memo, graph, big, STRATA_GAMMA_ENTRIES, target),
            "series": target,
        })
    return cases


def betti_inputs(seed: int) -> list[dict]:
    rng = random.Random(f"betti-long:{seed}")
    memo: dict = {}
    cases = []
    for q_order, (graph, blocks), copy in product(BETTI_Q_ORDERS, BETTI_CASES, range(BETTI_COPIES)):
        vertices = GRAPHS[graph][0]
        big = rng.choice(blocks)
        cases.append({
            "name": f"{graph}@{q_order}:{copy}",
            "quiver": quiver_text(graph, rng.choice(orientations(graph))),
            "blocks": [list(big)] + [[v] for v in vertices if v not in big],
            "gamma": _draw_gamma(rng, memo, graph, big, BETTI_GAMMA_ENTRIES, BETTI_SERIES),
            "q_order": q_order,
        })
    rng.shuffle(cases)
    return cases


GENERATORS = {
    "torus-sweep": torus_inputs,
    "strata-codim": strata_inputs,
    "betti-long": betti_inputs,
}


def generate(workload: str, seed: int) -> list[dict]:
    """The workload's inputs for a seed: JSON-ready dicts of text, lists and ints."""
    return GENERATORS[workload](seed)
