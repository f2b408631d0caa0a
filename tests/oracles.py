"""Independent reference implementations used to cross-check library output.

Everything here is computed from first principles (explicit enumeration,
reflection closure, direct formulas) without calling the code under test,
except where a test explicitly feeds library objects in.
"""
from __future__ import annotations

import random
from collections import deque
from functools import lru_cache
from itertools import permutations

from quiverdt import (
    BettiTerm,
    BettiVerdict,
    InvalidInputError,
    KostantSeries,
    OrderVerdict,
    QuantumElement,
    Quiver,
    VSeries,
    admissible_total_order,
    codim_of_stratum,
    dilog,
    expected_root_multiset,
    factorization_product,
    identity,
    inner_lists,
    kostant_series,
    make_partition,
    monomial_normal_form,
    poincare_series,
    qt_multiply,
    validate_order,
)
from quiverdt.quiver import Arrow


def build_quiver(vertices, arrows) -> Quiver:
    """Construct a quiver from plain tuples (name, tail, head)."""
    return Quiver(
        vertices=tuple(vertices),
        arrows=tuple(Arrow(name, tail, head) for name, tail, head in arrows),
    )


def partitions_with_parts_at_most(n: int, k: int):
    """Yield every partition of n with parts at most k, parts descending."""
    if n == 0:
        yield ()
        return
    for first in range(min(n, k), 0, -1):
        for rest in partitions_with_parts_at_most(n - first, first):
            yield (first,) + rest


def brute_partition_count(n: int, k: int) -> int:
    return sum(1 for _ in partitions_with_parts_at_most(n, k))


def q_coefficient(s: VSeries, n: int) -> int:
    """Coefficient of q^n, i.e. of v^(2n)."""
    return s.coefficient(2 * n)


def series_from_pairs(v_max: int, pairs) -> VSeries:
    """The series with these (v-exponent, coefficient) pairs, cut at v_max."""
    return VSeries.from_terms(v_max, {int(e): int(c) for e, c in pairs})


def q_series(v_max: int, min_exp: int, run) -> VSeries:
    """The series with run[i] at v^(min_exp + 2i): one exponent parity."""
    out = [0] * (2 * len(run) - 1) if run else []
    out[::2] = run
    return VSeries(v_max, min_exp, out)


def naive_poly_mul(a_pairs, b_pairs):
    """Dict-based convolution of (exponent, coefficient) pair lists."""
    out: dict[int, int] = {}
    for ea, ca in a_pairs:
        for eb, cb in b_pairs:
            out[ea + eb] = out.get(ea + eb, 0) + ca * cb
    return sorted((e, c) for e, c in out.items() if c)


def dict_convolve_into(acc: dict[int, int], a: VSeries, b: VSeries, shift: int, sign: int,
                       v_max: int) -> None:
    """Accumulate sign * v^shift * a * b into a coefficient map, truncating."""
    b_items = list(b.items())
    for e1, c1 in a.items():
        base = e1 + shift
        sc1 = sign * c1
        for e2, c2 in b_items:
            e = base + e2
            if e > v_max:
                break
            acc[e] = acc.get(e, 0) + sc1 * c2


# (a, b) whose product peaks at 2^(w-1) - 1 = L1(a) * Linf(b) < Linf(a) * L1(b);
# at w = 16, Linf(a) * Linf(b) = 127 fits 8 bits
TIGHT_WIDTH_OPERANDS = {
    8: ((64, 63), (1, 1, 1)),
    16: ((127,) * 258 + (1,), (1,) * 259),
    32: ((2**30, 2**30 - 1), (1, 1, 1)),
    64: ((2**62, 2**62 - 1), (1, 1, 1)),
}


def _work(q, bound, v_max) -> int:
    """v_max plus sum(bound[t] * bound[h]) over arrows t -> h: the cutoff at y_0."""
    index = {v: i for i, v in enumerate(q.vertices)}
    b = bound.values
    return v_max + sum(b[index[a.tail]] * b[index[a.head]] for a in q.arrows)


def dense_qt_multiply(x, y, at_work: bool = False) -> dict[tuple[int, ...], VSeries]:
    """The quantum torus product x * y as {gamma values: series at gamma's cutoff}.

    Term pairs are convolved coefficient by coefficient into dicts, with the
    skew form read off the arrow list.  The series at gamma is cut at the
    working cutoff v_max + sum(bound[t] * bound[h]) minus sum(gamma[t] *
    gamma[h]), over arrows t -> h; with at_work it is cut at the working
    cutoff itself.  Only nonzero series are kept.
    """
    q = x.quiver
    b = x.bound.values
    index = {v: i for i, v in enumerate(q.vertices)}
    arrows = [(index[a.tail], index[a.head]) for a in q.arrows]
    work = _work(q, x.bound, x.v_max)

    def cut(g):
        return work if at_work else work - sum(g[t] * g[h] for t, h in arrows)

    acc: dict[tuple[int, ...], dict[int, int]] = {}
    for g1, c1 in x.terms.items():
        for g2, c2 in y.terms.items():
            u, w = g1.values, g2.values
            total = tuple(i + j for i, j in zip(u, w))
            if any(t > c for t, c in zip(total, b)):
                continue
            if not any(u) or not any(w):
                shift, sign = 0, 1
            else:
                shift, sign = sum(u[t] * w[h] - u[h] * w[t] for t, h in arrows), -1
            dict_convolve_into(acc.setdefault(total, {}), c1, c2, shift, sign, cut(total))
    out = {g: VSeries.from_terms(cut(g), coeffs) for g, coeffs in acc.items()}
    return {g: s for g, s in out.items() if not s.is_zero}


def dense_dilog(q, gamma, bound, v_max) -> QuantumElement:
    """The dilogarithm of y_gamma with every series at the working cutoff: 1 at
    y_0 and -v^(k^2) P_k at y_(k*gamma), the q^n coefficient of P_k counted
    by brute_partition_count."""
    work = _work(q, bound, v_max)
    terms = {q.zero(): VSeries.one(work)}
    k = 1
    while all(k * g <= b for g, b in zip(gamma.values, bound.values)):
        p_k = {k * k + 2 * n: -brute_partition_count(n, k) for n in range((work - k * k) // 2 + 1)}
        terms[q.vector([k * g for g in gamma.values])] = VSeries.from_terms(work, p_k)
        k += 1
    return QuantumElement(q, bound, v_max, {g: s for g, s in terms.items() if s})


def dense_times(x, y) -> QuantumElement:
    """x * y by dense_qt_multiply with every series at the working cutoff."""
    q = x.quiver
    terms = dense_qt_multiply(x, y, at_work=True)
    return QuantumElement(q, x.bound, x.v_max, {q.vector(list(g)): s for g, s in terms.items()})


def coefficient_mismatches(lhs, rhs) -> list:
    """(gamma, lhs side, rhs side) for every gamma whose coefficient() differs.

    Gammas run over the union of both supports, by height then values.
    """
    gammas = sorted(lhs.terms.keys() | rhs.terms.keys(), key=lambda g: (g.height, g.values))
    return [(g, lhs.coefficient(g), rhs.coefficient(g)) for g in gammas
            if lhs.coefficient(g) != rhs.coefficient(g)]


def naive_betti(q: Quiver, p, gamma, v_max: int) -> BettiVerdict:
    """The Betti identity check term by term, one series product per P factor.

    Each term's codim is the sum of codim_of_stratum's block codims, and its
    product of P factors is multiplied out afresh; the diffs walk every
    exponent from min(lhs, rhs, v^0) to v_max.
    """
    lhs = VSeries.one(v_max)
    for x in gamma.values:
        lhs = lhs * poincare_series(x, v_max)
    rhs = VSeries.zero(v_max)
    terms = []
    for m in kostant_series(q, p, gamma):
        codim = sum(codim_of_stratum(q, p, m, gamma).block_codims)
        factors = tuple(sorted(x for x in m.multiplicities() if x))
        prod = VSeries.one(v_max)
        for x in factors:
            prod = prod * poincare_series(x, v_max)
        rhs = rhs + prod.shift(2 * codim)
        terms.append(BettiTerm(m, codim, factors, tuple(map(tuple, inner_lists(m)))))
    diffs = tuple((e, lhs.coefficient(e), rhs.coefficient(e))
                  for e in range(min(lhs.min_exp, rhs.min_exp, 0), v_max + 1)
                  if lhs.coefficient(e) != rhs.coefficient(e))
    return BettiVerdict(lhs, rhs, tuple(terms), not diffs, diffs)


@lru_cache(maxsize=None)
def _one_block_order(b: Quiver):
    """b as a one-block partition, with its admissible root order."""
    whole = make_partition(b, [list(b.vertices)])
    return whole, admissible_total_order(b, whole)


def normal_form_block_codims(m: KostantSeries) -> tuple[int, ...]:
    """Each block's orbit codimension by the normal-form engine.

    A block's Kostant partition, taken as a one-block series in the block's
    admissible order, reduces to sign * v^v_power times the simple-root
    monomial of its dimension vector gamma.  The codimension solves
    v_power = 2*codim + sum(gamma_i^2) - sum(m_u^2), and the sign must be
    (-1)^(sum m_u * (height_u - 1)); an odd or negative 2*codim or a wrong
    sign fails an assertion.
    """
    codims = []
    for b, kp in zip(m.partition.induced, m.per_block):
        whole, order = _one_block_order(b)
        nf = monomial_normal_form(b, whole, order, KostantSeries(whole, (kp,)))
        twice = nf.v_power - sum(x * x for x in nf.gamma.values) + sum(k * k for k in kp.multiplicities)
        assert twice >= 0 and twice % 2 == 0, f"block {b.vertices}: 2*codim = {twice}"
        parity = sum(k * (r.height - 1) for r, k in kp.nonzero()) % 2
        assert nf.sign == (-1) ** parity, f"block {b.vertices}: sign {nf.sign}, parity {parity}"
        codims.append(twice // 2)
    return tuple(codims)


def cartan_matrix(q: Quiver) -> list[list[int]]:
    """Symmetrized Cartan matrix of the underlying graph (simply laced)."""
    n = q.n
    c = [[2 if i == j else 0 for j in range(n)] for i in range(n)]
    for a in q.arrows:
        i, j = q.index(a.tail), q.index(a.head)
        c[i][j] -= 1
        c[j][i] -= 1
    return c


def reflection_closure_roots(q: Quiver) -> set[tuple[int, ...]]:
    """Positive roots as the reflection closure of the simple roots.

    Applies s_i(v) = v − ⟨v, α_i⟩ α_i repeatedly and keeps the vectors
    with non-negative entries.  Independent of the box-scan enumeration
    in the library.
    """
    n = q.n
    c = cartan_matrix(q)
    simple = [tuple(int(j == i) for j in range(n)) for i in range(n)]
    roots: set[tuple[int, ...]] = set(simple)
    frontier = list(simple)
    while frontier:
        fresh = []
        for v in frontier:
            for i in range(n):
                pairing = sum(c[i][j] * v[j] for j in range(n))
                w = tuple(v[j] - pairing * int(j == i) for j in range(n))
                if w in roots:
                    continue
                if all(x >= 0 for x in w) and any(x > 0 for x in w):
                    roots.add(w)
                    fresh.append(w)
        frontier = fresh
    return roots


def brute_kostant(roots, gamma) -> set[tuple[int, ...]]:
    """Multiplicity tuples writing gamma as a sum of the given roots."""
    roots = [tuple(r) for r in roots]
    gamma = tuple(gamma)
    n = len(gamma)
    found: set[tuple[int, ...]] = set()

    def rec(idx: int, remaining: tuple[int, ...], mults: list[int]) -> None:
        if all(x == 0 for x in remaining):
            found.add(tuple(mults + [0] * (len(roots) - idx)))
            return
        if idx == len(roots):
            return
        r = roots[idx]
        cap = min((remaining[i] // r[i] for i in range(n) if r[i]), default=0)
        for c in range(cap + 1):
            rest = tuple(remaining[i] - c * r[i] for i in range(n))
            if all(x >= 0 for x in rest):
                rec(idx + 1, rest, mults + [c])

    rec(0, gamma, [])
    return found


def skew_on_units(q: Quiver, vi: str, vj: str) -> int:
    """lambda(e_i, e_j) read off the arrow list directly."""
    val = 0
    for a in q.arrows:
        if a.tail == vi and a.head == vj:
            val += 1
        elif a.head == vi and a.tail == vj:
            val -= 1
    return val


def topo_vertices(q: Quiver) -> list[str]:
    """Heads-first vertex order via a plain queue-based peel."""
    outdeg = {v: 0 for v in q.vertices}
    preds: dict[str, list[str]] = {v: [] for v in q.vertices}
    for a in q.arrows:
        outdeg[a.tail] += 1
        preds[a.head].append(a.tail)
    ready = deque(v for v in q.vertices if outdeg[v] == 0)
    out = []
    while ready:
        v = ready.popleft()
        out.append(v)
        for u in preds[v]:
            outdeg[u] -= 1
            if outdeg[u] == 0:
                ready.append(u)
    if len(out) != q.n:
        raise ValueError("not acyclic")
    return out


def bfs_shortest_cycle(vertices, pairs) -> tuple | None:
    """Shortest closed directed walk over named vertices and (tail, head)
    pairs, returned with the start vertex repeated; None when acyclic.

    A name-keyed breadth-first search from each start in input order.
    Loops win over longer cycles, the earliest looped vertex first; other
    ties go to the earliest start.  pairs may hold loops, which no Quiver can.
    """
    for v in vertices:
        if (v, v) in pairs:
            return (v, v)
    succ: dict = {v: [] for v in vertices}
    for t, h in pairs:
        succ[t].append(h)
    best = None
    for start in vertices:
        prev = {}
        dist = {start: 0}
        queue = deque([start])
        hit = None
        while queue and hit is None:
            u = queue.popleft()
            for w in succ[u]:
                if w == start:
                    hit = u
                    break
                if w not in dist:
                    dist[w] = dist[u] + 1
                    prev[w] = u
                    queue.append(w)
        if hit is None:
            continue
        path = [hit]
        while path[-1] != start:
            path.append(prev[path[-1]])
        cycle = tuple(reversed(path)) + (start,)
        if best is None or len(cycle) < len(best):
            best = cycle
    return best


def brute_contraction_order(q: Quiver, blocks) -> list[int] | None:
    """The lexicographically smallest permutation of block indices that lists
    every cross-block arrow's head block no later than its tail block.

    None when no permutation does, or when some block's induced arrows
    close an undirected cycle (more arrows than a spanning forest holds).
    """
    at = {v: j for j, b in enumerate(blocks) for v in b}
    for b in blocks:
        internal = [(a.tail, a.head) for a in q.arrows if at[a.tail] == at[a.head] == at[b[0]]]
        reached: set = set()
        components = 0
        for v in b:
            if v in reached:
                continue
            components += 1
            reached.add(v)
            stack = [v]
            while stack:
                u = stack.pop()
                for t, h in internal:
                    for x, y in ((t, h), (h, t)):
                        if x == u and y not in reached:
                            reached.add(y)
                            stack.append(y)
        if len(internal) != len(b) - components:
            return None
    for perm in permutations(range(len(blocks))):  # lexicographic order
        pos = {j: i for i, j in enumerate(perm)}
        if all(pos[at[a.head]] <= pos[at[a.tail]] for a in q.arrows):
            return list(perm)
    return None


def random_set_partition(rng: random.Random, items) -> list[list]:
    """Items dealt into a random number of non-empty blocks, in item order."""
    items = list(items)
    k = rng.randint(1, len(items))
    labels = [rng.randrange(k) for _ in items]
    return [[x for x, lab in zip(items, labels) if lab == j] for j in sorted(set(labels))]


def random_cyclic_quiver(rng: random.Random, max_vertices: int = 6, max_arrows: int = 6) -> Quiver:
    """Small random quiver with random arrows and one planted directed cycle."""
    n = rng.randint(2, max_vertices)
    names = [str(i + 1) for i in range(n)]
    arrows = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, max_arrows))]
    ring = rng.sample(names, rng.randint(2, n))
    arrows += list(zip(ring, ring[1:] + ring[:1]))
    rng.shuffle(arrows)
    return build_quiver(names, [(f"a{k}", t, h) for k, (t, h) in enumerate(arrows)])


def closed_form_dt_coefficient(q: Quiver, gamma, v_max: int) -> VSeries:
    """Coefficient of y_gamma in the full dilogarithm product, closed form.

    For nonzero gamma the product telescopes to
    −v^(t + Σ γ_i²) · Π_i P_{γ_i}, with t the skew-form twist collected
    while sorting the simple-root factors into one monomial.
    """
    order = topo_vertices(q)
    vals = {v: gamma[v] for v in q.vertices}
    if all(x == 0 for x in vals.values()):
        return VSeries.one(v_max)
    t = 0
    for i in range(len(order)):
        for j in range(i + 1, len(order)):
            t += vals[order[i]] * vals[order[j]] * skew_on_units(q, order[i], order[j])
    base = t + sum(x * x for x in vals.values())
    work = v_max + abs(base) + 1
    prod = VSeries.one(work)
    for v in q.vertices:
        k = vals[v]
        pairs = []
        n = 0
        while 2 * n <= work:
            pairs.append((2 * n, brute_partition_count(n, k)))
            n += 1
        prod = prod * series_from_pairs(work, pairs)
    shifted = (-1) * prod.shift(base)
    return series_from_pairs(v_max, shifted.to_pairs())


def dilog_coefficient_pairs(k: int, v_max: int):
    """(v-exponent, coefficient) pairs for the y_{k·gamma} term of E.

    (−y)^k collapses to −y_{k·gamma} for every k ≥ 1, so the term is
    −q^{k²/2} P_k; the q^n entry of P_k counts partitions of n with
    parts at most k.
    """
    sign = 1 if k == 0 else -1
    out = []
    n = 0
    while k * k + 2 * n <= v_max:
        out.append((k * k + 2 * n, sign * brute_partition_count(n, k)))
        n += 1
    return out


def monomial_product_form(q: Quiver, gammas):
    """Fold the defining two-factor relation over a list of dim vectors.

    Returns (sign, v_power, total) with the product equal to
    sign · v^v_power · y_total.
    """
    sign = 1
    power = 0
    acc = q.zero()
    for g in gammas:
        if not acc.is_zero and not g.is_zero:
            sign = -sign
            power += sum(
                acc[a.tail] * g[a.head] - acc[a.head] * g[a.tail] for a in q.arrows
            )
        acc = acc + g
    return sign, power, acc


def random_acyclic_quiver(rng: random.Random, max_vertices: int = 4, max_arrows: int = 4) -> Quiver:
    """Small random acyclic quiver; arrows run against a shuffled order."""
    n = rng.randint(2, max_vertices)
    names = [str(i + 1) for i in range(n)]
    rank = {v: i for i, v in enumerate(rng.sample(names, n))}
    arrows = []
    for k in range(rng.randint(1, max_arrows)):
        t, h = rng.sample(names, 2)
        if rank[t] < rank[h]:
            t, h = h, t
        arrows.append((f"a{k}", t, h))
    return build_quiver(names, arrows)


def random_dim_vector(rng: random.Random, q: Quiver, top: int = 3):
    return q.vector({v: rng.randint(0, top) for v in q.vertices})


def path_quiver(n: int, flips=()) -> Quiver:
    """A_n path 1−2−⋯−n; arrow i points (i+1)→i unless i in flips."""
    names = [str(i + 1) for i in range(n)]
    arrows = []
    for i in range(1, n):
        t, h = str(i + 1), str(i)
        if i in flips:
            t, h = h, t
        arrows.append((f"a{i}", t, h))
    return build_quiver(names, arrows)


def skew_form_restricted(q: Quiver, arrow_names, g1, g2) -> int:
    """Skew form of two dimension vectors counting only the named arrows."""
    names = set(arrow_names)
    unknown = names - {a.name for a in q.arrows}
    if unknown:
        raise ValueError(f"unknown arrows {sorted(unknown)}")
    return sum(
        g1[a.tail] * g2[a.head] - g1[a.head] * g2[a.tail] for a in q.arrows if a.name in names
    )


def validate_order_technical(q: Quiver, p, entries) -> OrderVerdict:
    """The pairing rules with the same-block rule split by arrows.

    Same block, u before v: the block-internal arrows' skew form must be
    >= 0 and the complementary arrows' <= 0; different blocks: the full
    skew form must be <= 0.  For partitions whose blocks carry all induced
    arrows this agrees with validate_order.
    """
    entries = tuple(getattr(entries, "entries", entries))
    block_arrows = [{a.name for a in p.induced[j].arrows} for j in range(p.size)]
    all_arrows = {a.name for a in q.arrows}
    for u, (ru, ju) in enumerate(entries):
        for v in range(u + 1, len(entries)):
            rv, jv = entries[v]
            if ju == jv:
                inner = skew_form_restricted(q, block_arrows[ju], ru, rv)
                if inner < 0:
                    return OrderVerdict(False, (u, v, "within-block", inner))
                outer = skew_form_restricted(q, all_arrows - block_arrows[ju], ru, rv)
                if outer > 0:
                    return OrderVerdict(False, (u, v, "within-block-complement", outer))
            else:
                val = skew_form_restricted(q, all_arrows, ru, rv)
                if val > 0:
                    return OrderVerdict(False, (u, v, "across-blocks", val))
    return OrderVerdict(True, None)


def brute_force_valid_orders(q: Quiver, p, max_roots: int = 8):
    """Every permutation of the expected roots that passes validate_order.

    Exhaustive search over the library's expected root multiset; guarded
    by a root-count limit since the cost is factorial.
    """
    pool = list(expected_root_multiset(q, p).elements())
    if len(pool) > max_roots:
        raise InvalidInputError(
            f"{len(pool)} roots exceed the brute-force limit of {max_roots}"
        )
    pool.sort(key=lambda e: (e.block, e.root.values))
    found = []
    seen: set = set()
    for perm in permutations(pool):
        if perm in seen:
            continue
        seen.add(perm)
        if validate_order(q, p, perm).valid:
            found.append(perm)
    return found


def chain_factorization_product(q: Quiver, order, bound, v_max: int):
    """The dilogarithm product along order, one root at a time onto the
    growing product, from the identity; the order is not validated."""
    out = identity(q, bound, v_max)
    for entry in order.entries:
        out = qt_multiply(out, dilog(q, entry.root, bound, v_max))
    return out


def materialized_verdict(q: Quiver, p, bound, v_max: int, reference) -> tuple[bool, list]:
    """(passed, mismatches) of comparing reference with the whole
    factorization_product of p's admissible order.

    Series that are equal at the working cutoff agree; every other gamma of
    either side is cut to v_max on both sides and kept when the cuts differ.
    Mismatches are (gamma, reference side, product side), by height then values.
    """
    rhs = factorization_product(q, admissible_total_order(q, p), bound, v_max)
    left, right = reference.terms, rhs.terms

    def cut(s):
        return VSeries(v_max) if s is None else VSeries(v_max, s.min_exp, s.coeffs)

    differ = [g for g, s in left.items() if right.get(g) != s]
    differ += [g for g in right if g not in left]
    mismatches = []
    for g in sorted(differ, key=lambda g: (g.height, g.values)):
        a, b = cut(left.get(g)), cut(right.get(g))
        if a != b:
            mismatches.append((g, a, b))
    return not mismatches, mismatches


def random_orientation(rng: random.Random, vertices, edges) -> Quiver:
    """The graph with each edge pointing down a random vertex ranking, so acyclic."""
    rank = {v: i for i, v in enumerate(rng.sample(list(vertices), len(vertices)))}
    arrows = [(f"e{k}", *sorted((x, y), key=rank.get, reverse=True)) for k, (x, y) in enumerate(edges)]
    return build_quiver(list(vertices), arrows)


def random_valid_order(rng: random.Random, q: Quiver, entries) -> tuple:
    """A random permutation of entries that keeps every pair the pairing rules
    fix: same block, skew(u, v) < 0 puts v first; different blocks, skew(u, v)
    > 0 does.  A Kahn sort of those constraints taking a random ready entry."""
    entries = list(entries)
    names = {a.name for a in q.arrows}
    n = len(entries)
    succ = [[] for _ in range(n)]
    indeg = [0] * n
    for i in range(n):
        for j in range(i + 1, n):
            (ri, bi), (rj, bj) = entries[i], entries[j]
            s = skew_form_restricted(q, names, ri, rj)
            if s and (s < 0) == (bi == bj):
                first, then = j, i
            elif s:
                first, then = i, j
            else:
                continue
            succ[first].append(then)
            indeg[then] += 1
    ready = [i for i in range(n) if not indeg[i]]
    out = []
    while ready:
        i = ready.pop(rng.randrange(len(ready)))
        out.append(entries[i])
        for j in succ[i]:
            indeg[j] -= 1
            if not indeg[j]:
                ready.append(j)
    assert len(out) == n, "the pairing rules left a cycle"
    return tuple(out)
