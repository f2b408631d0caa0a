"""Command line interface.

Every invocation ends with exit code 0 (checks passed), 1 (a verification
failed), 2 (bad input) or 3 (internal error: a failed internal cross-check
or any other unexpected exception, which is a bug; its traceback goes to
stderr), plus a one-line summary.  --format jsonl swaps the human report
for machine-readable JSON rows whose values round-trip to the in-memory
report objects.
"""
from __future__ import annotations

import argparse
import json
import sys
import traceback
from contextlib import contextmanager
from math import prod
from pathlib import Path

from .algebra import trivial_dt, verify_factorization, working_v_max
from .dynkin import DEFAULT_CAP, NotDynkin, _root_count, classify_dynkin, positive_roots
from .errors import (CyclicQuiverError, EnumerationCapError, InconsistencyError,
                     NotAdmissibleError, NotDynkinError, NotTypeAError, QuiverDtError,
                     QuiverParseError)
from .ordering import admissible_total_order, reineke_inner_order
from .partitions import (
    SubquiverPartition,
    check_admissible,
    enumerate_partitions,
    kostant_series,
    make_partition,
)
from .quiver import (
    DimVector,
    Quiver,
    euler_form,
    induced_subquiver,
    parse_quiver,
    skew_form,
    topological_vertex_order,
    underlying_components,
)
from .strata import (
    betti_identity_check,
    codim_of_stratum,
    inner_lists,
    series_from_inner_lists,
    stratum_orbit_decomposition,
)

DEFAULT_Q_ORDER = 20
DEFAULT_BOUND_ENTRY = 2


class Reporter:
    def __init__(self, fmt: str):
        self.fmt = fmt

    def text(self, line: str = "") -> None:
        if self.fmt == "text":
            print(line)

    def row(self, **obj) -> None:
        if self.fmt == "jsonl":
            print(json.dumps(obj, sort_keys=True))

    def summary(self, status: str, message: str, **extra) -> None:
        if self.fmt == "jsonl":
            print(json.dumps({"type": "summary", "status": status, "message": message, **extra},
                             sort_keys=True))
        else:
            print(f"{status}: {message}")


def _int_at_least(low: int):
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _load_quiver(args: argparse.Namespace) -> Quiver:
    try:
        text = Path(args.quiver).read_text()
    except (OSError, UnicodeError) as e:
        raise QuiverDtError(f"cannot read quiver file {args.quiver}: {e}") from None
    try:
        q = parse_quiver(text)
    except QuiverParseError as e:
        raise QuiverParseError(f"quiver file {args.quiver}: {e}") from None
    if not q.vertices:  # no command has anything to do on it
        raise QuiverDtError("argument --quiver: empty quiver")
    return q


@contextmanager
def _argument(flag: str, kind: type[QuiverDtError] = QuiverDtError):
    """Name the flag in every input error of the given kind raised in the block."""
    try:
        yield
    except InconsistencyError:
        raise
    except kind as e:
        raise QuiverDtError(f"argument {flag}: {e}") from None


def _parse_json(spec: str):
    try:
        return json.loads(spec)
    except ValueError as e:  # JSONDecodeError, or an integer literal too long to convert
        raise QuiverDtError(f"malformed JSON: {e}") from None
    except RecursionError:
        raise QuiverDtError("malformed JSON: nested too deeply") from None


def _parse_gamma(q: Quiver, spec: str) -> DimVector:
    with _argument("--gamma"):
        data = _parse_json(spec)
        if not isinstance(data, dict):
            raise QuiverDtError("gamma must be a JSON object mapping vertex to integer")
        return q.vector({str(k): v for k, v in data.items()})


def _parse_bound(q: Quiver, spec: str | None, cap: int) -> DimVector:
    """The support bound; its box of dimension vectors may hold at most cap of them."""
    with _argument("--gamma-bound"):
        if spec is None:
            bound = q.vector({v: DEFAULT_BOUND_ENTRY for v in q.vertices})
        else:
            data = _parse_json(spec)
            if isinstance(data, int) and not isinstance(data, bool):
                bound = q.vector({v: data for v in q.vertices})
            elif isinstance(data, dict):
                bound = q.vector({str(k): v for k, v in data.items()})
            else:
                raise QuiverDtError("gamma bound must be an integer or a vertex-to-integer object")
        box = prod(b + 1 for b in bound.values)
        if box > cap:
            raise QuiverDtError(
                f"the box of {bound} holds {box} dimension vectors, more than --cap {cap}"
            )
        return bound


def _v_max(args: argparse.Namespace, headroom: int = 0) -> int:
    """2 * --q-order; a series of that many exponents past v^0, plus the
    headroom, may hold at most --cap coefficients."""
    v_max = 2 * args.q_order
    if v_max + headroom + 1 > args.cap:
        raise QuiverDtError(
            f"argument --q-order: a series of 2 * {args.q_order} + {headroom} + 1 = "
            f"{v_max + headroom + 1} coefficients exceeds --cap {args.cap}"
        )
    return v_max


def _parse_partition(q: Quiver, spec: str) -> SubquiverPartition:
    """A JSON array of blocks, or @path for a file holding one."""
    with _argument("--partition"):
        if spec.startswith("@"):
            try:
                spec = Path(spec[1:]).read_text()
            except (OSError, UnicodeError) as e:
                raise QuiverDtError(f"cannot read {spec[1:]}: {e}") from None
        data = _parse_json(spec)
        if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
            raise QuiverDtError("partition must be a JSON array of arrays of vertex names")
        return make_partition(q, [[str(v) for v in b] for b in data])


def _partition_lists(p: SubquiverPartition) -> list[list[str]]:
    return [list(b) for b in p.blocks]


def _order_rows(order) -> list[dict]:
    return [{"root": e.root.as_dict(), "block": e.block} for e in order.entries]


def cmd_analyze(args: argparse.Namespace, rep: Reporter) -> int:
    q = _load_quiver(args)
    units = [q.unit(v) for v in q.vertices]
    chi = [[euler_form(q, a, b) for b in units] for a in units]
    lam = [[skew_form(q, a, b) for b in units] for a in units]
    witness = None
    topo: tuple[str, ...] | None = None
    try:
        topo = topological_vertex_order(q)
    except QuiverDtError as e:
        witness = getattr(e, "witness", None)
    comps = []
    for members in underlying_components(q):
        comp = induced_subquiver(q, [q.vertices[i] for i in members])
        ct = classify_dynkin(comp)
        comps.append(
            {
                "vertices": list(comp.vertices),
                "dynkin": str(ct) if not isinstance(ct, NotDynkin) else None,
                "reason": str(ct) if isinstance(ct, NotDynkin) else None,
            }
        )
    rep.text(f"quiver: {q.n} vertices, {len(q.arrows)} arrows")
    rep.text("vertices: " + ", ".join(q.vertices))
    rep.text(f"acyclic: {'yes' if topo else 'no'}")
    if topo:
        rep.text("topological order (heads first): " + ", ".join(topo))
    else:
        rep.text("directed cycle: " + " -> ".join(witness))
    width = max(3, *(len(v) for v in q.vertices)) if q.vertices else 3

    def matrix_lines(name: str, rows: list[list[int]]) -> None:
        rep.text(f"{name}(e_i, e_j):")
        rep.text(" " * (width + 1) + " ".join(f"{v:>{width}}" for v in q.vertices))
        for v, row in zip(q.vertices, rows):
            rep.text(f"{v:>{width}}  " + " ".join(f"{x:>{width}}" for x in row))

    matrix_lines("euler form chi", chi)
    matrix_lines("skew form lambda", lam)
    for comp in comps:
        label = comp["dynkin"] or comp["reason"]
        rep.text("component {" + ",".join(comp["vertices"]) + "}: " + label)
    rep.row(
        type="analyze",
        vertices=list(q.vertices),
        arrows=[{"id": a.name, "tail": a.tail, "head": a.head} for a in q.arrows],
        acyclic=topo is not None,
        topological_order=list(topo) if topo else None,
        cycle_witness=list(witness) if witness else None,
        euler_matrix=chi,
        skew_matrix=lam,
        components=comps,
    )
    if topo is None:
        rep.summary("ERROR", "quiver has a directed cycle: " + " -> ".join(witness))
        print("error: quiver has a directed cycle: " + " -> ".join(witness), file=sys.stderr)
        return 2
    rep.summary("OK", f"analyzed {q.n} vertices, {len(q.arrows)} arrows")
    return 0


def cmd_partitions(args: argparse.Namespace, rep: Reporter) -> int:
    q = _load_quiver(args)
    with _argument("--cap", EnumerationCapError):
        found = enumerate_partitions(q, cap=args.cap)
    admissible = 0
    for i, p in enumerate(found, start=1):
        verdict = check_admissible(q, p)
        admissible += verdict.admissible
        types = ",".join(str(t) for t in p.types)
        line = f"partition {i}: {p}  types {types}  admissible={'yes' if verdict.admissible else 'no'}"
        if verdict.admissible:
            line += f" ordered={'yes' if verdict.ordered else 'no'}"
        else:
            line += "  witness " + " -> ".join(verdict.witness)
        rep.text(line)
        rep.row(
            type="partition",
            index=i,
            blocks=_partition_lists(p),
            dynkin=[str(t) for t in p.types],
            admissible=verdict.admissible,
            ordered=verdict.ordered,
            witness=list(verdict.witness) if verdict.witness else None,
        )
    rep.summary("OK", f"{len(found)} partitions ({admissible} admissible)",
                partitions=len(found), admissible=admissible)
    return 0


def _check_root_count(count: int, cap: int) -> None:
    """Refuse, before any root is enumerated, to print more than cap roots."""
    if count > cap:
        raise QuiverDtError(f"argument --cap: {count} positive roots, more than --cap {cap}")


def cmd_roots(args: argparse.Namespace, rep: Reporter) -> int:
    q = _load_quiver(args)
    if args.partition is None:
        with _argument("--quiver"):
            t = classify_dynkin(q)
            if isinstance(t, NotDynkin):
                raise NotDynkinError(str(t), kind=t.kind)
        _check_root_count(_root_count(t), args.cap)
        rs = positive_roots(q)
        for r in rs.roots:
            rep.text(f"{r}")
            rep.row(type="root", root=r.as_dict())
        rep.summary("OK", f"{len(rs.roots)} positive roots of type {rs.dynkin_type}",
                    count=len(rs.roots), dynkin=str(rs.dynkin_type))
        return 0
    p = _parse_partition(q, args.partition)
    _check_root_count(sum(map(_root_count, p.types)), args.cap)
    with _argument("--partition", NotAdmissibleError):
        order = admissible_total_order(q, p)
    rep.text(f"blocks in contraction order: {order.partition}")
    for i, e in enumerate(order.entries, start=1):
        rep.text(f"{i:3d}. {e.root}  (block {e.block + 1})")
    for row in _order_rows(order):
        rep.row(type="order-entry", **row)
    rep.summary("OK", f"admissible order with {len(order.entries)} roots",
                count=len(order.entries), partition=_partition_lists(order.partition))
    return 0


def cmd_dt(args: argparse.Namespace, rep: Reporter) -> int:
    q = _load_quiver(args)
    bound = _parse_bound(q, args.gamma_bound, args.cap)
    v_max = _v_max(args, working_v_max(q, bound, 0))
    with _argument("--quiver", CyclicQuiverError):
        el = trivial_dt(q, bound, v_max)
    rep.text(f"combinatorial DT invariant, support bound {bound}, q-order {args.q_order}")
    # a series past v_max may be nonzero only in its headroom: not a term at this q-order
    terms = [(g, c) for g in el.support() if (c := el.coefficient(g))]
    for g, c in terms:
        rep.text(f"y{g}: {c}")
        rep.row(type="dt-term", gamma=g.as_dict(), series=c.to_pairs())
    rep.summary("OK", f"{len(terms)} terms within bound {bound}",
                terms=len(terms), bound=bound.as_dict(), q_order=args.q_order)
    return 0


def _report_factorization(rep: Reporter, report) -> None:
    rep.text(f"partition: {report.partition}")
    rep.text("order: " + " < ".join(str(e.root) for e in report.order.entries))
    if report.passed:
        rep.text(f"PASS: all coefficients match within bound {report.bound} "
                 f"at q-order {report.v_max // 2}")
    else:
        rep.text(f"FAIL: {len(report.mismatches)} mismatched coefficients")
        for g, lhs, rhs in report.mismatches:
            rep.text(f"  gamma {g}: trivial {lhs}  factorized {rhs}")
    rep.row(
        type="factorization",
        partition=_partition_lists(report.partition),
        order=_order_rows(report.order),
        bound=report.bound.as_dict(),
        q_order=report.v_max // 2,
        passed=report.passed,
        mismatches=[
            {"gamma": g.as_dict(), "trivial": a.to_pairs(), "factorized": b.to_pairs()}
            for g, a, b in report.mismatches
        ],
    )


def cmd_factorize(args: argparse.Namespace, rep: Reporter) -> int:
    q = _load_quiver(args)
    bound = _parse_bound(q, args.gamma_bound, args.cap)
    v_max = _v_max(args, working_v_max(q, bound, 0))
    if args.all_partitions:
        with _argument("--cap", EnumerationCapError):
            ps = enumerate_partitions(q, admissible_only=True, cap=args.cap)
    elif args.partition is not None:
        ps = [_parse_partition(q, args.partition)]
    else:
        raise QuiverDtError("factorize needs --partition or --all-partitions")
    with _argument("--quiver", CyclicQuiverError):
        reference = trivial_dt(q, bound, v_max)
    failed = 0
    for p in ps:
        with _argument("--partition", NotAdmissibleError):
            report = verify_factorization(q, p, bound, v_max, reference=reference)
        _report_factorization(rep, report)
        failed += not report.passed
    status = "FAIL" if failed else "PASS"
    if args.all_partitions:
        rep.summary(status, f"{len(ps) - failed}/{len(ps)} admissible partitions verified",
                    verified=len(ps) - failed, total=len(ps))
    else:
        rep.summary(status, f"factorization for {report.partition} "
                            f"{'differs from' if failed else 'matches'} the DT product")
    return 1 if failed else 0


def _strata_inputs(args: argparse.Namespace):
    """Quiver, partition, gamma and the --series value (None if absent) of a
    strata command, all parsed before the command prints anything."""
    q = _load_quiver(args)
    p = _parse_partition(q, args.partition)
    gamma = _parse_gamma(q, args.gamma)
    if getattr(args, "series", None) is None:  # betti takes no --series
        return q, p, gamma, None
    with _argument("--series"):
        data = _parse_json(args.series)
        if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
            raise QuiverDtError("series must be a JSON array of per-block multiplicity arrays")
        m = series_from_inner_lists(q, p, data)
        if m.gamma() != gamma:
            raise QuiverDtError(f"series sums to {m.gamma()}, not {gamma}")
    return q, p, gamma, m


def cmd_codim(args: argparse.Namespace, rep: Reporter) -> int:
    q, p, gamma, given = _strata_inputs(args)
    rows = kostant_series(q, p, gamma, cap=args.cap) if given is None else [given]
    for j, block in enumerate(p.induced):
        roots = ", ".join(str(r) for r in reineke_inner_order(block))
        rep.text(f"block {j + 1} {{{','.join(p.blocks[j])}}} inner root order: {roots}")
    for m in rows:
        report = codim_of_stratum(q, p, m, gamma)
        lists = [list(b) for b in report.lists]
        rep.text(f"m={lists}  codim={report.codim}  sign_parity={report.sign_exponent_parity}")
        rep.row(
            type="codim",
            series=lists,
            codim=report.codim,
            sign_exponent_parity=report.sign_exponent_parity,
            gamma=gamma.as_dict(),
        )
    rep.summary("OK", f"{len(rows)} strata of gamma={gamma}", strata=len(rows))
    return 0


def cmd_betti(args: argparse.Namespace, rep: Reporter) -> int:
    q, p, gamma, _ = _strata_inputs(args)
    verdict = betti_identity_check(q, p, gamma, _v_max(args), cap=args.cap)
    lists = [[list(b) for b in term.lists] for term in verdict.terms]
    rep.text(f"lhs = product of P_k over gamma={gamma} entries")
    for term, m in zip(verdict.terms, lists):
        factors = " ".join(f"P_{x}" for x in term.factors) or "1"
        rep.text(f"  + q^{term.codim} * {factors}   (m={m})")
    rep.text(f"lhs: {verdict.lhs}")
    rep.text(f"rhs: {verdict.rhs}")
    rep.row(
        type="betti",
        gamma=gamma.as_dict(),
        q_order=args.q_order,
        passed=verdict.equal,
        lhs=verdict.lhs.to_pairs(),
        rhs=verdict.rhs.to_pairs(),
        terms=[
            {"series": m, "codim": t.codim, "factors": list(t.factors)}
            for t, m in zip(verdict.terms, lists)
        ],
    )
    status = "PASS" if verdict.equal else "FAIL"
    rep.summary(status, f"Betti identity with {len(verdict.terms)} terms at q-order {args.q_order}")
    return 0 if verdict.equal else 1


def cmd_orbits(args: argparse.Namespace, rep: Reporter) -> int:
    q, p, gamma, given = _strata_inputs(args)
    rows = kostant_series(q, p, gamma, cap=args.cap) if given is None else [given]
    total = 0
    for m in rows:
        with _argument("--quiver", NotTypeAError):
            orbits = stratum_orbit_decomposition(q, p, m, gamma, cap=args.cap)
        total += len(orbits)
        lists = inner_lists(m)
        rep.text(f"m={lists}: {len(orbits)} orbits")
        for full in orbits:
            rep.text("   " + str(full))
        rep.row(
            type="orbits",
            series=lists,
            count=len(orbits),
            orbits=[
                [{"root": r.as_dict(), "mult": x} for r, x in full.nonzero()]
                for full in orbits
            ],
        )
    rep.summary("OK", f"{total} orbits across {len(rows)} strata", orbits=total)
    return 0


FLAGS = {
    "--quiver": dict(help="path to a quiver JSON file"),
    "--format": dict(choices=("text", "jsonl"), default="text"),
    "--cap": dict(type=_int_at_least(1), default=DEFAULT_CAP,
                  help="enumeration cap (default %(default)s)"),
    "--partition": dict(help="JSON array of vertex-name arrays, or @path to a file "
                             "holding one"),
    "--gamma": dict(help='JSON object, e.g. \'{"1":2,"2":3}\''),
    "--gamma-bound": dict(help=f"integer or JSON object (default {DEFAULT_BOUND_ENTRY} per vertex);"
                               " its box of dimension vectors may hold at most --cap of them"),
    "--q-order": dict(type=_int_at_least(0), default=DEFAULT_Q_ORDER,
                      help="series truncation in powers of q (default %(default)s); a series of "
                           "2 * q-order + 1 coefficients, plus the headroom of the bound, "
                           "may hold at most --cap of them"),
    "--series": dict(help="JSON array of per-block multiplicity arrays "
                          "in inner root order"),
    "--all-partitions": dict(action="store_true",
                             help="run over every admissible partition"),
}

STRATUM = ("--partition", "--gamma")

# name: (handler, help, optional flags, required flags); every command
# also requires --quiver and takes --format and --cap
COMMANDS = {
    "analyze": (cmd_analyze, "acyclicity, forms, Dynkin classification", (), ()),
    "partitions": (cmd_partitions, "enumerate Dynkin subquiver partitions", (), ()),
    "roots": (cmd_roots, "positive roots, or a partition's root order", ("--partition",), ()),
    "dt": (cmd_dt, "trivial dilogarithm product", ("--gamma-bound", "--q-order"), ()),
    "factorize": (cmd_factorize, "verify factorization identities",
                  ("--partition", "--gamma-bound", "--q-order", "--all-partitions"), ()),
    "codim": (cmd_codim, "stratum codimensions", ("--series",), STRATUM),
    "betti": (cmd_betti, "Betti series identity", ("--q-order",), STRATUM),
    "orbits": (cmd_orbits, "orbit decomposition of strata (type A)", ("--series",), STRATUM),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdt",
        description="Combinatorial DT invariants of acyclic quivers and "
                    "dilogarithm factorization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_, optional, required) in COMMANDS.items():
        sp = sub.add_parser(name, help=help_)
        for flag in ("--quiver", "--format", "--cap", *required, *optional):
            sp.add_argument(flag, required=flag in ("--quiver", *required), **FLAGS[flag])
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    rep = Reporter(args.format)
    try:
        return COMMANDS[args.command][0](args, rep)
    except Exception as e:
        internal = isinstance(e, InconsistencyError) or not isinstance(e, QuiverDtError)
        message = f"internal error: {type(e).__name__}: {e}" if internal else str(e)
        if internal:
            traceback.print_exc()
        if args.format == "jsonl":
            rep.summary("ERROR", message)
        print(f"error: {message}", file=sys.stderr)
        return 3 if internal else 2


if __name__ == "__main__":
    raise SystemExit(main())
