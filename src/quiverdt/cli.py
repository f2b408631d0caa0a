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
from dataclasses import dataclass
from pathlib import Path

from .algebra import trivial_dt, verify_factorization
from .dynkin import NotDynkin, classify_dynkin, positive_roots
from .errors import InconsistencyError, QuiverDtError
from .ordering import admissible_total_order
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
    underlying_connected,
)
from .series import VSeries
from .strata import (
    betti_identity_check,
    codim_of_stratum,
    inner_lists,
    series_from_inner_lists,
    stratum_orbit_decomposition,
)

DEFAULT_Q_ORDER = 20
DEFAULT_CAP = 10**6
DEFAULT_BOUND_ENTRY = 2


@dataclass
class RunConfig:
    command: str
    quiver_path: str
    out_format: str = "text"
    cap: int = DEFAULT_CAP
    q_order: int = DEFAULT_Q_ORDER
    partition_spec: str | None = None
    gamma_spec: str | None = None
    gamma_bound_spec: str | None = None
    series_spec: str | None = None
    all_partitions: bool = False


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


def _fail(message: str, code: int = 2) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


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


def _load_quiver(cfg: RunConfig) -> Quiver:
    path = Path(cfg.quiver_path)
    try:
        text = path.read_text()
    except OSError as e:
        raise QuiverDtError(f"cannot read quiver file {cfg.quiver_path}: {e}") from None
    return parse_quiver(text)


def _parse_json(spec: str, what: str):
    try:
        return json.loads(spec)
    except json.JSONDecodeError as e:
        raise QuiverDtError(f"malformed {what}: {e}") from None


def _parse_gamma(q: Quiver, spec: str) -> DimVector:
    data = _parse_json(spec, "gamma")
    if not isinstance(data, dict):
        raise QuiverDtError("gamma must be a JSON object mapping vertex to integer")
    return q.vector({str(k): v for k, v in data.items()})


def _parse_bound(q: Quiver, spec: str | None) -> DimVector:
    if spec is None:
        return q.vector({v: DEFAULT_BOUND_ENTRY for v in q.vertices})
    data = _parse_json(spec, "gamma bound")
    if isinstance(data, int) and not isinstance(data, bool):
        return q.vector({v: data for v in q.vertices})
    if isinstance(data, dict):
        return q.vector({str(k): v for k, v in data.items()})
    raise QuiverDtError("gamma bound must be an integer or a vertex-to-integer object")


def _parse_partition(q: Quiver, spec: str) -> SubquiverPartition:
    text = spec
    path = Path(spec)
    if path.is_file():
        text = path.read_text()
    data = _parse_json(text, "partition")
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise QuiverDtError("partition must be a JSON array of arrays of vertex names")
    blocks = [[str(v) for v in b] for b in data]
    return make_partition(q, blocks)


def _parse_series(q: Quiver, p: SubquiverPartition, spec: str):
    data = _parse_json(spec, "series")
    if not isinstance(data, list) or not all(isinstance(b, list) for b in data):
        raise QuiverDtError("series must be a JSON array of per-block multiplicity arrays")
    return series_from_inner_lists(q, p, data)


def _dv(g: DimVector) -> dict[str, int]:
    return g.as_dict()


def _partition_lists(p: SubquiverPartition) -> list[list[str]]:
    return [list(b) for b in p.blocks]


def _order_rows(order) -> list[dict]:
    return [{"root": _dv(e.root), "block": e.block} for e in order.entries]


def _components(q: Quiver) -> list[Quiver]:
    remaining = set(q.vertices)
    adj: dict[str, set[str]] = {v: set() for v in q.vertices}
    for a in q.arrows:
        adj[a.tail].add(a.head)
        adj[a.head].add(a.tail)
    comps = []
    for v in q.vertices:
        if v not in remaining:
            continue
        seen = {v}
        stack = [v]
        while stack:
            for w in adj[stack.pop()]:
                if w in seen:
                    continue
                seen.add(w)
                stack.append(w)
        remaining -= seen
        comps.append(induced_subquiver(q, seen))
    return comps


def cmd_analyze(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    units = [q.unit(v) for v in q.vertices]
    chi = [[euler_form(q, a, b) for b in units] for a in units]
    lam = [[skew_form(q, a, b) for b in units] for a in units]
    witness = None
    topo: tuple[str, ...] | None = None
    try:
        topo = topological_vertex_order(q).sequence
    except QuiverDtError as e:
        witness = getattr(e, "witness", None)
    comps = []
    for comp in _components(q):
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


def cmd_partitions(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    found = enumerate_partitions(q)
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


def cmd_roots(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    if cfg.partition_spec is None:
        rs = positive_roots(q)
        for r in rs.roots:
            rep.text(f"{r}")
            rep.row(type="root", root=_dv(r))
        rep.summary("OK", f"{len(rs.roots)} positive roots of type {rs.dynkin_type}",
                    count=len(rs.roots), dynkin=str(rs.dynkin_type))
        return 0
    p = _parse_partition(q, cfg.partition_spec)
    order = admissible_total_order(q, p)
    rep.text(f"blocks in contraction order: {order.partition}")
    for i, e in enumerate(order.entries, start=1):
        rep.text(f"{i:3d}. {e.root}  (block {e.block + 1})")
    for row in _order_rows(order):
        rep.row(type="order-entry", **row)
    rep.summary("OK", f"admissible order with {len(order.entries)} roots",
                count=len(order.entries), partition=_partition_lists(order.partition))
    return 0


def _element_rows(el) -> list[dict]:
    return [{"gamma": _dv(g), "series": el.coefficient(g).to_pairs()} for g in el.support()]


def cmd_dt(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    bound = _parse_bound(q, cfg.gamma_bound_spec)
    v_max = 2 * cfg.q_order
    el = trivial_dt(q, bound, v_max)
    rep.text(f"combinatorial DT invariant, support bound {bound}, q-order {cfg.q_order}")
    for g in el.support():
        rep.text(f"y{g}: {el.coefficient(g)}")
    for row in _element_rows(el):
        rep.row(type="dt-term", **row)
    rep.summary("OK", f"{len(el.terms)} terms within bound {bound}",
                terms=len(el.terms), bound=_dv(bound), q_order=cfg.q_order)
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
        bound=_dv(report.bound),
        q_order=report.v_max // 2,
        passed=report.passed,
        mismatches=[
            {"gamma": _dv(g), "trivial": a.to_pairs(), "factorized": b.to_pairs()}
            for g, a, b in report.mismatches
        ],
    )


def cmd_factorize(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    bound = _parse_bound(q, cfg.gamma_bound_spec)
    v_max = 2 * cfg.q_order
    if cfg.all_partitions:
        reference = trivial_dt(q, bound, v_max)
        failed = 0
        ps = enumerate_partitions(q, admissible_only=True)
        for p in ps:
            report = verify_factorization(q, p, bound, v_max, reference=reference)
            _report_factorization(rep, report)
            failed += not report.passed
        status = "PASS" if not failed else "FAIL"
        rep.summary(status, f"{len(ps) - failed}/{len(ps)} admissible partitions verified",
                    verified=len(ps) - failed, total=len(ps))
        return 0 if not failed else 1
    if cfg.partition_spec is None:
        raise QuiverDtError("factorize needs --partition or --all-partitions")
    p = _parse_partition(q, cfg.partition_spec)
    report = verify_factorization(q, p, bound, v_max)
    _report_factorization(rep, report)
    status = "PASS" if report.passed else "FAIL"
    rep.summary(status, f"factorization for {report.partition} "
                        f"{'matches' if report.passed else 'differs from'} the DT product")
    return 0 if report.passed else 1


def _series_rows(q, p, gamma, cfg):
    if cfg.series_spec is not None:
        return [_parse_series(q, p, cfg.series_spec)]
    return kostant_series(q, p, gamma, cap=cfg.cap)


def cmd_codim(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    if cfg.partition_spec is None or cfg.gamma_spec is None:
        raise QuiverDtError("codim needs --partition and --gamma")
    p = _parse_partition(q, cfg.partition_spec)
    gamma = _parse_gamma(q, cfg.gamma_spec)
    from .ordering import reineke_inner_order

    for j, block in enumerate(p.induced):
        roots = ", ".join(str(r) for r in reineke_inner_order(block))
        rep.text(f"block {j + 1} {{{','.join(p.blocks[j])}}} inner root order: {roots}")
    rows = _series_rows(q, p, gamma, cfg)
    for m in rows:
        report = codim_of_stratum(q, p, m, gamma)
        lists = inner_lists(m)
        rep.text(f"m={lists}  codim={report.codim}  sign_parity={report.sign_exponent_parity}")
        rep.row(
            type="codim",
            series=lists,
            codim=report.codim,
            sign_exponent_parity=report.sign_exponent_parity,
            gamma=_dv(gamma),
        )
    rep.summary("OK", f"{len(rows)} strata of gamma={gamma}", strata=len(rows))
    return 0


def cmd_betti(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    if cfg.partition_spec is None or cfg.gamma_spec is None:
        raise QuiverDtError("betti needs --partition and --gamma")
    p = _parse_partition(q, cfg.partition_spec)
    gamma = _parse_gamma(q, cfg.gamma_spec)
    v_max = 2 * cfg.q_order
    verdict = betti_identity_check(q, p, gamma, v_max, cap=cfg.cap)
    rep.text(f"lhs = product of P_k over gamma={gamma} entries")
    for term in verdict.terms:
        factors = " ".join(f"P_{x}" for x in term.factors) or "1"
        rep.text(f"  + q^{term.codim} * {factors}   (m={inner_lists(term.series)})")
    rep.text(f"lhs: {verdict.lhs}")
    rep.text(f"rhs: {verdict.rhs}")
    rep.row(
        type="betti",
        gamma=_dv(gamma),
        q_order=cfg.q_order,
        passed=verdict.equal,
        lhs=verdict.lhs.to_pairs(),
        rhs=verdict.rhs.to_pairs(),
        terms=[
            {"series": inner_lists(t.series), "codim": t.codim, "factors": list(t.factors)}
            for t in verdict.terms
        ],
    )
    status = "PASS" if verdict.equal else "FAIL"
    rep.summary(status, f"Betti identity with {len(verdict.terms)} terms at q-order {cfg.q_order}")
    return 0 if verdict.equal else 1


def cmd_orbits(cfg: RunConfig) -> int:
    rep = Reporter(cfg.out_format)
    q = _load_quiver(cfg)
    if cfg.partition_spec is None or cfg.gamma_spec is None:
        raise QuiverDtError("orbits needs --partition and --gamma")
    p = _parse_partition(q, cfg.partition_spec)
    gamma = _parse_gamma(q, cfg.gamma_spec)
    rows = _series_rows(q, p, gamma, cfg)
    total = 0
    for m in rows:
        orbits = stratum_orbit_decomposition(q, p, m, gamma, cap=cfg.cap)
        total += len(orbits)
        rep.text(f"m={inner_lists(m)}: {len(orbits)} orbits")
        for full in orbits:
            rep.text("   " + str(full))
        rep.row(
            type="orbits",
            series=inner_lists(m),
            count=len(orbits),
            orbits=[
                [{"root": _dv(r), "mult": x} for r, x in full.nonzero()]
                for full in orbits
            ],
        )
    rep.summary("OK", f"{total} orbits across {len(rows)} strata", orbits=total)
    return 0


HANDLERS = {
    "analyze": cmd_analyze,
    "partitions": cmd_partitions,
    "roots": cmd_roots,
    "dt": cmd_dt,
    "factorize": cmd_factorize,
    "codim": cmd_codim,
    "betti": cmd_betti,
    "orbits": cmd_orbits,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quiverdt",
        description="Combinatorial DT invariants of acyclic quivers and "
                    "dilogarithm factorization checks.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, partition=False, gamma=False, bound=False, order=False,
               series=False, allp=False):
        sp.add_argument("--quiver", required=True, help="path to a quiver JSON file")
        sp.add_argument("--format", choices=("text", "jsonl"), default="text")
        sp.add_argument("--cap", type=_int_at_least(1), default=DEFAULT_CAP,
                        help="enumeration cap (default 10^6)")
        if partition:
            sp.add_argument("--partition",
                            help="JSON array of vertex-name arrays, or a file path")
        if gamma:
            sp.add_argument("--gamma", help='JSON object, e.g. \'{"1":2,"2":3}\'')
        if bound:
            sp.add_argument("--gamma-bound",
                            help="integer or JSON object (default 2 per vertex)")
        if order:
            sp.add_argument("--q-order", type=_int_at_least(0), default=DEFAULT_Q_ORDER,
                            help="series truncation in powers of q (default 20)")
        if series:
            sp.add_argument("--series",
                            help="JSON array of per-block multiplicity arrays "
                                 "in inner root order")
        if allp:
            sp.add_argument("--all-partitions", action="store_true",
                            help="run over every admissible partition")

    common(sub.add_parser("analyze", help="acyclicity, forms, Dynkin classification"))
    common(sub.add_parser("partitions", help="enumerate Dynkin subquiver partitions"))
    common(sub.add_parser("roots", help="positive roots, or a partition's root order"),
           partition=True)
    common(sub.add_parser("dt", help="trivial dilogarithm product"),
           bound=True, order=True)
    common(sub.add_parser("factorize", help="verify factorization identities"),
           partition=True, bound=True, order=True, allp=True)
    common(sub.add_parser("codim", help="stratum codimensions"),
           partition=True, gamma=True, series=True)
    common(sub.add_parser("betti", help="Betti series identity"),
           partition=True, gamma=True, order=True)
    common(sub.add_parser("orbits", help="orbit decomposition of strata (type A)"),
           partition=True, gamma=True, series=True)
    return parser


def config_from_args(args: argparse.Namespace) -> RunConfig:
    return RunConfig(
        command=args.command,
        quiver_path=args.quiver,
        out_format=args.format,
        cap=args.cap,
        q_order=getattr(args, "q_order", DEFAULT_Q_ORDER),
        partition_spec=getattr(args, "partition", None),
        gamma_spec=getattr(args, "gamma", None),
        gamma_bound_spec=getattr(args, "gamma_bound", None),
        series_spec=getattr(args, "series", None),
        all_partitions=getattr(args, "all_partitions", False),
    )


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 0 if e.code in (0, None) else 2
    cfg = config_from_args(args)
    rep = Reporter(cfg.out_format)
    try:
        return HANDLERS[cfg.command](cfg)
    except Exception as e:
        internal = isinstance(e, InconsistencyError) or not isinstance(e, QuiverDtError)
        message = f"internal error: {type(e).__name__}: {e}" if internal else str(e)
        if internal:
            traceback.print_exc()
        if cfg.out_format == "jsonl":
            rep.summary("ERROR", message)
        return _fail(message, 3 if internal else 2)


if __name__ == "__main__":
    raise SystemExit(main())
