"""End-to-end command line checks via main(argv)."""
from __future__ import annotations

import json
import time

import pytest

from quiverdt import cli


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def jsonl_rows(out):
    return [json.loads(line) for line in out.splitlines() if line.strip()]


@pytest.fixture
def a3_path(quiver_dir):
    return str(quiver_dir / "a3.json")


def test_analyze_a3(capsys, a3_path):
    code, out, err = run(capsys, "analyze", "--quiver", a3_path)
    assert code == 0 and not err
    assert "topological order (heads first): 1, 2, 3" in out
    assert "acyclic: yes" in out
    assert "skew form lambda" in out
    assert "component {1,2,3}: A3" in out
    assert out.rstrip().endswith("OK: analyzed 3 vertices, 2 arrows")


def test_analyze_kronecker_flags_multi_edge(capsys, quiver_dir):
    code, out, _ = run(capsys, "analyze", "--quiver", str(quiver_dir / "kronecker.json"))
    assert code == 0
    assert "component {1,2}: not Dynkin (multi-edge)" in out


def test_analyze_arrowless_quiver(capsys, tmp_path):
    path = tmp_path / "dots.json"
    path.write_text(json.dumps({"vertices": ["x", "y"], "arrows": []}))
    code, out, _ = run(capsys, "analyze", "--quiver", str(path))
    assert code == 0
    matrix = out.split("skew form lambda", 1)[1]
    assert set(matrix.split()) <= {"(e_i,", "e_j):", "x", "y", "0", "component",
                                   "{x}:", "{y}:", "A1", "OK:", "analyzed", "2",
                                   "vertices,", "arrows"}


def test_analyze_cycle_exits_2(capsys, tmp_path):
    path = tmp_path / "cycle.json"
    path.write_text(json.dumps({
        "vertices": ["1", "2"],
        "arrows": [{"id": "a", "tail": "1", "head": "2"},
                   {"id": "b", "tail": "2", "head": "1"}],
    }))
    code, out, err = run(capsys, "analyze", "--quiver", str(path))
    assert code == 2
    assert "directed cycle" in out
    assert "directed cycle" in err


def test_partitions_a3(capsys, a3_path):
    code, out, _ = run(capsys, "partitions", "--quiver", a3_path)
    assert code == 0
    assert "OK: 4 partitions (4 admissible)" in out
    assert "partition 2: [1][2,3]" in out


def test_partitions_atilde2_shows_witness(capsys, quiver_dir):
    code, out, _ = run(capsys, "partitions", "--quiver", str(quiver_dir / "atilde2.json"))
    assert code == 0
    assert "OK: 4 partitions (3 admissible)" in out
    assert "witness" in out


def test_roots_plain(capsys, a3_path):
    code, out, _ = run(capsys, "roots", "--quiver", a3_path)
    assert code == 0
    assert "OK: 6 positive roots of type A3" in out
    assert "(1,1,1)" in out


def test_roots_with_partition_order(capsys, a3_path):
    code, out, _ = run(capsys, "roots", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]')
    assert code == 0
    assert "blocks in contraction order: [1][2,3]" in out
    assert "OK: admissible order with 4 roots" in out


def test_roots_with_partition_numbers_each_root_and_its_block(capsys, a3_path):
    code, out, _ = run(capsys, "roots", "--quiver", a3_path,
                       "--partition", '[["2","3"],["1"]]')
    assert code == 0
    assert out.splitlines()[1:5] == ["  1. (1,0,0)  (block 1)", "  2. (0,0,1)  (block 2)",
                                     "  3. (0,1,1)  (block 2)", "  4. (0,1,0)  (block 2)"]


def test_roots_non_admissible_exits_2(capsys, quiver_dir):
    code, out, err = run(capsys, "roots", "--quiver", str(quiver_dir / "atilde2.json"),
                         "--partition", '[["1","3"],["2"]]')
    assert code == 2
    assert "error:" in err


def test_dt_a2(capsys, quiver_dir):
    code, out, _ = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"),
                       "--gamma-bound", "2", "--q-order", "6")
    assert code == 0
    assert "y(0,0): 1" in out
    assert "y(1,1): " in out


def test_factorize_single_partition(capsys, a3_path):
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]',
                       "--gamma-bound", "3", "--q-order", "20")
    assert code == 0
    assert "PASS: all coefficients match" in out
    assert "order: (1,0,0) < (0,0,1) < (0,1,1) < (0,1,0)" in out


def test_factorize_all_partitions(capsys, a3_path):
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path, "--all-partitions")
    assert code == 0
    assert "PASS: 4/4 admissible partitions verified" in out


def test_factorize_needs_partition(capsys, a3_path):
    code, out, err = run(capsys, "factorize", "--quiver", a3_path)
    assert code == 2
    assert "needs --partition or --all-partitions" in err


def test_factorize_fail_exits_1(capsys, a3_path, monkeypatch):
    real = cli.verify_factorization

    def sabotage(q, p, bound, v_max, reference=None):
        report = real(q, p, bound, v_max, reference=reference)
        g = q.vector([1, 0, 0])
        bad = [(g, report.quiver and cli.VSeries.one(v_max), cli.VSeries.zero(v_max))]
        return type(report)(report.quiver, report.partition, report.order,
                            report.bound, report.v_max, False, tuple(bad))

    monkeypatch.setattr(cli, "verify_factorization", sabotage)
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]')
    assert code == 1
    assert "FAIL: 1 mismatched coefficients" in out


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_factorize_all_partitions_counts_the_failures(capsys, a3_path, monkeypatch, fmt):
    """Two of a3's four admissible partitions made to fail: 2/4 verified, exit 1."""
    real = cli.verify_factorization

    def sabotage(q, p, bound, v_max, reference=None):
        report = real(q, p, bound, v_max, reference=reference)
        if p.size != 2:
            return report
        bad = ((q.vector([1, 0, 0]), cli.VSeries.one(v_max), cli.VSeries.zero(v_max)),)
        return type(report)(report.quiver, report.partition, report.order,
                            report.bound, report.v_max, False, bad)

    monkeypatch.setattr(cli, "verify_factorization", sabotage)
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path, "--all-partitions",
                       "--format", fmt)
    assert code == 1
    if fmt == "text":
        assert out.splitlines()[-1] == "FAIL: 2/4 admissible partitions verified"
        assert out.count("FAIL: 1 mismatched coefficients") == 2
    else:
        summary = jsonl_rows(out)[-1]
        assert summary == {"type": "summary", "status": "FAIL", "verified": 2, "total": 4,
                           "message": "2/4 admissible partitions verified"}


def test_codim_enumerates_strata(capsys, a3_path):
    code, out, _ = run(capsys, "codim", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]',
                       "--gamma", '{"1":2,"2":3,"3":2}')
    assert code == 0
    assert "m=[[2], [1, 1, 2]]  codim=2  sign_parity=1" in out
    assert "inner root order" in out


def test_codim_single_series(capsys, a3_path):
    code, out, _ = run(capsys, "codim", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]',
                       "--gamma", '{"1":2,"2":3,"3":2}',
                       "--series", "[[2],[1,1,2]]")
    assert code == 0
    assert "OK: 1 strata" in out


def test_betti_a2(capsys, quiver_dir):
    code, out, _ = run(capsys, "betti", "--quiver", str(quiver_dir / "a2.json"),
                       "--partition", '[["1","2"]]',
                       "--gamma", '{"1":2,"2":2}', "--q-order", "15")
    assert code == 0
    assert out.count("  + q^") == 3
    assert "+ q^4 * P_2 P_2" in out
    assert "PASS: Betti identity with 3 terms at q-order 15" in out


def test_orbits_worked_case(capsys, a3_path):
    code, out, _ = run(capsys, "orbits", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]',
                       "--gamma", '{"1":2,"2":3,"3":2}',
                       "--series", "[[2],[1,1,2]]")
    assert code == 0
    assert "m=[[2], [1, 1, 2]]: 5 orbits" in out
    assert "OK: 5 orbits across 1 strata" in out


def test_jsonl_rows_parse(capsys, a3_path):
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]', "--format", "jsonl")
    assert code == 0
    rows = jsonl_rows(out)
    assert rows[-1]["type"] == "summary" and rows[-1]["status"] == "PASS"
    fact = [r for r in rows if r["type"] == "factorization"]
    assert len(fact) == 1 and fact[0]["passed"] is True
    assert fact[0]["partition"] == [["1"], ["2", "3"]]


def test_jsonl_analyze_matrices(capsys, a3_path):
    code, out, _ = run(capsys, "analyze", "--quiver", a3_path, "--format", "jsonl")
    assert code == 0
    rows = jsonl_rows(out)
    analyze = rows[0]
    assert analyze["skew_matrix"][1][0] == 1
    assert analyze["topological_order"] == ["1", "2", "3"]


def test_jsonl_error_summary_row(capsys, tmp_path):
    code, out, err = run(capsys, "analyze", "--quiver", str(tmp_path / "nope.json"),
                         "--format", "jsonl")
    assert code == 2
    rows = jsonl_rows(out)
    assert rows[-1]["type"] == "summary" and rows[-1]["status"] == "ERROR"
    assert "error:" in err


def test_missing_file_exits_2(capsys):
    code, out, err = run(capsys, "analyze", "--quiver", "/does/not/exist.json")
    assert code == 2
    assert "cannot read quiver file" in err
    assert not out


def test_non_utf8_quiver_file_exits_2(capsys, tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b"\xff\xfe")
    code, out, err = run(capsys, "analyze", "--quiver", str(path))
    assert code == 2 and not out
    assert f"cannot read quiver file {path}" in err and "Traceback" not in err


def test_malformed_gamma_exits_2(capsys, a3_path):
    code, _, err = run(capsys, "codim", "--quiver", a3_path,
                       "--partition", '[["1"],["2","3"]]', "--gamma", "[1,2]")
    assert code == 2
    assert "gamma must be a JSON object" in err


def test_bad_partition_spec_exits_2(capsys, a3_path):
    code, _, err = run(capsys, "codim", "--quiver", a3_path,
                       "--partition", '{"1": 1}', "--gamma", '{"1":1,"2":1,"3":1}')
    assert code == 2
    assert "partition must be a JSON array" in err


def test_partition_from_file(capsys, a3_path, tmp_path):
    spec = tmp_path / "p.json"
    spec.write_text('[["1"],["2","3"]]')
    code, out, _ = run(capsys, "factorize", "--quiver", a3_path,
                       "--partition", "@" + str(spec))
    assert code == 0
    assert "PASS" in out


def test_help_exits_0(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == 0
    assert "factorize" in out


def test_help_shows_the_defaults_the_flags_take(capsys):
    """The help text of --cap, --gamma-bound and --q-order is built from the
    constants the commands use."""
    code, out, _ = run(capsys, "factorize", "--help")
    text = " ".join(out.split())  # argparse wraps lines
    assert code == 0
    assert f"enumeration cap (default {cli.DEFAULT_CAP})" in text
    assert f"(default {cli.DEFAULT_BOUND_ENTRY} per vertex)" in text
    assert f"powers of q (default {cli.DEFAULT_Q_ORDER})" in text


def test_no_command_exits_2(capsys):
    code, _, err = run(capsys)
    assert code == 2


def test_jsonl_betti_roundtrips_library_values(capsys, quiver_dir):
    from quiverdt import betti_identity_check, make_partition, parse_quiver

    path = quiver_dir / "a2.json"
    code, out, _ = run(capsys, "betti", "--quiver", str(path),
                       "--partition", '[["1","2"]]', "--gamma", '{"1":2,"2":2}',
                       "--q-order", "15", "--format", "jsonl")
    assert code == 0
    row = [r for r in jsonl_rows(out) if r["type"] == "betti"][0]
    q = parse_quiver(path.read_text())
    p = make_partition(q, [["1", "2"]])
    verdict = betti_identity_check(q, p, q.vector([2, 2]), 30)
    assert row["lhs"] == verdict.lhs.to_pairs()
    assert row["rhs"] == verdict.rhs.to_pairs()
    assert [tuple(t["factors"]) for t in row["terms"]] == [
        t.factors for t in verdict.terms
    ]
    assert row["passed"] is verdict.equal is True


@pytest.mark.parametrize("command, flag, value", [
    ("dt", "--q-order", "-3"),
    ("betti", "--q-order", "-1"),
    ("dt", "--cap", "-1"),
    ("codim", "--cap", "0"),
])
def test_out_of_range_flags_exit_2_naming_the_flag(capsys, a3_path, command, flag, value):
    code, out, err = run(capsys, command, "--quiver", a3_path, f"{flag}={value}")
    assert code == 2
    assert f"argument {flag}: must be at least" in err
    assert "inverse requires" not in err and not out


def test_q_order_zero_and_cap_one_are_accepted(capsys, quiver_dir):
    code, out, _ = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"),
                       "--q-order", "0", "--cap", "1", "--gamma-bound", "0")
    assert code == 0
    assert "y(0,0): 1" in out


@pytest.mark.parametrize("fmt", ["text", "jsonl"])
def test_failed_internal_check_exits_3(capsys, quiver_dir, monkeypatch, fmt):
    from quiverdt.errors import InconsistencyError

    def broken(*args, **kwargs):
        raise InconsistencyError("packed product overflowed its 8-bit digits")

    monkeypatch.setattr(cli, "trivial_dt", broken)
    code, out, err = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"), "--format", fmt)
    assert code == 3
    assert "error: internal error: InconsistencyError: packed product overflowed" in err
    assert "Traceback (most recent call last)" in err
    if fmt == "jsonl":
        row = jsonl_rows(out)[-1]
        assert row["status"] == "ERROR" and row["message"].startswith("internal error:")


def test_unexpected_exception_exits_3(capsys, quiver_dir, monkeypatch):
    monkeypatch.setattr(cli, "trivial_dt", lambda *args: {}["missing"])
    code, _, err = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"))
    assert code == 3
    assert "error: internal error: KeyError: 'missing'" in err


def test_nested_json_quiver_file_exits_2_naming_the_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000)
    code, out, err = run(capsys, "analyze", "--quiver", str(path))
    assert code == 2 and not out
    assert f"error: quiver file {path}: malformed syntax: nested too deeply" in err
    assert "Traceback" not in err


def test_nested_json_flag_exits_2_naming_the_flag(capsys, a3_path):
    code, out, err = run(capsys, "codim", "--quiver", a3_path,
                         "--partition", '[["1"],["2","3"]]', "--gamma", "[" * 100000)
    assert code == 2 and not out
    assert "error: argument --gamma: malformed JSON: nested too deeply" in err
    assert "Traceback" not in err


def test_missing_partition_file_exits_2_naming_the_flag(capsys, a3_path, tmp_path):
    code, out, err = run(capsys, "factorize", "--quiver", a3_path,
                         "--partition", "@" + str(tmp_path / "absent.json"))
    assert code == 2 and not out
    assert "error: argument --partition: cannot read" in err
    assert "Traceback" not in err


def test_partition_file_named_like_the_value_is_not_read(capsys, a3_path, tmp_path,
                                                       monkeypatch):
    spec = '[["1"],["2","3"]]'
    (tmp_path / spec).write_text('[["1","2","3"]]')
    monkeypatch.chdir(tmp_path)
    code, out, _ = run(capsys, "roots", "--quiver", a3_path, "--partition", spec)
    assert code == 0
    assert "blocks in contraction order: [1][2,3]" in out


def test_bound_box_past_cap_exits_2_before_any_work(capsys, quiver_dir):
    started = time.perf_counter()
    code, out, err = run(capsys, "dt", "--quiver", str(quiver_dir / "d4.json"),
                         "--gamma-bound", "50")
    assert time.perf_counter() - started < 0.5
    assert code == 2 and not out
    assert "error: argument --gamma-bound:" in err and "6765201" in err
    assert "--cap 1000000" in err


def test_bound_box_within_cap_is_accepted(capsys, quiver_dir):
    code, _, err = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"),
                       "--gamma-bound", '{"1": 2, "2": 3}', "--cap", "12", "--q-order", "2")
    assert code == 0 and not err
    code, _, err = run(capsys, "dt", "--quiver", str(quiver_dir / "a2.json"),
                       "--gamma-bound", '{"1": 2, "2": 3}', "--cap", "11", "--q-order", "2")
    assert code == 2 and "holds 12 dimension vectors" in err


@pytest.mark.parametrize("command", ["dt", "factorize", "betti"])
@pytest.mark.parametrize("flags", [("--q-order", "100000000000"),
                                   ("--cap", "100", "--q-order", "1000")])
def test_q_order_past_cap_exits_2_before_any_work(capsys, quiver_dir, command, flags):
    extra = {"dt": (), "factorize": ("--all-partitions",),
             "betti": ("--partition", '[["1"],["2"]]', "--gamma", '{"1":1,"2":1}')}[command]
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--quiver", str(quiver_dir / "a2.json"), *extra, *flags)
    assert time.perf_counter() - started < 0.5
    assert code == 2 and not out
    assert "error: argument --q-order:" in err and "exceeds --cap" in err


def test_q_order_at_cap_is_accepted(capsys, quiver_dir):
    # a2 at bound 1 has headroom 1: 2 * 3 + 1 + 1 = 8 coefficients
    argv = ["dt", "--quiver", str(quiver_dir / "a2.json"), "--gamma-bound", "1", "--q-order", "3"]
    assert run(capsys, *argv, "--cap", "8")[0] == 0
    code, _, err = run(capsys, *argv, "--cap", "7")
    assert code == 2 and "= 8 coefficients exceeds --cap 7" in err


@pytest.mark.parametrize("flag, value", [
    ("--gamma", '{"1":-1,"2":0,"3":0}'),
    ("--gamma", '{"9":1}'),
    ("--gamma", '{"1":1.5}'),
    ("--gamma", "[1,2]"),
    ("--gamma-bound", '{"1":-1}'),
    ("--gamma-bound", '{"9":1}'),
    ("--gamma-bound", '"2"'),
    ("--gamma-bound", "[1,2]"),
    ("--series", "[[2],[1,1,-1]]"),
    ("--series", "[[2]]"),
    ("--series", '[[2],[1,1,"x"]]'),
    ("--series", '{"1":[2]}'),
    ("--partition", '[["1"],["2","9"]]'),
    ("--partition", '[["1","3"],["2"]]'),
])
def test_bad_flag_value_exits_2_naming_the_flag(capsys, a3_path, flag, value):
    command = "dt" if flag == "--gamma-bound" else "codim"
    argv = [command, "--quiver", a3_path, flag, value]
    if command == "codim":
        for other, good in (("--partition", '[["1"],["2","3"]]'),
                            ("--gamma", '{"1":2,"2":3,"3":2}')):
            if flag != other:
                argv += [other, good]
    code, _, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith(f"error: argument {flag}: ") and "Traceback" not in err


def test_codim_of_one_huge_entry_is_fast(capsys, quiver_dir):
    """The last root's multiplicity is forced and copies fold in closed form."""
    started = time.perf_counter()
    code, out, _ = run(capsys, "codim", "--quiver", str(quiver_dir / "a2.json"),
                       "--partition", '[["1"],["2"]]',
                       "--gamma", '{"1":3000000,"2":0}', "--cap", "5")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert "m=[[3000000], [0]]  codim=0  sign_parity=0" in out


def test_codim_of_one_huge_entry_in_one_block_is_fast(capsys, quiver_dir):
    """Each root's multiplicity starts where the later roots can still cover the rest."""
    started = time.perf_counter()
    code, out, _ = run(capsys, "codim", "--quiver", str(quiver_dir / "a2.json"),
                       "--partition", '[["1","2"]]',
                       "--gamma", '{"1":3000000,"2":0}', "--cap", "5")
    assert time.perf_counter() - started < 1.0
    assert code == 0
    assert "m=[[0, 0, 3000000]]  codim=0  sign_parity=0" in out


@pytest.mark.parametrize("command", ["codim", "orbits"])
@pytest.mark.parametrize("series", ["[[2]]", "[[2],[1,1,-1]]", "[[1],[1,1,2]]"])
def test_bad_series_leaves_stdout_empty(capsys, a3_path, command, series):
    argv = [command, "--quiver", a3_path, "--partition", '[["1"],["2","3"]]',
            "--gamma", '{"1":2,"2":3,"3":2}', "--series", series]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.startswith("error: argument --series: ")
    code, out, _ = run(capsys, *argv, "--format", "jsonl")
    assert code == 2
    assert [r["status"] for r in jsonl_rows(out)] == ["ERROR"]


@pytest.mark.parametrize("command", ["codim", "betti", "orbits"])
@pytest.mark.parametrize("given, missing", [
    ({"--gamma": '{"1":2,"2":3,"3":2}'}, "--partition"),
    ({"--partition": '[["1"],["2","3"]]'}, "--gamma"),
    ({}, "--partition, --gamma"),
])
def test_strata_commands_require_partition_and_gamma(capsys, a3_path, command, given, missing):
    argv = [command, "--quiver", a3_path, "--format", "jsonl"]
    for flag, value in given.items():
        argv += [flag, value]
    code, out, err = run(capsys, *argv)
    assert code == 2 and not out
    assert err.rstrip().endswith(f"the following arguments are required: {missing}")


def test_betti_example_shares_inner_lists_between_outputs(capsys, a3_path, inner_sorts):
    """README example: the check's 2 block sorts also format the 3 terms."""
    code, out, _ = run(capsys, "betti", "--quiver", a3_path, "--partition", '[["1"],["2","3"]]',
                       "--gamma", '{"1":2,"2":3,"3":2}')
    assert code == 0 and out.count("  + q^") == 3
    assert inner_sorts == [1, 3]


def test_betti_example_orders_each_block_once(capsys, a3_path, inner_sorts):
    """README example: one sort per block per process formats every term of
    both runs, each of which loads the quiver afresh."""
    for fmt in ("text", "jsonl"):
        code, out, _ = run(capsys, "betti", "--quiver", a3_path, "--partition", '[["1"],["2","3"]]',
                           "--gamma", '{"1":2,"2":3,"3":2}', "--format", fmt)
        assert code == 0 and "[[2], [1, 1, 2]]" in out
        assert inner_sorts == [1, 3]


def test_codim_example_orders_each_block_once_per_series(capsys, a3_path, monkeypatch, inner_sorts):
    """README example: the header reads 2 inner orders per run, and every
    series' codim_of_stratum reads the same memoized ones: one sort per block
    for both runs."""
    from quiverdt import ordering

    calls = []
    real = ordering.reineke_inner_order
    for module in (cli, ordering):
        monkeypatch.setattr(module, "reineke_inner_order",
                            lambda block: calls.append(block) or real(block))
    for fmt in ("text", "jsonl"):
        calls.clear()
        code, out, _ = run(capsys, "codim", "--quiver", a3_path, "--partition", '[["1"],["2","3"]]',
                           "--gamma", '{"1":2,"2":3,"3":2}', "--format", fmt)
        assert code == 0 and "[[2], [1, 1, 2]]" in out
        assert len(calls) == 2 and inner_sorts == [1, 3]


def test_orbits_example_orders_each_block_once(capsys, a3_path, inner_sorts):
    """README example: one sort per block per process formats every row's
    lists in both runs."""
    for fmt in ("text", "jsonl"):
        code, out, _ = run(capsys, "orbits", "--quiver", a3_path, "--partition", '[["1"],["2","3"]]',
                           "--gamma", '{"1":2,"2":3,"3":2}', "--format", fmt)
        assert code == 0 and "[[2], [1, 1, 2]]" in out
        assert inner_sorts == [1, 3]


def test_every_codim_row_round_trips_through_series(capsys, quiver_dir):
    """Every codim row of every admissible partition of quivers/ at gamma =
    all-2, fed back as --series, gives back one row with its codim and parity."""
    checked = 0
    for path in sorted(quiver_dir.glob("*.json")):
        gamma = json.dumps({v: 2 for v in json.loads(path.read_text())["vertices"]})
        _, out, _ = run(capsys, "partitions", "--quiver", str(path), "--format", "jsonl")
        for part in jsonl_rows(out):
            if part["type"] != "partition" or not part["admissible"]:
                continue
            argv = ("codim", "--quiver", str(path), "--partition", json.dumps(part["blocks"]),
                    "--gamma", gamma, "--format", "jsonl")
            _, out, _ = run(capsys, *argv)
            for row in (r for r in jsonl_rows(out) if r["type"] == "codim"):
                code, back, _ = run(capsys, *argv, "--series", json.dumps(row["series"]))
                want = [(row["series"], row["codim"], row["sign_exponent_parity"])]
                got = [(b["series"], b["codim"], b["sign_exponent_parity"])
                       for b in jsonl_rows(back) if b["type"] == "codim"]
                assert code == 0 and got == want, (path.name, part["blocks"])
                checked += 1
    assert checked


def test_codim_of_two_huge_entries_in_one_block_stops_at_the_cap(capsys, quiver_dir):
    """Every multiplicity of the root (1,1) is an output, so --cap 5 ends the walk."""
    started = time.perf_counter()
    code, out, err = run(capsys, "codim", "--quiver", str(quiver_dir / "a2.json"),
                         "--partition", '[["1","2"]]',
                         "--gamma", '{"1":3000000,"2":3000000}', "--cap", "5")
    assert time.perf_counter() - started < 1.0
    assert code == 2 and not out
    assert "more than 5 Kostant partitions" in err


def test_e6_one_block_codim_stops_at_the_cap(capsys, tmp_path):
    """The one-block E6 quiver at gamma = (2,4,6,4,2,3) has 58,984 strata."""
    path = tmp_path / "e6.json"
    path.write_text(json.dumps({
        "vertices": list("123456"),
        "arrows": [{"id": a, "tail": t, "head": h} for a, t, h in
                   (("a", "1", "2"), ("b", "2", "3"), ("c", "3", "4"), ("d", "4", "5"), ("e", "3", "6"))],
    }))
    argv = ["--quiver", str(path), "--partition", '[["1","2","3","4","5","6"]]',
            "--gamma", '{"1":2,"2":4,"3":6,"4":4,"5":2,"6":3}']
    code, out, err = run(capsys, "codim", *argv, "--cap", "1000")
    assert code == 2 and not out and "more than 1000 Kostant partitions" in err


TWO_CYCLE = {"vertices": ["a", "b"], "arrows": [{"id": "x", "tail": "a", "head": "b"},
                                                 {"id": "y", "tail": "b", "head": "a"}]}


@pytest.mark.parametrize("command", ["factorize", "roots"])
def test_non_admissible_partition_names_the_partition_flag(capsys, quiver_dir, command):
    code, out, err = run(capsys, command, "--quiver", str(quiver_dir / "atilde2.json"),
                         "--partition", '[["1","3"],["2"]]')
    assert code == 2 and not out
    assert err == "error: argument --partition: contraction has a directed cycle: 1+3 -> 2 -> 1+3\n"


@pytest.mark.parametrize("extra", [["dt"], ["factorize", "--partition", '[["a"],["b"]]'],
                                   ["factorize", "--all-partitions"]])
def test_cyclic_quiver_names_the_quiver_flag(capsys, tmp_path, extra):
    path = tmp_path / "two_cycle.json"
    path.write_text(json.dumps(TWO_CYCLE))
    code, out, err = run(capsys, extra[0], "--quiver", str(path), *extra[1:])
    assert code == 2 and not out
    assert err == "error: argument --quiver: directed cycle: a -> b -> a\n"


def test_roots_of_a_non_dynkin_quiver_names_the_quiver_flag(capsys, quiver_dir):
    code, out, err = run(capsys, "roots", "--quiver", str(quiver_dir / "atilde2.json"))
    assert code == 2 and not out
    assert err.startswith("error: argument --quiver: not Dynkin (cycle): ")


def test_orbits_outside_type_a_names_the_quiver_flag(capsys, quiver_dir):
    code, out, err = run(capsys, "orbits", "--quiver", str(quiver_dir / "d4.json"),
                         "--partition", '[["c","1","2","3"]]',
                         "--gamma", '{"c":1,"1":1,"2":1,"3":1}')
    assert code == 2 and not out
    assert err == "error: argument --quiver: orbit decomposition needs type A; the quiver is D4\n"


@pytest.mark.parametrize("command", sorted(cli.COMMANDS))
def test_empty_quiver_exits_2_naming_the_quiver_flag(capsys, tmp_path, command):
    """Every command rejects a quiver file with no vertices before any work."""
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"vertices": [], "arrows": []}))
    extra = {"factorize": ["--all-partitions"]}.get(command, [])
    if "--partition" in cli.COMMANDS[command][3]:
        extra = ["--partition", "[]", "--gamma", "{}"]
    code, out, err = run(capsys, command, "--quiver", str(path), *extra)
    assert code == 2 and not out
    assert err == "error: argument --quiver: empty quiver\n"


def write_path(tmp_path, n):
    """An equioriented n-vertex path written as a quiver file; its path."""
    path = tmp_path / f"path{n}.json"
    path.write_text(json.dumps({
        "vertices": [str(i) for i in range(1, n + 1)],
        "arrows": [{"id": f"a{i}", "tail": str(i + 1), "head": str(i)} for i in range(1, n)],
    }))
    return str(path)


@pytest.mark.parametrize("argv", [
    ("partitions", 14), ("factorize", 14, "--all-partitions", "--gamma-bound", "0", "--q-order", "0"),
    ("roots", 8), ("roots", 8, "--partition", '[["1","2","3","4"],["5","6","7","8"]]'),
])
def test_cap_stops_row_counts_before_the_work(capsys, tmp_path, argv):
    """Partitions of a 14-vertex path (8,192) and roots of an 8-vertex path (36,
    or 20 over two A4 blocks) past --cap 10 exit 2 naming --cap, print nothing
    and take no time."""
    command, n, *extra = argv
    started = time.perf_counter()
    code, out, err = run(capsys, command, "--quiver", write_path(tmp_path, n), "--cap", "10", *extra)
    assert code == 2 and not out
    assert err.startswith("error: argument --cap: ") and "10" in err
    assert time.perf_counter() - started < 5


@pytest.mark.parametrize("extra, count", [([], 21), (["--partition", '[["1","2","3"],["4","5","6"]]'], 12)])
def test_roots_at_a_cap_of_exactly_their_count(capsys, tmp_path, extra, count):
    """A 6-vertex path has 21 roots, 12 over two A3 blocks: a cap of that many
    prints them all, one less prints none."""
    path = write_path(tmp_path, 6)
    code, out, _ = run(capsys, "roots", "--quiver", path, "--cap", str(count), "--format", "jsonl", *extra)
    assert code == 0
    rows = jsonl_rows(out)
    assert len(rows) == count + 1 and rows[-1]["count"] == count
    code, _, err = run(capsys, "roots", "--quiver", path, "--cap", str(count - 1), *extra)
    assert code == 2 and f"{count} positive roots, more than --cap {count - 1}" in err
