"""Fuzz of the input surface: quiver parsing and command lines.

Bad input must end as QuiverParseError (library) or exit 2 (CLI); an exit 3
or a traceback would mean an internal error leaked out.
"""
from __future__ import annotations

import argparse
import contextlib
import io
import json
from pathlib import Path

from hypothesis import HealthCheck, example, given, settings, strategies as st

from quiverdt import Quiver, QuiverParseError, cli, parse_quiver

QUIVER_DIR = Path(__file__).resolve().parent.parent / "quivers"
QUIVER_FILES = sorted(QUIVER_DIR.glob("*.json"))

scalars = st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
json_values = st.recursive(
    scalars,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner,
                                                                max_size=4),
    max_leaves=12,
)
labels = st.sampled_from(["1", "2", "3", "a"]) | st.integers(-2, 3) | scalars
arrow_records = st.dictionaries(
    st.sampled_from(["id", "tail", "head", "x"]), labels, max_size=4
) | json_values
quiver_shaped = st.fixed_dictionaries(
    {"vertices": st.lists(labels, max_size=4) | json_values},
    optional={"arrows": st.lists(arrow_records, max_size=4) | json_values},
)


def _parse_outcome(text: str) -> None:
    try:
        assert isinstance(parse_quiver(text), Quiver)
    except QuiverParseError:
        pass


@settings(max_examples=200, deadline=None)
@given(st.text())
def test_parse_quiver_on_any_text(text):
    _parse_outcome(text)


@settings(max_examples=200, deadline=None)
@given(quiver_shaped | json_values)
def test_parse_quiver_on_json_shaped_data(data):
    _parse_outcome(json.dumps(data))


def _subcommand_flags() -> dict[str, list[str]]:
    parser = cli.build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    return {
        name: [s for a in sp._actions for s in a.option_strings
               if s.startswith("--") and s not in ("--help", "--quiver")]
        for name, sp in sub.choices.items()
    }


FLAGS = _subcommand_flags()
small = st.integers(-3, 40)
junk = st.text(alphabet='[]{}",:@-01ab ', max_size=8)


@st.composite
def flag_value(draw, flag: str, vertices: list[str]):
    """A junk or plausible value for one flag, with every integer in -3..40."""
    vertex = st.sampled_from(vertices + ["9"])
    blocks = st.lists(st.integers(0, 3), min_size=len(vertices), max_size=len(vertices)).map(
        lambda ks: json.dumps([[v for v, k in zip(vertices, ks) if k == j] for j in sorted(set(ks))]))
    plausible = {
        "--format": st.sampled_from(["text", "jsonl"]),
        "--partition": blocks | st.lists(st.lists(vertex, max_size=3), max_size=4).map(json.dumps),
        "--gamma": st.fixed_dictionaries({v: small for v in vertices}).map(json.dumps)
                   | st.dictionaries(vertex, small, max_size=4).map(json.dumps),
        "--gamma-bound": small.map(str) | st.dictionaries(vertex, small, max_size=4).map(json.dumps),
        "--series": st.lists(st.lists(small, max_size=6), max_size=3).map(json.dumps),
    }.get(flag, small.map(str))
    # plausible three times in five, so most command lines get past argument parsing
    return draw([plausible, plausible, plausible, small.map(str), junk][draw(st.integers(0, 4))])


@st.composite
def command_lines(draw):
    command = draw(st.sampled_from(sorted(FLAGS)))
    # real files three times as often as the directory and the absent file
    path = draw(st.sampled_from(QUIVER_FILES * 3 + [QUIVER_DIR, QUIVER_DIR / "absent.json"]))
    vertices = ([str(v) for v in json.loads(path.read_text())["vertices"]]
                if path.is_file() else ["1"])
    # --cap is always drawn small: it bounds every enumeration and the --gamma-bound box
    argv = [command, "--quiver", str(path), "--cap", str(draw(small))]
    for flag in draw(st.lists(st.sampled_from(FLAGS[command]), max_size=4, unique=True)):
        if flag == "--all-partitions":
            argv.append(flag)
        elif flag != "--cap":
            argv += [flag, draw(flag_value(flag, vertices))]
    return argv


@settings(max_examples=150, deadline=5000, suppress_health_check=[HealthCheck.too_slow])
@given(command_lines())
def test_cli_exits_0_1_or_2_without_traceback(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    assert code in (0, 1, 2), (argv, err.getvalue())
    assert "Traceback" not in err.getvalue() + out.getvalue()


def _record(n: int, pairs) -> dict:
    return {
        "vertices": [f"v{i}" for i in range(n)],
        "arrows": [{"id": f"a{k}", "tail": f"v{t}", "head": f"v{h}"}
                   for k, (t, h) in enumerate(pairs)],
    }


@st.composite
def quiver_records(draw):
    """Quiver files on 1-7 vertices: paths or trees (D7 and E7 among them)
    with each edge either way, or any arrows at all (loops, directed cycles,
    disconnected graphs), and each kind with some edges doubled."""
    n = draw(st.integers(1, 7))
    shape = draw(st.sampled_from(["path", "tree", "any"]))
    if shape == "any":
        ends = st.integers(0, n - 1)
        pairs = draw(st.lists(st.tuples(ends, ends), max_size=9))
    else:
        edges = [(i - 1 if shape == "path" else draw(st.integers(0, i - 1)), i) for i in range(1, n)]
        pairs = [e if draw(st.booleans()) else e[::-1] for e in edges]
    if pairs:
        pairs += draw(st.lists(st.sampled_from(pairs), max_size=2))
    return _record(n, pairs)


GENERATED_CAP = 50


@settings(max_examples=60, deadline=10000,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(quiver_records())
# E7, legs (1, 2, 3) off v0: 63 roots, more than the cap
@example(_record(7, [(1, 0), (2, 0), (3, 2), (4, 0), (5, 4), (6, 5)]))
@example(_record(0, []))
def test_cli_on_generated_quivers_exits_0_1_or_2_within_the_cap(tmp_path, record):
    """analyze, partitions, roots, one-block codim, betti and orbits at gamma =
    all-1, and dt and factorize --all-partitions at bound 1, end in exit 0, 1
    or 2 without a traceback, and print at most --cap result rows.  A bound
    box past the cap exits 2."""
    path = tmp_path / "generated.json"
    path.write_text(json.dumps(record))
    vertices = record["vertices"]
    strata = ["--partition", json.dumps([vertices]), "--gamma", json.dumps({v: 1 for v in vertices})]
    box = ["--gamma-bound", "1", "--q-order", "2"]
    for command, extra in (("analyze", []), ("partitions", []), ("roots", []), ("codim", strata),
                           ("betti", strata), ("orbits", strata), ("dt", box),
                           ("factorize", ["--all-partitions", *box])):
        argv = [command, "--quiver", str(path), "--cap", str(GENERATED_CAP), "--format", "jsonl", *extra]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        assert code in (0, 1, 2), (record, argv, err.getvalue())
        assert "Traceback" not in err.getvalue() + out.getvalue(), (record, argv)
        rows = [json.loads(line) for line in out.getvalue().splitlines()]
        assert sum(row["type"] != "summary" for row in rows) <= GENERATED_CAP, (record, argv)
