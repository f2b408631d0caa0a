"""Seeded mutation sampler: how many operator flips does the tier-1 suite catch?

    python tools/mutants.py [--workdir DIR] [MODULE ...]

MODULE names files of src/quiverdt (strata.py, series.py, ...); the default
is every module but __init__.py and __main__.py.  The sampler copies src/,
tests/, quivers/ and pyproject.toml into DIR (a new temporary directory if
--workdir is not given), so the checkout itself is never mutated.  In each
module it lists the operator sites it can flip:

    +  <->  -      *  <->  //      <  <->  <=      ==  <->  !=

and draws SITES = 6 of them with random.Random(f"{SEED}/{module}"), SEED = 0.
Each mutant flips one site, and the tier-1 suite runs on it with -x.  A
mutant is killed when the suite fails or runs past TIMEOUT = 240 seconds (a hang);
it survives when the suite passes.  One line per mutant and a kill count
per module go to stdout.  Standard library only.
"""
from __future__ import annotations

import argparse
import ast
import os
import random
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = Path("src") / "quiverdt"
SEED, SITES, TIMEOUT = 0, 6, 240.0
FLIPS = {ast.Add: ast.Sub, ast.Sub: ast.Add, ast.Mult: ast.FloorDiv, ast.FloorDiv: ast.Mult,
         ast.Lt: ast.LtE, ast.LtE: ast.Lt, ast.Eq: ast.NotEq, ast.NotEq: ast.Eq}
SYMBOLS = {ast.Add: "+", ast.Sub: "-", ast.Mult: "*", ast.FloorDiv: "//",
           ast.Lt: "<", ast.LtE: "<=", ast.Eq: "==", ast.NotEq: "!="}


def _span(node: ast.AST) -> tuple[int, int, int, int]:
    # a + b + c nests two operators that start at one column; their ends differ
    return node.lineno, node.col_offset, node.end_lineno, node.end_col_offset


def sites(tree: ast.AST) -> list[tuple[tuple[int, int, int, int], int]]:
    """(source span, operand index) of every flippable operator, in source order.

    The operand index is -1 for a binary or augmented operator and the
    position in node.ops for a comparison."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and type(node.op) in FLIPS:
            found.append((_span(node), -1))
        elif isinstance(node, ast.Compare):
            found += [(_span(node), i) for i, op in enumerate(node.ops) if type(op) in FLIPS]
    return sorted(found)


def mutate(source: str, site: tuple[tuple[int, int, int, int], int]) -> tuple[str, str]:
    """The source with one site flipped, and a description of the flip."""
    tree = ast.parse(source)
    span, i = site
    for node in ast.walk(tree):
        if not hasattr(node, "end_col_offset") or _span(node) != span:
            continue
        if i < 0 and isinstance(node, (ast.BinOp, ast.AugAssign)):
            old = type(node.op)
            node.op = FLIPS[old]()
            break
        if i >= 0 and isinstance(node, ast.Compare):
            old = type(node.ops[i])
            node.ops[i] = FLIPS[old]()
            break
    else:
        raise LookupError(f"no operator at {site}")
    return ast.unparse(tree), f"{SYMBOLS[old]} -> {SYMBOLS[FLIPS[old]]}"


def run_suite(workdir: Path) -> str:
    """'killed', 'timeout' or 'survived' for the tier-1 suite run with -x in workdir."""
    cmd = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
           "--continue-on-collection-errors"]
    env = dict(os.environ, PYTHONPATH=str(workdir / "src"))
    try:
        done = subprocess.run(cmd, cwd=workdir, env=env, capture_output=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timeout"
    return "survived" if done.returncode == 0 else "killed"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("modules", nargs="*")
    parser.add_argument("--workdir", type=Path)
    args = parser.parse_args(argv)
    modules = args.modules or sorted(p.name for p in (ROOT / PACKAGE).glob("*.py")
                                     if p.name not in ("__init__.py", "__main__.py"))
    workdir = args.workdir or Path(tempfile.mkdtemp(prefix="mutants-"))
    for part in ("src", "tests", "quivers"):
        shutil.copytree(ROOT / part, workdir / part, dirs_exist_ok=True,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", workdir)
    if run_suite(workdir) != "survived":
        print("the suite fails on the unmutated copy", file=sys.stderr)
        return 1
    for name in modules:
        target = workdir / PACKAGE / name
        source = target.read_text()
        found = sites(ast.parse(source))
        picked = sorted(random.Random(f"{SEED}/{name}").sample(found, min(SITES, len(found))))
        killed = 0
        try:
            for site in picked:
                mutant, flip = mutate(source, site)
                target.write_text(mutant)
                verdict = run_suite(workdir)
                killed += verdict != "survived"
                print(f"{verdict:8}  {name}:{site[0][0]}  {flip}", flush=True)
        finally:
            target.write_text(source)
        print(f"{name}: {killed}/{len(picked)} killed", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
