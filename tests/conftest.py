"""Shared fixtures: the small quivers every suite exercises."""
from __future__ import annotations

import random
from pathlib import Path

import pytest

from oracles import build_quiver

REPO_ROOT = Path(__file__).resolve().parent.parent
QUIVER_DIR = REPO_ROOT / "quivers"

SEED = 20250819


@pytest.fixture
def rng() -> random.Random:
    return random.Random(SEED)


@pytest.fixture
def a2():
    """Path 1←2."""
    return build_quiver(["1", "2"], [("a", "2", "1")])


@pytest.fixture
def a2_rev():
    """Path 1→2."""
    return build_quiver(["1", "2"], [("a", "1", "2")])


@pytest.fixture
def a3():
    """Equioriented path 1←2←3."""
    return build_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "3", "2")])


@pytest.fixture
def a3_source_mid():
    """Path 1←2→3."""
    return build_quiver(["1", "2", "3"], [("a", "2", "1"), ("b", "2", "3")])


@pytest.fixture
def a3_sink_mid():
    """Path 1→2←3."""
    return build_quiver(["1", "2", "3"], [("a", "1", "2"), ("b", "3", "2")])


@pytest.fixture
def a4():
    """Equioriented path on four vertices."""
    return build_quiver(
        ["1", "2", "3", "4"],
        [("a", "2", "1"), ("b", "3", "2"), ("c", "4", "3")],
    )


@pytest.fixture
def kronecker():
    """Two parallel arrows 2⇉1."""
    return build_quiver(["1", "2"], [("a", "2", "1"), ("b", "2", "1")])


@pytest.fixture
def atilde2():
    """Acyclic triangle: arrows 2→1, 3→1, 3→2."""
    return build_quiver(
        ["1", "2", "3"],
        [("a", "2", "1"), ("b", "3", "1"), ("c", "3", "2")],
    )


@pytest.fixture
def d4():
    """Three legs feeding the center c."""
    return build_quiver(
        ["c", "1", "2", "3"],
        [("u1", "1", "c"), ("u2", "2", "c"), ("u3", "3", "c")],
    )


@pytest.fixture
def quiver_dir() -> Path:
    return QUIVER_DIR


@pytest.fixture
def inner_sorts(monkeypatch) -> list[int]:
    """Clear the root-set memo, then record the size of every inner-order
    sort, through dynkin's binding of the one Kahn sort."""
    from quiverdt import dynkin

    dynkin.positive_roots.cache_clear()
    sorts: list[int] = []
    real = dynkin._kahn_order
    monkeypatch.setattr(dynkin, "_kahn_order", lambda succ: sorts.append(len(succ)) or real(succ))
    return sorts
