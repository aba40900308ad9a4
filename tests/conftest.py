import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

from bergec4.construct import lower_bound_construction
from bergec4.hypergraph import Hypergraph

CONSTRUCTION_ORDERS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16)
SRC_DIR = str(Path(__file__).parent.parent / "src")


def run_cli(*args, check=False):
    env = dict(os.environ, PYTHONPATH=SRC_DIR)
    proc = subprocess.run(
        [sys.executable, "-m", "bergec4", *args],
        capture_output=True,
        text=True,
        env=env,
    )
    if check:
        assert proc.returncode == 0, proc.stderr
    return proc


@pytest.fixture
def single_edge():
    return Hypergraph(3, [(0, 1, 2)])


@pytest.fixture
def k4_minus():
    return Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])


@pytest.fixture
def k4_full():
    return Hypergraph(4, [(0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3)])


@pytest.fixture
def sunflower():
    return Hypergraph(5, [(0, 1, 2), (0, 1, 3), (0, 1, 4)])


@pytest.fixture
def three_edge_chain():
    # shadow has the 4-cycle (1,2,3,4) with a single representative edge
    return Hypergraph(7, [(1, 2, 3), (1, 4, 5), (3, 4, 6)])


@pytest.fixture(scope="session")
def construction_family():
    return {q: lower_bound_construction(q) for q in CONSTRUCTION_ORDERS}


def loose_cycle(length: int) -> Hypergraph:
    """Edges {i, i+1 mod L, L+i}: one Berge cycle of length L on 2L vertices."""
    return Hypergraph(2 * length, [(i, (i + 1) % length, length + i) for i in range(length)])


def tight_cycle(length: int) -> Hypergraph:
    """Edges {i, i+1, i+2 mod L} on L vertices."""
    return Hypergraph(length, [(i, (i + 1) % length, (i + 2) % length) for i in range(length)])


def random_hypergraph(n: int, m: int, seed: int) -> Hypergraph:
    """Uniform-ish random hypergraph: a seeded sample of m distinct triples."""
    triples = list(combinations(range(n), 3))
    rng = random.Random(seed)
    rng.shuffle(triples)
    return Hypergraph(n, triples[: min(m, len(triples))])
