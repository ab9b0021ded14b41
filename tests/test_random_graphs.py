"""Random graph generators: the same edges, in the same order, as networkx.

networkx is the oracle here and is needed only by these tests; no botfuse
command imports it.
"""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import botfuse
from botfuse import random_graphs
from botfuse.random_graphs import complete_edges, gnp_edges, random_regular_edges

seeds = st.integers(min_value=0, max_value=2**64)


@pytest.fixture(scope="module")
def nx():
    return pytest.importorskip("networkx")


def _same(edges, graph):
    assert edges.dtype == np.int64 and edges.shape == (graph.number_of_edges(), 2)
    assert [tuple(e) for e in edges.tolist()] == list(graph.edges())


def _same_or_both_refuse(ours, theirs, nx):
    """Equal edge lists, or a ValueError from ours where networkx refuses."""
    try:
        graph = theirs()
    except nx.NetworkXError:
        with pytest.raises(ValueError):
            ours()
        return
    _same(ours(), graph)


@settings(max_examples=150, deadline=None)
@given(
    n=st.integers(0, 60),
    p=st.one_of(st.floats(-0.5, 1.5), st.sampled_from([0.0, 1.0, 1e-3, 0.5, 0.999])),
    seed=seeds,
)
def test_gnp_matches_networkx(nx, n, p, seed):
    _same(gnp_edges(n, p, seed), nx.gnp_random_graph(n, p, seed=seed))


@settings(max_examples=100, deadline=None)
@given(n=st.integers(0, 30), d=st.integers(-1, 8), seed=seeds)
def test_random_regular_matches_networkx(nx, n, d, seed):
    _same_or_both_refuse(
        lambda: random_regular_edges(d, n, seed),
        lambda: nx.random_regular_graph(d, n, seed=seed),
        nx,
    )


@pytest.mark.parametrize("n", [0, 1, 2, 3, 7])
@pytest.mark.parametrize("p", [-1.0, 0.0, 0.3, 1.0, 2.0])
def test_gnp_edge_cases(nx, n, p):
    _same(gnp_edges(n, p, 5), nx.gnp_random_graph(n, p, seed=5))


@pytest.mark.parametrize("n", [0, 1, 2, 5])
def test_complete_graph(nx, n):
    _same(complete_edges(n), nx.complete_graph(n))


def test_refusals():
    with pytest.raises(ValueError, match="even"):
        random_regular_edges(3, 5, 0)
    with pytest.raises(ValueError, match="0 <= d < n"):
        random_regular_edges(4, 4, 0)
    assert random_regular_edges(0, 6, 0).shape == (0, 2)


def test_gnp_decodes_across_small_draw_blocks(nx, monkeypatch):
    monkeypatch.setattr(random_graphs, "DRAW_BLOCK", 3)
    for n, p, seed in [(40, 0.2, 11), (17, 0.9, 2), (2, 0.5, 0), (3, 0.5, 1)]:
        _same(gnp_edges(n, p, seed), nx.gnp_random_graph(n, p, seed=seed))


def test_default_scale_graphs_match_networkx(nx):
    """The sizes the default pretraining datasets use."""
    _same(gnp_edges(880, 16.0 / 880, 123456789), nx.gnp_random_graph(880, 16.0 / 880,
                                                                       seed=123456789))
    _same(random_regular_edges(4, 110, 987654321),
          nx.random_regular_graph(4, 110, seed=987654321))


COMMANDS = """
import sys
from botfuse.cli import main

for argv in (
    ["synth", "--kind", "flows", "--arch", "p2p", "--out", "flows.csv",
     "--n-background", "40", "--n-bots", "8"],
    ["synth", "--kind", "graphs", "--arch", "p2p", "--out", "graphs", "--n-graphs", "3",
     "--n-background", "30", "--n-bots", "6"],
    ["pretrain", "--arch", "p2p", "--data", "graphs", "--depth", "2", "--max-epochs", "2",
     "--out", "model.bin"],
):
    assert main(argv) == 0, argv
assert "networkx" not in sys.modules
"""


def test_commands_load_no_networkx(tmp_path):
    env = dict(os.environ, PYTHONPATH=str(Path(botfuse.__file__).resolve().parents[1]))
    subprocess.run([sys.executable, "-c", "import sys, botfuse.cli; "
                    "assert 'networkx' not in sys.modules"], env=env, check=True)
    subprocess.run([sys.executable, "-c", COMMANDS], cwd=tmp_path, env=env, check=True,
                   capture_output=True, timeout=120)
