import hashlib
import json
from pathlib import Path

import pytest

from distsum import build_graph, compute_params
from distsum.base_colouring import base_total_colouring, edge_colour_indices
from distsum.graphs import edge_key

from conftest import golden_graphs, random_graph


def assert_proper_edges(g, colour):
    for v in g.vertices():
        incident = [colour[edge_key(v, u)] for u in g.adjacency[v]]
        assert len(set(incident)) == len(incident), f"clash at vertex {v}"


def test_single_edge(k2):
    assert edge_colour_indices(k2) == {(1, 2): 1}


def test_odd_cycle_needs_three(c5):
    indices = edge_colour_indices(c5)
    assert_proper_edges(c5, indices)
    assert len(set(indices.values())) == 3
    # oracle: two colours are infeasible on an odd cycle
    assert not _two_colourable_cycle(c5)


def _two_colourable_cycle(g):
    import itertools
    edges = list(g.edges)
    for combo in itertools.product((1, 2), repeat=len(edges)):
        trial = dict(zip(edges, combo))
        try:
            assert_proper_edges(g, trial)
            return True
        except AssertionError:
            continue
    return False


def test_star_all_distinct():
    g = build_graph(6, [(1, v) for v in range(2, 7)])
    indices = edge_colour_indices(g)
    assert sorted(indices.values()) == [1, 2, 3, 4, 5]


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("n,p", [(15, 0.25), (30, 0.12), (40, 0.3)])
def test_random_graphs_proper_within_bound(seed, n, p):
    g = random_graph(n, p, seed)
    indices = edge_colour_indices(g)
    assert_proper_edges(g, indices)
    if g.m:
        assert max(indices.values()) <= g.max_degree + 1


def test_map_to_palette_degree_100(k2):
    colouring = base_total_colouring(k2, compute_params(100, 2))
    assert colouring.edge_colours == {(1, 2): 1372}


def test_map_to_palette_distinct_mod(c5):
    params = compute_params(2, 2)
    colours = base_total_colouring(c5, params).edge_colours
    assert_proper_edges(c5, colours)
    for v in c5.vertices():
        residues = [colours[edge_key(v, u)] % params.modulus
                    for u in c5.adjacency[v]]
        assert len(set(residues)) == len(residues)


def test_greedy_proper_mod_k(p3):
    params = compute_params(2, 2)
    col = base_total_colouring(p3, params)
    mod = params.modulus
    assert col.edge_colours[(1, 2)] % mod != col.edge_colours[(2, 3)] % mod
    assert col.vertex_colours == {}  # each vertex is coloured at its own step


@pytest.mark.parametrize("seed", range(5))
def test_base_colouring_random_mod_proper(seed):
    g = random_graph(25, 0.2, seed)
    params = compute_params(max(g.max_degree, 2), 2)
    col = base_total_colouring(g, params)
    mod = params.modulus
    for v in g.vertices():
        res = [col.edge_colours[edge_key(v, u)] % mod for u in g.adjacency[v]]
        assert len(set(res)) == len(res)


def first_fit(g):
    """Oracle: each edge in sorted order takes the lowest colour free at both
    ends, with no cap; the fast path of edge_colour_indices without the fan."""
    at = {v: set() for v in g.vertices()}
    out = {}
    for u, v in g.edges:
        c = 1
        while c in at[u] or c in at[v]:
            c += 1
        out[(u, v)] = c
        at[u].add(c)
        at[v].add(c)
    return out


@pytest.mark.parametrize("name", ["regular-ish 130 36 seed 1", "complete 6"])
def test_first_fit_alone_exceeds_max_degree_plus_one(name):
    # Up to the first edge where first fit passes max_degree + 1, the fast path
    # makes the same choices; that edge must then take the fan step, so a
    # result within max_degree + 1 shows the fan, flip and rotate code ran.
    g = dict(golden_graphs())[name]()
    assert max(first_fit(g).values()) > g.max_degree + 1
    assert max(edge_colour_indices(g).values()) <= g.max_degree + 1


# Golden digests of edge_colour_indices on a fixed set of graphs: they pin
# every choice of the common-colour fast path and of the fan step, so a
# change that alters any colouring must re-record them and say why.
def _indices_digest(g, indices):
    assert set(indices) == set(g.edges)
    text = "".join(f"{u} {v} {indices[(u, v)]}\n" for u, v in g.edges)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("family", ["regular-ish", "complete", "gnp"])
def test_edge_colour_indices_golden(family):
    expected = json.loads((Path(__file__).parent / "edge_colour_digests.json").read_text())
    got = {}
    for name, make in golden_graphs():
        if name.startswith(family + " "):
            g = make()
            indices = edge_colour_indices(g)
            assert_proper_edges(g, indices)
            assert max(indices.values()) <= g.max_degree + 1, name
            got[name] = _indices_digest(g, indices)
    assert got == {k: v for k, v in expected.items() if k.startswith(family + " ")}
