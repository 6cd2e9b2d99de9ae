import importlib
import random
import sys
import threading
from bisect import bisect_right
from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from distsum import (GraphError, TotalColouring, build_graph, degree_stats, generate,
                     graphs, resample_until_valid, run, verify)
from distsum.graphs import all_r_neighbourhoods, backward_stats, ball

from conftest import apsp, component_graph, golden_graphs, random_graph


def test_build_single_edge():
    g = build_graph(2, [(1, 2)])
    assert g.max_degree == 1
    assert g.edges == ((1, 2),)


def test_build_p3(p3):
    assert p3.max_degree == 2
    assert p3.adjacency[2] == (1, 3)


@pytest.mark.parametrize("edges,msg", [
    ([(1, 2), (1, 2)], "duplicate"),
    ([(1, 2), (2, 1)], "duplicate"),
    ([(1, 1)], "self-loop"),
    ([(1, 4)], "out of range"),
])
def test_build_rejects(edges, msg):
    with pytest.raises(GraphError, match=msg):
        build_graph(3, edges)


def test_build_error_carries_edge_index():
    with pytest.raises(GraphError, match=r"^edge 1: duplicate edge \(1, 2\)$") as info:
        build_graph(3, [(1, 2), (2, 1)])
    assert (info.value.edge, info.value.reason) == (1, "duplicate edge (1, 2)")


def _reference_build(n, edges):
    """build_graph's rule, edge by edge in input order: (edges, adjacency,
    max degree) of the graph, or ("error", index, reason) of the first fault."""
    seen = set()
    for idx, (u, v) in enumerate(edges):
        if not (1 <= u <= n and 1 <= v <= n):
            return ("error", idx, f"endpoint out of range in ({u}, {v})")
        if u == v:
            return ("error", idx, f"self-loop at vertex {u}")
        key = (min(u, v), max(u, v))
        if key in seen:
            return ("error", idx, f"duplicate edge {key}")
        seen.add(key)
    adjacency = [()] + [tuple(sorted({u + v - w for u, v in seen if w in (u, v)}))
                        for w in range(1, n + 1)]
    return tuple(sorted(seen)), adjacency, max(map(len, adjacency))


ORDERS = ["sorted", "reversed", "shuffled", "swapped", "lists"]


@st.composite
def edge_lists(draw):
    """(n, edges): a simple graph's edges in one of ORDERS, then with up to
    three faults (a repeat, a loop, an endpoint out of range) put in."""
    n = draw(st.integers(0, 12))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    edges = sorted(draw(st.sets(st.sampled_from(pairs)))) if pairs else []
    order = draw(st.sampled_from(ORDERS))
    if order == "reversed":
        edges.reverse()
    elif order == "shuffled":
        edges = draw(st.permutations(edges))
    elif order == "swapped":
        edges = [(v, u) for u, v in edges]
    elif order == "lists":
        edges = [[u, v] for u, v in edges]
    vertex = st.integers(1, max(n, 1))
    for fault in draw(st.lists(st.sampled_from(["duplicate", "loop", "range"]),
                               max_size=3)):
        if fault == "duplicate" and edges:
            u, v = draw(st.sampled_from(edges))
            bad = draw(st.sampled_from([(u, v), (v, u)]))
        elif fault == "loop":
            w = draw(vertex)
            bad = (w, w)
        else:
            outside = draw(st.sampled_from([-1, 0, n + 1, n + 2]))
            bad = draw(st.sampled_from([(outside, draw(vertex)), (draw(vertex), outside)]))
        edges.insert(draw(st.integers(0, len(edges))), bad)
    return n, edges


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(case=edge_lists())
def test_build_graph_matches_per_edge_reference(case):
    n, edges = case
    try:
        g = build_graph(n, edges)
    except GraphError as exc:
        got = ("error", exc.edge, exc.reason)
    else:
        got = g.edges, g.adjacency, g.max_degree
    assert got == _reference_build(n, edges)


def test_build_takes_sorted_tuple_whole():
    edges = ((1, 2), (1, 3), (2, 3))
    assert build_graph(3, edges).edges is edges


def _shuffled_swapped(n, p, seed):
    """A gnp graph's edges shuffled, with every other edge's ends swapped."""
    rng = random.Random(seed)
    edges = list(random_graph(n, p, seed).edges)
    rng.shuffle(edges)
    return build_graph(n, [(v, u) if i % 2 else (u, v) for i, (u, v) in enumerate(edges)])


KIND_SIZES = {"path": ["9"], "cycle": ["9"], "complete": ["7"], "star": ["6"],
              "gnp": ["30", "0.2"], "regular-ish": ["40", "5"]}
GRAPH_MAKERS = {
    **{kind: lambda kind=kind: generate.from_spec(kind, KIND_SIZES[kind], 3)
       for kind in generate.KINDS},
    "isolated": lambda: component_graph(30, (8, 12), 0.3, 1),
    "empty": lambda: build_graph(0, []),
    "shuffled-swapped": lambda: _shuffled_swapped(40, 0.2, 5),
}


@pytest.mark.parametrize("name", GRAPH_MAKERS)
def test_adjacency_is_ascending_tuple_of_edge_neighbours(name):
    g = GRAPH_MAKERS[name]()
    nbrs = [[] for _ in range(g.n + 1)]
    for u, v in g.edges:
        nbrs[u].append(v)
        nbrs[v].append(u)
    assert len(g.adjacency) == g.n + 1
    for v in range(g.n + 1):
        assert type(g.adjacency[v]) is tuple
        assert g.adjacency[v] == tuple(sorted(nbrs[v]))


def _members(mask):
    """The vertices whose bits are set in an r-ball mask, ascending."""
    return tuple(u for u in range(mask.bit_length()) if mask >> u & 1)


def test_r_neighbourhood_p3(p3):
    assert set(_members(all_r_neighbourhoods(p3, 1)[1])) == {2}
    assert set(_members(all_r_neighbourhoods(p3, 2)[1])) == {2, 3}


def test_r_neighbourhood_c5(c5):
    # oracle: all-pairs shortest paths
    dist = apsp(c5)
    expected = {u for u, d in dist[1].items() if 1 <= d <= 2}
    assert set(_members(all_r_neighbourhoods(c5, 2)[1])) == expected == {2, 3, 4, 5}


def test_r_neighbourhood_disconnected():
    g = build_graph(4, [(1, 2), (3, 4)])
    assert set(_members(all_r_neighbourhoods(g, 3)[1])) == {2}


@pytest.mark.parametrize("seed", range(6))
def test_r_neighbourhood_matches_apsp(seed):
    g = random_graph(30, 0.1, seed)
    dist = apsp(g)
    for r in (1, 2, 3):
        for v in g.vertices():
            expected = {u for u, d in dist[v].items() if 1 <= d <= r}
            assert set(_members(all_r_neighbourhoods(g, r)[v])) == expected


def test_neighbourhood_size_bounds():
    g = random_graph(40, 0.15, 3)
    stats = degree_stats(g)
    for r in (2, 3):
        for v in g.vertices():
            size = len(all_r_neighbourhoods(g, r)[v])
            assert size <= g.degree(v) * g.max_degree ** (r - 1)
            assert size <= stats.nbr_degree_sum[v] * g.max_degree ** (r - 2)


def test_degree_stats_star():
    g = build_graph(5, [(1, v) for v in (2, 3, 4, 5)])
    stats = degree_stats(g)
    assert stats.big_set == frozenset({1})      # degree 4 > 4**(2/3)
    assert stats.big_nbr_count[2] == 1 and stats.big_nbr_count[1] == 0


def test_degree_stats_boundary_k2(k2):
    stats = degree_stats(k2)                    # d = threshold = 1: small
    assert stats.big_set == frozenset()


def test_degree_stats_edgeless():
    stats = degree_stats(build_graph(3, []))
    assert stats.big_set == frozenset()
    assert stats.big_nbr_count == (0, 0, 0, 0)
    assert stats.nbr_degree_sum == (0, 0, 0, 0)


def test_degree_stats_p3_centre(p3):
    stats = degree_stats(p3)
    assert stats.nbr_degree_sum[2] == 2
    assert stats.big_nbr_count[2] == 0 and stats.big_nbr_count[1] == 1


def test_degree_stats_partition():
    g = random_graph(25, 0.2, 1)
    stats = degree_stats(g)
    for v in g.vertices():
        assert stats.big_nbr_count[v] == len(stats.big_set.intersection(g.adjacency[v]))


def test_backward_stats_p3(p3):
    bs = backward_stats(p3, [1, 2, 3], all_r_neighbourhoods(p3, 2))  # centre 2 is big
    assert bs.backward_big_count[3] == 1 and bs.backward_big_count[2] == 0
    assert bs.backward_r_count[3] == 2
    assert bs.backward_r_count[1] == 0 and bs.backward_big_count[1] == 0


def test_backward_stats_c5(c5):
    dist = apsp(c5)
    bs = backward_stats(c5, [1, 2, 3, 4, 5], all_r_neighbourhoods(c5, 2))
    expected = sum(1 for u in c5.vertices() if u != 5 and dist[5][u] <= 2)
    assert bs.backward_r_count[5] == expected == 4


def test_backward_stats_rejects_non_permutation(p3):
    with pytest.raises(ValueError):
        backward_stats(p3, [1, 1, 3], all_r_neighbourhoods(p3, 2))


def test_ball(p3):
    assert ball(p3, [1], 1) == {1, 2}
    assert ball(p3, [1], 5) == {1, 2, 3}


# -- the table kernels against reference searches ---------------------------

def _reference_balls(g, max_radius):
    """{r: table} for r in 1..max_radius, from one plain BFS per vertex; a
    table holds () at index 0 and each vertex's r-neighbours, sorted."""
    tables = {r: [()] for r in range(1, max_radius + 1)}
    for v in g.vertices():
        dist = {v: 0}
        queue = deque([v])
        while queue:
            w = queue.popleft()
            if dist[w] == max_radius:
                continue
            for u in g.adjacency[w]:
                if u not in dist:
                    dist[u] = dist[w] + 1
                    queue.append(u)
        found = list(dist.values())     # BFS order: distances never decrease
        order = list(dist)
        for r, table in tables.items():
            table.append(tuple(sorted(order[1:bisect_right(found, r)])))
    return tables


def _kernel_graphs(family):
    """The golden-digest graphs of one family, or for "sparse" graphs with
    isolated vertices and several components; the last one has vertex ids
    up to 360, which span many digits of a Python int."""
    if family != "sparse":
        return [(name, make()) for name, make in golden_graphs()
                if name.startswith(family + " ")]
    return [("edgeless 0", build_graph(0, [])), ("edgeless 5", build_graph(5, [])),
            ("pieces 12", build_graph(12, [(1, 2), (2, 3), (5, 6), (6, 7), (7, 5), (9, 10)]))
            ] + [(f"pieces 64 seed {seed}", component_graph(64, (20, 25, 15), 0.15, seed))
                 for seed in range(4)
            ] + [("pieces 360", component_graph(360, (200, 150), 0.012, 1))]


def _as_tuples(table):
    """An r-ball table as the reference form: each entry's members as a
    sorted tuple, checked against the entry's len, which the benchmark's
    tracer reads."""
    members = [_members(b) for b in table]
    assert [len(b) for b in table] == [len(t) for t in members]
    return members


@pytest.mark.parametrize("family", ["regular-ish", "complete", "gnp", "sparse"])
def test_r_neighbourhood_tables_match_reference_bfs(family):
    for name, g in _kernel_graphs(family):
        reference = _reference_balls(g, 4)
        for r in (1, 2, 3, 4):
            assert _as_tuples(all_r_neighbourhoods(g, r)) == reference[r], (name, r)


def _backward_oracle(g, ordering, nbrs_r):
    """The backward counts by comparing positions in the ordering."""
    pos = {v: i for i, v in enumerate(ordering)}
    big = {v for v in g.vertices() if g.degree(v) > g.max_degree ** (2.0 / 3.0)}
    back = [frozenset()] + [frozenset(u for u in g.adjacency[v] if pos[u] < pos[v])
                            for v in g.vertices()]
    return ([0] + [sum(1 for u in nbrs_r[v] if pos[u] < pos[v]) for v in g.vertices()],
            [0] + [sum(1 for u in back[v] if u in big) for v in g.vertices()])


@pytest.mark.parametrize("family", ["gnp", "sparse"])
def test_backward_stats_match_position_oracle(family):
    rng = random.Random(family)
    for name, g in _kernel_graphs(family):
        reference = _reference_balls(g, 3)
        for r in (2, 3):
            ordering = list(g.vertices())
            rng.shuffle(ordering)
            bs = backward_stats(g, ordering, all_r_neighbourhoods(g, r))
            got = (list(bs.backward_r_count), list(bs.backward_big_count))
            assert got == _backward_oracle(g, ordering, reference[r]), (name, r)


# -- tables cached on the graph ---------------------------------------------

def test_degree_stats_built_once_per_graph():
    g = random_graph(30, 0.2, 4)
    assert degree_stats(g) is degree_stats(g)


def test_r_neighbourhood_tables_cached_per_radius():
    g = random_graph(30, 0.1, 5)
    two, three = all_r_neighbourhoods(g, 2), all_r_neighbourhoods(g, 3)
    assert two != three
    assert all_r_neighbourhoods(g, 2) is two
    assert all_r_neighbourhoods(g, 3) is three


def test_second_graph_gets_its_own_tables():
    g = random_graph(30, 0.1, 6)
    h = build_graph(g.n, g.edges)
    assert all_r_neighbourhoods(h, 2) == all_r_neighbourhoods(g, 2)
    assert all_r_neighbourhoods(h, 2) is not all_r_neighbourhoods(g, 2)
    assert degree_stats(h) == degree_stats(g)
    assert degree_stats(h) is not degree_stats(g)


def test_concurrent_readers_get_complete_tables():
    g = random_graph(60, 0.1, 7)
    expected = (_reference_balls(g, 2)[2], degree_stats(build_graph(g.n, g.edges)))
    results = []

    def read():
        results.append((_as_tuples(all_r_neighbourhoods(g, 2)), degree_stats(g)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert results == [expected] * 8
    assert _as_tuples(all_r_neighbourhoods(g, 2)) == expected[0]


# the package's `verify` names the function; the test patches the module
verify_module = importlib.import_module("distsum.verify")


def _same_sums(g):
    """A colouring of g in which many vertices within distance 2 share a sum,
    so verify needs its own ball table."""
    return TotalColouring({v: 1 for v in g.vertices()}, {e: 2 for e in g.edges})


def test_table_past_limit_refused_before_it_is_built(monkeypatch):
    g = generate.path(40)               # a table of about 40**2 // 8 = 200 bytes
    monkeypatch.setattr(graphs, "MAX_TABLE_BYTES", 199)

    def build(*args):
        raise AssertionError("an r-ball table was built past the limit")

    monkeypatch.setattr(graphs, "_closed_balls", build)
    monkeypatch.setattr(verify_module, "_closed_balls", build)
    msg = "^an r-ball table on 40 vertices needs about 200 bytes, past the limit of 199$"
    for call in (lambda: run(g, 2, 1), lambda: resample_until_valid(g, 2, 1),
                 lambda: verify(g, _same_sums(g), 2)):
        with pytest.raises(ValueError, match=msg):
            call()


def test_table_at_limit_built(monkeypatch):
    g = generate.path(40)
    monkeypatch.setattr(graphs, "MAX_TABLE_BYTES", 200)
    colouring, _, _ = run(g, 2, 1)
    assert verify(g, colouring, 2).passed
    assert ("equal-sums", (2, 4)) in verify(g, _same_sums(g), 2).violations
