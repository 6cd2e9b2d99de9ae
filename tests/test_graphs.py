import pytest

from distsum import GraphError, build_graph, degree_stats, r_neighbourhood
from distsum.graphs import all_r_neighbourhoods, backward_stats, ball

from conftest import apsp, random_graph


def test_build_single_edge():
    g = build_graph(2, [(1, 2)])
    assert g.max_degree == 1
    assert g.edges == ((1, 2),)


def test_build_p3(p3):
    assert p3.max_degree == 2
    assert p3.adjacency[2] == {1, 3}


@pytest.mark.parametrize("edges,msg", [
    ([(1, 2), (1, 2)], "duplicate"),
    ([(1, 2), (2, 1)], "duplicate"),
    ([(1, 1)], "self-loop"),
    ([(1, 4)], "out of range"),
])
def test_build_rejects(edges, msg):
    with pytest.raises(GraphError, match=msg):
        build_graph(3, edges)


def test_r_neighbourhood_p3(p3):
    assert r_neighbourhood(p3, 1, 1) == {2}
    assert r_neighbourhood(p3, 1, 2) == {2, 3}


def test_r_neighbourhood_c5(c5):
    # oracle: all-pairs shortest paths
    dist = apsp(c5)
    expected = {u for u, d in dist[1].items() if 1 <= d <= 2}
    assert r_neighbourhood(c5, 1, 2) == expected == {2, 3, 4, 5}


def test_r_neighbourhood_disconnected():
    g = build_graph(4, [(1, 2), (3, 4)])
    assert r_neighbourhood(g, 1, 3) == {2}


@pytest.mark.parametrize("seed", range(6))
def test_r_neighbourhood_matches_apsp(seed):
    g = random_graph(30, 0.1, seed)
    dist = apsp(g)
    for r in (1, 2, 3):
        for v in g.vertices():
            expected = {u for u, d in dist[v].items() if 1 <= d <= r}
            assert r_neighbourhood(g, v, r) == expected


def test_neighbourhood_size_bounds():
    g = random_graph(40, 0.15, 3)
    stats = degree_stats(g)
    for r in (2, 3):
        for v in g.vertices():
            size = len(r_neighbourhood(g, v, r))
            assert size <= g.degree(v) * g.max_degree ** (r - 1)
            assert size <= stats.nbr_degree_sum[v] * g.max_degree ** (r - 2)


def test_degree_stats_star():
    g = build_graph(5, [(1, v) for v in (2, 3, 4, 5)])
    stats = degree_stats(g)
    assert stats.is_big(1)                      # degree 4 > 4**(2/3)
    assert not any(stats.is_big(v) for v in (2, 3, 4, 5))
    assert stats.big_nbr_count[2] == 1 and stats.small_nbr_count[1] == 4


def test_degree_stats_boundary_k2(k2):
    stats = degree_stats(k2)                    # d = threshold = 1: small
    assert stats.big_set == frozenset()


def test_degree_stats_p3_centre(p3):
    stats = degree_stats(p3)
    assert stats.nbr_degree_sum[2] == 2
    assert stats.small_nbr_count[2] + stats.big_nbr_count[2] == 2


def test_degree_stats_partition():
    g = random_graph(25, 0.2, 1)
    stats = degree_stats(g)
    for v in g.vertices():
        assert stats.small_nbr_count[v] + stats.big_nbr_count[v] == g.degree(v)


def test_backward_stats_p3(p3):
    bs = backward_stats(p3, [1, 2, 3], 2)
    assert bs.backward_nbrs[2] == {1}
    assert bs.backward_r_count[3] == 2
    assert bs.backward_r_count[1] == 0 and bs.backward_nbrs[1] == frozenset()


def test_backward_stats_c5(c5):
    dist = apsp(c5)
    bs = backward_stats(c5, [1, 2, 3, 4, 5], 2)
    expected = sum(1 for u in c5.vertices() if u != 5 and dist[5][u] <= 2)
    assert bs.backward_r_count[5] == expected == 4


def test_backward_stats_mask():
    g = random_graph(20, 0.2, 2)
    mask = frozenset(v for v in g.vertices() if v % 3 == 0)
    bs = backward_stats(g, list(g.vertices()), 2, mask=mask)
    nbrs = all_r_neighbourhoods(g, 2)
    for v in g.vertices():
        assert bs.masked_r_count[v] == sum(1 for u in nbrs[v] if u in mask)


def test_backward_stats_rejects_non_permutation(p3):
    with pytest.raises(ValueError):
        backward_stats(p3, [1, 1, 3], 2)


def test_ball(p3):
    assert ball(p3, [1], 1) == {1, 2}
    assert ball(p3, [1], 5) == {1, 2, 3}
