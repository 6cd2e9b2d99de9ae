import importlib
import random
import sys
import time
import tracemalloc

import pytest

from distsum import TotalColouring, build_graph, run, verify
from distsum.generate import complete, regular_ish
from distsum.graphs import edge_key
from distsum.verify import IncompleteColouringError

from conftest import apsp, component_graph, random_graph

# the package's `verify` names the function; the tests patch the module
verify_module = importlib.import_module("distsum.verify")


def test_k2_pass_all_radii(k2):
    col = TotalColouring({1: 1, 2: 2}, {(1, 2): 3})
    for r in (1, 2, 5):
        report = verify(k2, col, r)
        assert report.passed
    assert col.weighted_degree(k2, 1) == 4
    assert col.weighted_degree(k2, 2) == 5


def test_p3_pass_r1_fail_r2(p3):
    col = TotalColouring({1: 1, 2: 3, 3: 2}, {(1, 2): 2, (2, 3): 1})
    sums = [col.weighted_degree(p3, v) for v in (1, 2, 3)]
    assert sums == [3, 6, 3]
    assert verify(p3, col, 1).passed
    report = verify(p3, col, 2)
    assert not report.passed
    assert ("equal-sums", (1, 3)) in report.violations


def test_adjacent_vertex_clash(k2):
    report = verify(k2, TotalColouring({1: 5, 2: 5}, {(1, 2): 3}), 1)
    assert ("adjacent-vertices", (1, 2)) in report.violations


def test_adjacent_edge_clash(p3):
    report = verify(p3, TotalColouring({1: 1, 2: 3, 3: 1}, {(1, 2): 2, (2, 3): 2}), 1)
    assert ("adjacent-edges", ((1, 2), (2, 3))) in report.violations


def test_edge_endpoint_clash(k2):
    report = verify(k2, TotalColouring({1: 3, 2: 2}, {(1, 2): 3}), 1)
    assert ("edge-endpoint", (1, 2)) in report.violations


def test_bound_check(k2):
    col = TotalColouring({1: 1, 2: 2}, {(1, 2): 9})
    assert verify(k2, col, 1, bound=9).passed
    report = verify(k2, col, 1, bound=8)
    assert report.violations == [("bound-exceeded", (9, 8))]
    assert report.max_colour == 9


def test_colours_below_one(k2, p3):
    # otherwise proper, with distinct sums: only the colours below 1 fail
    report = verify(k2, TotalColouring({1: 0, 2: 2}, {(1, 2): 1}), 1, bound=2)
    assert report.violations == [("colour-below-one", 1)]
    # the vertices in id order, then the edges in g.edges order, then the bound
    col = TotalColouring({1: 4, 2: 0, 3: -5}, {(1, 2): 1, (2, 3): -2})
    assert verify(p3, col, 1, bound=3).violations == [
        ("colour-below-one", 2), ("colour-below-one", 3),
        ("colour-below-one", (2, 3)), ("bound-exceeded", (4, 3))]
    # no edge: the max colour is the vertex's own, not the empty edge map's 0
    report = verify(build_graph(1, []), TotalColouring({1: -3}, {}), 1)
    assert report == (-3, [("colour-below-one", 1)])


def test_closed_balls_stop_growing_at_a_huge_radius(k2):
    # both balls are the whole of K2 after one round, so the rest are skipped
    col = TotalColouring({1: 1, 2: 1}, {(1, 2): 3})
    start = time.perf_counter()
    report = verify(k2, col, 10 ** 9)
    assert time.perf_counter() - start < 1.0
    assert report.violations == [("adjacent-vertices", (1, 2)),
                                 ("equal-sums", (1, 2))]


def test_incomplete_colouring(p3):
    with pytest.raises(IncompleteColouringError, match="^vertex 3 has no colour$"):
        verify(p3, TotalColouring({1: 1, 2: 2}, {(1, 2): 3, (2, 3): 4}), 1)
    with pytest.raises(IncompleteColouringError, match=r"^edge \(2, 3\) has no colour$"):
        verify(p3, TotalColouring({1: 1, 2: 2, 3: 3}, {(1, 2): 5}), 1)


@pytest.mark.parametrize("make", [lambda: regular_ish(130, 36, 1), lambda: complete(40)],
                         ids=["regular-ish 130 36", "complete 40"])
def test_verify_does_not_copy_the_colouring(make):
    # all n sums differ at r = 2, so no ball table is built either: a check
    # that copies the edge map or the colours would reach half of its size
    g = make()
    colouring, _, _ = run(g, 2, 1)
    tracemalloc.start()
    try:
        report = verify(g, colouring, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert report.passed
    assert peak < sys.getsizeof(colouring.edge_colours) / 2


@pytest.mark.parametrize("vcol,ecol,msg", [
    ({1: 1, 2: 2, 3: 3, 9: 1}, {(1, 2): 5, (2, 3): 6}, "vertex 9 is not"),
    ({1: 1, 2: 2, 3: 3}, {(1, 2): 5, (2, 3): 6, (1, 3): 7}, r"edge \(1, 3\) is not"),
])
def test_foreign_element(p3, vcol, ecol, msg):
    with pytest.raises(IncompleteColouringError, match=msg):
        verify(p3, TotalColouring(vcol, ecol), 1)


def test_distance_respects_components():
    g = build_graph(4, [(1, 2), (3, 4)])
    # equal sums across components are fine at any radius
    col = TotalColouring({1: 1, 2: 2, 3: 1, 4: 2}, {(1, 2): 3, (3, 4): 3})
    assert verify(g, col, 10).passed


def _properness_oracle(g, col):
    """Properness violations from a pairwise scan of every two edges at a
    vertex, then the colours below 1, in the order verify reports them."""
    vcol, ecol = col.vertex_colours, col.edge_colours
    out = []
    for (u, v) in g.edges:
        if vcol[u] == vcol[v]:
            out.append(("adjacent-vertices", (u, v)))
        if ecol[(u, v)] in (vcol[u], vcol[v]):
            out.append(("edge-endpoint", (u, v)))
    for v in g.vertices():
        incident = sorted(g.adjacency[v])
        for i, a in enumerate(incident):
            for b in incident[i + 1:]:
                if ecol[edge_key(v, a)] == ecol[edge_key(v, b)]:
                    out.append(("adjacent-edges", (edge_key(v, a), edge_key(v, b))))
    out += [("colour-below-one", v) for v in g.vertices() if vcol[v] < 1]
    out += [("colour-below-one", key) for key in g.edges if ecol[key] < 1]
    return out


def _checked(g, col, radius):
    report = verify(g, col, radius)
    assert [x for x in report.violations if x[0] != "equal-sums"] == \
        _properness_oracle(g, col)
    return report


def _valid_colouring(seed):
    g = random_graph(40, 0.2, seed)
    col, _, _ = run(g, 2, seed)
    assert verify(g, col, 2).passed
    return g, col


def test_injected_faults_match_pairwise_oracle():
    g, col = _valid_colouring(3)
    ecol, vcol = col.edge_colours, col.vertex_colours
    hub = max(g.vertices(), key=g.degree)
    a, b, c = sorted(g.adjacency[hub])[:3]
    for x in (b, c):                      # three-way edge clash at hub
        ecol[edge_key(hub, x)] = ecol[edge_key(hub, a)]
    other = next(v for v in g.vertices()  # a second clash, away from hub
                 if hub not in g.adjacency[v] and v != hub and g.degree(v) >= 2)
    p, q = sorted(g.adjacency[other])[:2]
    ecol[edge_key(other, q)] = ecol[edge_key(other, p)]
    s, t = g.edges[0]                     # vertex clash
    vcol[t] = vcol[s]
    y, z = g.edges[-1]                    # endpoint clash
    ecol[(y, z)] = vcol[z]

    report = _checked(g, col, 2)
    clashes = [w for kind, w in report.violations if kind == "adjacent-edges"]
    at_hub = [(edge_key(hub, a), edge_key(hub, b)), (edge_key(hub, a), edge_key(hub, c)),
              (edge_key(hub, b), edge_key(hub, c))]
    assert all(pair in clashes for pair in at_hub)
    assert (edge_key(other, p), edge_key(other, q)) in clashes
    assert ("adjacent-vertices", (s, t)) in report.violations
    assert ("edge-endpoint", (y, z)) in report.violations


@pytest.mark.parametrize("seed", range(4))
def test_random_corruptions_match_pairwise_oracle(seed):
    g, col = _valid_colouring(seed)
    rng = random.Random(seed)
    edges, verts = list(g.edges), list(g.vertices())
    kinds = set()
    for _ in range(25):
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.7:
                col.edge_colours[rng.choice(edges)] = col.edge_colours[rng.choice(edges)]
            else:
                col.vertex_colours[rng.choice(verts)] = col.edge_colours[rng.choice(edges)]
        kinds.update(kind for kind, _ in _checked(g, col, 2).violations)
    assert {"adjacent-edges", "edge-endpoint"} <= kinds


# -- equal-sums witnesses against a pairwise oracle -------------------------

def _equal_sums_oracle(g, col, radius, dist):
    """Every vertex pair u > v at BFS distance <= radius with equal weighted
    degrees, ordered by v and then by u; `dist` is apsp(g)."""
    sums = {v: col.weighted_degree(g, v) for v in g.vertices()}
    return [("equal-sums", (v, u)) for v in g.vertices()
            for u, d in sorted(dist[v].items())
            if u > v and d <= radius and sums[u] == sums[v]]


def _equal_sums(g, col, radius):
    return [x for x in verify(g, col, radius).violations if x[0] == "equal-sums"]


def _random_colouring(g, rng, top):
    return TotalColouring({v: rng.randint(1, top) for v in g.vertices()},
                          {key: rng.randint(1, top) for key in g.edges})


def _force_equal(g, col, a, b):
    """Shift b's vertex colour so b's weighted degree equals a's."""
    col.vertex_colours[b] += col.weighted_degree(g, a) - col.weighted_degree(g, b)


def _pairs_at(g, dist, radius, exact):
    return [(v, u) for v in g.vertices() for u, d in dist[v].items()
            if u > v and (d == radius + 1 if exact else 1 <= d <= radius)]


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("radius", [1, 2, 3, 4])
def test_equal_sums_match_pairwise_oracle(seed, radius):
    rng = random.Random(100 * seed + radius)
    # the third graph has vertex ids past 200, many bits into a ball mask,
    # and thousands of pairs at distance exactly r + 1
    graphs = [random_graph(35, 0.08, seed),
              component_graph(40, (12, 9, 9, 1), 0.25, seed),
              random_graph(220, 0.012, seed)]
    for g in graphs:
        dist = apsp(g)
        near = _pairs_at(g, dist, radius, exact=False)
        far = _pairs_at(g, dist, radius, exact=True)
        last_pairs = [(v, u) for v, u in near + far if u == g.n]
        for pool in (near, far, last_pairs):
            col = _random_colouring(g, rng, 10 ** 6)    # sums almost surely distinct
            forced = rng.sample(pool, min(3, len(pool)))
            for a, b in forced:
                _force_equal(g, col, a, b)
            got = _equal_sums(g, col, radius)
            assert got == _equal_sums_oracle(g, col, radius, dist)
            for a, b in forced:
                if col.weighted_degree(g, a) == col.weighted_degree(g, b):
                    assert (("equal-sums", (a, b)) in got) == (dist[a][b] <= radius)
        # many natural collisions: small colours make sums repeat everywhere
        col = _random_colouring(g, rng, 3)
        assert _equal_sums(g, col, radius) == _equal_sums_oracle(g, col, radius, dist)


def _distinct_sums_colouring(g, rng):
    col = _random_colouring(g, rng, 10 ** 6)
    sums = [col.weighted_degree(g, v) for v in g.vertices()]
    assert len(set(sums)) == g.n
    return col


def test_distinct_sums_build_no_ball_table(monkeypatch):
    def refuse(*args):
        raise AssertionError("ball table built")

    monkeypatch.setattr(verify_module, "_closed_balls", refuse)
    rng = random.Random(7)
    for g in (random_graph(35, 0.08, 1), component_graph(40, (12, 9, 9, 1), 0.25, 1)):
        col = _distinct_sums_colouring(g, rng)
        for radius in (1, 2, 3, 10 ** 9):
            assert verify(g, col, radius).passed
    g = random_graph(40, 0.2, 3)                      # a construction's colouring
    col, _, _ = run(g, 10, 3)
    assert verify(g, col, 10).passed


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_one_equal_pair_at_and_past_the_radius(monkeypatch, radius):
    builds = []
    closed_balls = verify_module._closed_balls
    monkeypatch.setattr(verify_module, "_closed_balls",
                        lambda *args: builds.append(args) or closed_balls(*args))
    rng = random.Random(radius)
    g = random_graph(60, 0.05, 2)
    dist = apsp(g)
    for d in (radius, radius + 1):
        pairs = [(v, u) for v in g.vertices() for u, du in dist[v].items()
                 if u > v and du == d]
        a, b = rng.choice(pairs)
        col = _distinct_sums_colouring(g, rng)
        _force_equal(g, col, a, b)
        got = _equal_sums(g, col, radius)
        assert got == _equal_sums_oracle(g, col, radius, dist)
        assert got == ([("equal-sums", (a, b))] if d == radius else [])
    assert len(builds) == 2


def test_equal_sums_cases_are_exercised():
    with_last = []                                    # the last vertex has pairs
    for seed in range(6):
        g = random_graph(35, 0.08, seed)
        if any(u == g.n for _, u in _pairs_at(g, apsp(g), 1, exact=False)):
            with_last.append(seed)
    assert with_last == [1, 2, 3, 4, 5]               # seed 0: it is isolated
    g = component_graph(40, (12, 9, 9, 1), 0.25, 0)
    dist = apsp(g)
    assert _pairs_at(g, dist, 2, exact=True)          # pairs at distance r + 1
    assert any(len(dist[v]) == 1 for v in g.vertices())  # an isolated vertex
    col = _random_colouring(g, random.Random(1), 10 ** 6)
    a, b = 1, 13                                      # different components
    _force_equal(g, col, a, b)
    assert _equal_sums(g, col, 10) == _equal_sums_oracle(g, col, 10, dist) == []
