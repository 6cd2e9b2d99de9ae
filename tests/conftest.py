import os
import random
from pathlib import Path

import pytest

from distsum import build_graph


def src_env():
    """The environment for a fresh interpreter that imports distsum from this
    checkout's src/."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))


def write_lines(path, lines):
    """Write `lines` to `path`, each ended by a bare newline; return path."""
    path.write_bytes("".join(line + "\n" for line in lines).encode())
    return path


def sample_weights(g, seed):
    """Independent uniform [0, 1) weights from random.Random(seed): the first
    draw resample_until_valid makes."""
    rng = random.Random(seed)
    return {v: rng.random() for v in g.vertices()}


def random_graph(n, p, seed):
    return component_graph(n, (n,), p, seed)


def component_graph(n, sizes, p, seed):
    """Random graphs of the given sizes on 1, 2, ..., each edge inside one
    taken with probability p, then isolated vertices up to n."""
    rng = random.Random(seed)
    edges, lo = [], 1
    for size in sizes:
        hi = lo + size - 1
        edges += [(u, v) for u in range(lo, hi + 1) for v in range(u + 1, hi + 1)
                  if rng.random() < p]
        lo = hi + 1
    return build_graph(n, edges)


def golden_graphs():
    """(name, builder) for the 94 graphs whose edge colourings are pinned by
    digest in edge_colour_digests.json."""
    from distsum.generate import complete, gnp, regular_ish
    for n, d in ((130, 36), (600, 6), (300, 80)):
        for s in (1, 2, 3):
            yield f"regular-ish {n} {d} seed {s}", lambda n=n, d=d, s=s: regular_ish(n, d, s)
    for k in range(2, 27):
        yield f"complete {k}", lambda k=k: complete(k)
    for n in (20, 40, 60):
        for p in (0.1, 0.3, 0.5, 0.8):
            for s in range(1, 6):
                yield f"gnp {n} {p} seed {s}", lambda n=n, p=p, s=s: gnp(n, p, s)


def forbid_every_base(monkeypatch):
    """Make every recolouring step find all base residues forbidden, so the
    first step of a run is refused."""
    from distsum.recolour import _Run
    incident = _Run._incident_edges

    def forbid_all(self, v):
        groups, _, edge_sum = incident(self, v)
        return groups, set(range(self.params.modulus)), edge_sum
    monkeypatch.setattr(_Run, "_incident_edges", forbid_all)


def apsp(g):
    """All-pairs distances by BFS from every vertex; the reference oracle."""
    dist = {}
    for s in g.vertices():
        dist[s] = {s: 0}
        frontier = [s]
        d = 0
        while frontier:
            d += 1
            nxt = []
            for w in frontier:
                for u in g.adjacency[w]:
                    if u not in dist[s]:
                        dist[s][u] = d
                        nxt.append(u)
            frontier = nxt
    return dist


def ordering_counts_oracle(g, weights, radius):
    """Recompute the ordering-condition quantities from the distance table."""
    from distsum.graphs import degree_stats
    from distsum.ordering import checkable_vertices, split_threshold

    dist = apsp(g)
    tau = split_threshold(g.max_degree)
    stats = degree_stats(g)
    out = {}
    for v in checkable_vertices(g, stats):
        key = (weights[v], v)
        r_nbrs = [u for u in g.vertices()
                  if u != v and dist[v].get(u, 10 ** 9) <= radius]
        low = sum(1 for u in r_nbrs if weights[u] < tau)
        big_back = sum(1 for u in g.adjacency[v]
                       if u in stats.big_set and (weights[u], u) < key)
        back_r = sum(1 for u in r_nbrs if (weights[u], u) < key)
        out[v] = (low, big_back, back_r)
    return out


@pytest.fixture
def p3():
    return build_graph(3, [(1, 2), (2, 3)])


@pytest.fixture
def c5():
    return build_graph(5, [(1, 2), (2, 3), (3, 4), (4, 5), (5, 1)])


@pytest.fixture
def k2():
    return build_graph(2, [(1, 2)])
