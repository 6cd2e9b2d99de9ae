"""Simple undirected graphs plus the degree statistics the colouring pipeline needs.

Vertices are integers 1..n.  Graphs are immutable after construction and safe
to share between concurrent readers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass


class GraphError(ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad endpoint)."""


def edge_key(u, v):
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with adjacency sets and max degree.

    Attributes:
        n: vertex count, vertices are 1..n
        edges: sorted tuple of (u, v) pairs with u < v
        adjacency: list indexed by vertex id; adjacency[v] is a frozenset
        max_degree: maximum neighbour-set size over all vertices
    """

    __slots__ = ("n", "edges", "adjacency", "max_degree")

    def __init__(self, n, edges, adjacency, max_degree):
        self.n = n
        self.edges = edges
        self.adjacency = adjacency
        self.max_degree = max_degree

    def degree(self, v):
        return len(self.adjacency[v])

    def vertices(self):
        return range(1, self.n + 1)

    @property
    def m(self):
        return len(self.edges)

    def __repr__(self):
        return f"Graph(n={self.n}, m={self.m}, max_degree={self.max_degree})"


def build_graph(n, edges):
    """Validate an edge list and build a Graph.

    Raises GraphError (with the offending edge index) on self-loops,
    duplicate edges or endpoints outside 1..n.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    adjacency = [set() for _ in range(n + 1)]
    seen = set()
    canon = []
    for idx, (u, v) in enumerate(edges):
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise GraphError(f"edge {idx}: endpoint out of range in ({u}, {v})")
        if u == v:
            raise GraphError(f"edge {idx}: self-loop at vertex {u}")
        key = edge_key(u, v)
        if key in seen:
            raise GraphError(f"edge {idx}: duplicate edge {key}")
        seen.add(key)
        canon.append(key)
        adjacency[u].add(v)
        adjacency[v].add(u)
    max_degree = max((len(a) for a in adjacency[1:]), default=0)
    frozen = [frozenset()] + [frozenset(adjacency[v]) for v in range(1, n + 1)]
    return Graph(n, tuple(sorted(canon)), frozen, max_degree)


def r_neighbourhood(g, v, radius):
    """All vertices u != v within distance `radius` of v (BFS to that depth)."""
    if radius < 1:
        raise ValueError("radius must be >= 1")
    seen = {v}
    frontier = [v]
    out = set()
    for _ in range(radius):
        nxt = []
        for w in frontier:
            for u in g.adjacency[w]:
                if u not in seen:
                    seen.add(u)
                    out.add(u)
                    nxt.append(u)
        if not nxt:
            break
        frontier = nxt
    return out


def all_r_neighbourhoods(g, radius):
    """Per-vertex r-neighbourhoods as sorted tuples, indexed by vertex id."""
    return [()] + [tuple(sorted(r_neighbourhood(g, v, radius))) for v in g.vertices()]


def ball(g, sources, radius):
    """Vertices within distance `radius` of any source, sources included."""
    seen = set(sources)
    frontier = deque((v, 0) for v in sources)
    while frontier:
        w, d = frontier.popleft()
        if d == radius:
            continue
        for u in g.adjacency[w]:
            if u not in seen:
                seen.add(u)
                frontier.append((u, d + 1))
    return seen


@dataclass(frozen=True)
class DegreeStats:
    """Degree statistics: small/big split and neighbour-degree sums.

    A vertex is "big" when its degree strictly exceeds max_degree**(2/3),
    evaluated in double precision; otherwise it is "small".
    """

    threshold: float
    big_set: frozenset
    small_nbr_count: tuple   # per vertex: neighbours in the small class
    big_nbr_count: tuple     # per vertex: neighbours in the big class
    nbr_degree_sum: tuple    # per vertex: sum of neighbour degrees

    def is_big(self, v):
        return v in self.big_set


def degree_stats(g):
    """Compute the small/big partition and per-vertex neighbour statistics."""
    if g.max_degree < 1:
        raise ValueError("degree statistics need at least one edge")
    threshold = g.max_degree ** (2.0 / 3.0)
    big = frozenset(v for v in g.vertices() if g.degree(v) > threshold)
    small_cnt = [0] * (g.n + 1)
    big_cnt = [0] * (g.n + 1)
    deg_sum = [0] * (g.n + 1)
    for v in g.vertices():
        for u in g.adjacency[v]:
            if u in big:
                big_cnt[v] += 1
            else:
                small_cnt[v] += 1
            deg_sum[v] += g.degree(u)
    return DegreeStats(threshold, big, tuple(small_cnt), tuple(big_cnt), tuple(deg_sum))


@dataclass(frozen=True)
class BackwardStats:
    """Backward-neighbour counts relative to a fixed vertex ordering."""

    backward_nbrs: tuple        # per vertex: frozenset of backward neighbours
    backward_r_count: tuple     # per vertex: |backward r-neighbours|
    backward_big_count: tuple   # per vertex: backward neighbours in the big class
    masked_r_count: tuple       # per vertex: r-neighbours inside the supplied mask


def backward_stats(g, ordering, radius, mask=None, neighbourhoods=None):
    """Backward sets/counts for every vertex, given a processing order.

    `ordering` is a permutation of the vertices; `mask` is an optional vertex
    set for the masked r-neighbour count (the mask is applied to the whole
    r-neighbourhood, not only its backward part).
    """
    if sorted(ordering) != list(g.vertices()):
        raise ValueError("ordering must be a permutation of the vertices")
    if neighbourhoods is None:
        neighbourhoods = all_r_neighbourhoods(g, radius)
    pos = [0] * (g.n + 1)
    for i, v in enumerate(ordering):
        pos[v] = i
    stats = degree_stats(g) if g.max_degree >= 1 else None
    mask = mask or frozenset()

    back_n = [frozenset()] * (g.n + 1)
    back_r_cnt = [0] * (g.n + 1)
    back_big = [0] * (g.n + 1)
    masked = [0] * (g.n + 1)
    for v in g.vertices():
        back_n[v] = frozenset(u for u in g.adjacency[v] if pos[u] < pos[v])
        back_r_cnt[v] = sum(1 for u in neighbourhoods[v] if pos[u] < pos[v])
        if stats is not None:
            back_big[v] = sum(1 for u in back_n[v] if stats.is_big(u))
        masked[v] = sum(1 for u in neighbourhoods[v] if u in mask)
    return BackwardStats(tuple(back_n), tuple(back_r_cnt),
                         tuple(back_big), tuple(masked))
