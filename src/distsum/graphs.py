"""Simple undirected graphs plus the degree statistics the colouring pipeline needs.

Vertices are integers 1..n.  Graphs are immutable after construction and safe
to share between concurrent readers.  The r-ball table holds each vertex's
r-neighbourhood as an int bitmask (bit u set for each member u), so the
pipeline's one recurring question, which processed vertices lie within
distance r, is an AND and a bit count.
"""

from __future__ import annotations

from functools import reduce
from itertools import chain
from operator import or_
from typing import NamedTuple


class GraphError(ValueError):
    """Malformed graph input (self-loop, duplicate edge, bad endpoint); `edge`
    is the offending edge's index in the input list (None for a bad vertex
    count) and `reason` the message without that index."""

    def __init__(self, reason, edge=None):
        super().__init__(reason if edge is None else f"edge {edge}: {reason}")
        self.reason = reason
        self.edge = edge


def edge_key(u, v):
    """Canonical (min, max) key for an undirected edge."""
    return (u, v) if u < v else (v, u)


class Graph:
    """Simple undirected graph with neighbour tuples and max degree, built
    from n and the sorted edges alone: no caller passes neighbour lists.
    Appending both ends of each edge in edge order makes each adjacency[v]
    the ascending tuple of v's neighbours (index 0 empty), with no sort.

    Attributes:
        n: vertex count, vertices are 1..n
        edges: sorted tuple of (u, v) pairs with u < v
        adjacency: list indexed by vertex id; adjacency[v] is a tuple
        max_degree: maximum neighbour count over all vertices

    `all_r_neighbourhoods` and `degree_stats` cache their result in
    `_tables` on first use, keyed ("r_neighbourhoods", radius) and
    "degree_stats"; an r-ball table holds n bitmasks of n bits, about
    n**2 / 8 bytes.  The graph never changes, so a cached table never goes
    stale, and concurrent readers stay safe: two readers racing on an empty
    slot both build the same table and either copy is kept.  A second Graph
    with the same edges builds its own tables.
    """

    __slots__ = ("n", "edges", "adjacency", "max_degree", "_tables")

    def __init__(self, n, edges):
        self.n = n
        self.edges = edges
        adjacency = [[] for _ in range(n + 1)]
        for u, v in edges:
            adjacency[u].append(v)
            adjacency[v].append(u)
        self.adjacency = list(map(tuple, adjacency))
        self.max_degree = max(map(len, self.adjacency))
        self._tables = {}

    def degree(self, v):
        return len(self.adjacency[v])

    def vertices(self):
        return range(1, self.n + 1)

    @property
    def m(self):
        return len(self.edges)


def build_graph(n, edges):
    """Validate an edge list and build a Graph.

    Raises GraphError (with the offending edge index) on self-loops,
    duplicate edges or endpoints outside 1..n.
    """
    if n < 0:
        raise GraphError(f"vertex count must be non-negative, got {n}")
    seen = {}      # canonical keys in input order: sorted input sorts in linear time
    for idx, (u, v) in enumerate(edges):
        if not (1 <= u <= n) or not (1 <= v <= n):
            raise GraphError(f"endpoint out of range in ({u}, {v})", idx)
        if u == v:
            raise GraphError(f"self-loop at vertex {u}", idx)
        key = edge_key(u, v)
        if key in seen:
            raise GraphError(f"duplicate edge {key}", idx)
        seen[key] = None
    return Graph(n, tuple(sorted(seen)))


def ball(g, sources, radius):
    """Vertices within distance `radius` of any source, sources included."""
    adjacency = g.adjacency
    seen = set(sources)
    frontier = seen
    for _ in range(radius):
        # one whole BFS layer per step, in C-level set operations
        frontier = set(chain.from_iterable(map(adjacency.__getitem__, frontier)))
        frontier -= seen
        if not frontier:
            break
        seen |= frontier
    return seen


class Ball(int):
    """A vertex set as an int bitmask, bit u set for each member u.

    It is an int, so `&` with another mask and `bit_count()` work as on any
    int; `len` is the member count, which the benchmark's tracer reads.
    """

    __slots__ = ()
    __len__ = int.bit_count


def all_r_neighbourhoods(g, radius):
    """Per-vertex r-neighbourhoods as Ball bitmasks, indexed by vertex id
    (index 0 is empty).

    r rounds of B_k(v) = B_{k-1}(v) | OR of B_{k-1}(u) over u in N(v),
    from B_0(v) = {v}, stopping early once no ball grows; bit v is then
    cleared, so v is not its own r-neighbour.  Built once per
    (graph, radius) and cached on the graph.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    key = ("r_neighbourhoods", radius)
    table = g._tables.get(key)
    if table is None:
        closed = _closed_balls(g, radius)
        table = (Ball(0),) + tuple(Ball(closed[v] ^ 1 << v) for v in g.vertices())
        g._tables[key] = table
    return table


def _closed_balls(g, radius):
    """Bitmask of every vertex's closed r-ball, v included (0 at index 0).

    Only the list returned outlives the call, so building the table holds
    at most two lists of n-bit masks at once.
    """
    balls = [0] + [1 << v for v in g.vertices()]
    for _ in range(radius):
        get = balls.__getitem__
        grown = [reduce(or_, map(get, nbrs), b) for b, nbrs in zip(balls, g.adjacency)]
        if grown == balls:
            break
        balls = grown
    return balls


class DegreeStats(NamedTuple):
    """Degree statistics: small/big split and neighbour-degree sums.

    A vertex is "big" when its degree strictly exceeds max_degree**(2/3),
    evaluated in double precision; otherwise it is "small".  An edgeless
    graph has no big vertex.
    """

    big_set: frozenset
    big_nbr_count: tuple     # per vertex: neighbours in the big class
    nbr_degree_sum: tuple    # per vertex: sum of neighbour degrees


def degree_stats(g):
    """Compute the small/big partition and per-vertex neighbour statistics.

    Built once per graph and cached on it.
    """
    stats = g._tables.get("degree_stats")
    if stats is not None:
        return stats
    threshold = g.max_degree ** (2.0 / 3.0)
    adjacency = g.adjacency
    degrees = list(map(len, adjacency))
    big = frozenset(v for v in g.vertices() if degrees[v] > threshold)
    stats = DegreeStats(big, tuple(len(big.intersection(nbrs)) for nbrs in adjacency),
                        tuple(sum(map(degrees.__getitem__, nbrs)) for nbrs in adjacency))
    g._tables["degree_stats"] = stats
    return stats


class BackwardStats(NamedTuple):
    """Backward-neighbour counts relative to a fixed vertex ordering."""

    backward_r_count: tuple     # per vertex: |backward r-neighbours|
    backward_big_count: tuple   # per vertex: backward neighbours in the big class


def backward_stats(g, ordering, balls):
    """Backward counts for every vertex, given a processing order.

    `ordering` is a permutation of the vertices and `balls` the r-ball
    table of the radius in question, as all_r_neighbourhoods returns it.
    The backward r-neighbour count is the bit count of the vertex's ball
    ANDed with the vertices ordered before it, held as a bitmask.
    """
    if sorted(ordering) != list(g.vertices()):
        raise ValueError("ordering must be a permutation of the vertices")
    big = degree_stats(g).big_set

    back_r_cnt = [0] * (g.n + 1)
    back_big = [0] * (g.n + 1)
    earlier_bits = 0                # the vertices ordered before v, as a bitmask
    earlier_big = set()             # the big vertices among them
    for v in ordering:
        back_r_cnt[v] = (earlier_bits & balls[v]).bit_count()
        back_big[v] = len(earlier_big.intersection(g.adjacency[v]))
        earlier_bits |= 1 << v
        if v in big:
            earlier_big.add(v)
    return BackwardStats(tuple(back_r_cnt), tuple(back_big))
