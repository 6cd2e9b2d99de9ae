"""Algorithm-agnostic validation of total colourings.

Checks raw-colour properness (not the modular variant), weighted-degree
distinctness for every vertex pair within the radius, that every colour is at
least 1 (colourings map into {1, ..., k}), and an optional palette bound.
Nothing here depends on how the colouring was produced, and this module
builds its own distance tables.  Each vertex's closed r-ball is an
int bitmask from r rounds of B_k(v) = B_{k-1}(v) | OR of B_{k-1}(u) over
u in N(v), from B_0(v) = {v}.  The vertices holding each weighted degree
form one bitmask too, so the later vertices within the radius that share
v's sum are that mask AND v's ball, shifted past v; they are noted as
equal-sums witnesses (v, u) in ascending u.  With n distinct sums there
is no pair at any radius, and no ball table is built.

The incidence check costs O(m): one pass over each vertex's incident edge
colours, which also sums its weighted degree.  Only a vertex whose colours
repeat is grouped by colour, and each group of two or more edges yields every
pair in it as an adjacent-edges witness, in the order a scan of all pairs
would find them.  Colours below 1 cost one C-level min() over each colour
map; only a colouring that has one is scanned element by element.  The
completeness check allocates nothing: it looks each vertex and edge up in
the colour maps, and builds the set of missing ones only to name one.
"""

from __future__ import annotations

from collections import defaultdict
from functools import reduce
from itertools import combinations
from operator import or_
from typing import NamedTuple

from .graphs import edge_key


class IncompleteColouringError(ValueError):
    """A vertex or edge has no colour, or a colour names one the graph lacks."""


class VerificationReport(NamedTuple):
    max_colour: int
    violations: list

    @property
    def passed(self):
        return not self.violations


def _closed_balls(adjacency, radius):
    """Bitmask of every vertex's closed r-ball, v itself included."""
    balls = [1 << v for v in range(len(adjacency))]
    for _ in range(radius):
        get = balls.__getitem__
        grown = [reduce(or_, map(get, nbrs), b) for b, nbrs in zip(balls, adjacency)]
        if grown == balls:
            break
        balls = grown
    return balls


def verify(g, colouring, radius, bound=None):
    """Check a total colouring of g; returns a VerificationReport.

    Violations are (kind, witness) pairs, noted in this order: per edge,
    adjacent-vertices and edge-endpoint; adjacent-edges; equal-sums;
    colour-below-one for each vertex, then each edge; bound-exceeded.  The
    report passes iff none were collected.  Raises IncompleteColouringError
    unless exactly g is coloured.
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    vcol = colouring.vertex_colours
    ecol = colouring.edge_colours
    for name, own, given in (("vertex", g.vertices(), vcol), ("edge", g.edges, ecol)):
        if not all(map(given.__contains__, own)):
            missing = own - given.keys()
            raise IncompleteColouringError(f"{name} {min(missing)} has no colour")
        if len(given) > len(own):
            foreign = min(given.keys() - own)
            raise IncompleteColouringError(f"{name} {foreign} is not in the graph")

    violations = []
    note = violations.append

    for (u, v) in g.edges:
        if vcol[u] == vcol[v]:
            note(("adjacent-vertices", (u, v)))
        ce = ecol[(u, v)]
        if ce == vcol[u] or ce == vcol[v]:
            note(("edge-endpoint", (u, v)))
    sums = {}
    for v in g.vertices():
        nbrs = g.adjacency[v]
        colours = [ecol[edge_key(v, u)] for u in nbrs]
        sums[v] = vcol[v] + sum(colours)
        if len(set(colours)) == len(colours):
            continue
        by_colour = defaultdict(list)
        for u, ce in zip(nbrs, colours):
            by_colour[ce].append(u)
        clashes = sorted(pair for group in by_colour.values()
                         for pair in combinations(group, 2))
        for a, b in clashes:
            note(("adjacent-edges", (edge_key(v, a), edge_key(v, b))))

    by_sum = defaultdict(int)       # sum -> bitmask of the vertices holding it
    for v in g.vertices():
        by_sum[sums[v]] |= 1 << v
    if len(by_sum) < g.n:           # two vertices share a sum
        balls = _closed_balls(g.adjacency, radius)
        for v in g.vertices():
            # bit i of near: vertex v + 1 + i is within r of v and shares v's sum
            near = (by_sum[sums[v]] & balls[v]) >> (v + 1)
            while near:
                low = near & -near
                note(("equal-sums", (v, v + low.bit_length())))
                near ^= low

    if min(vcol.values(), default=1) < 1 or min(ecol.values(), default=1) < 1:
        for v in g.vertices():
            if vcol[v] < 1:
                note(("colour-below-one", v))
        for key in g.edges:
            if ecol[key] < 1:
                note(("colour-below-one", key))

    max_colour = colouring.max_colour()
    if bound is not None and max_colour > bound:
        note(("bound-exceeded", (max_colour, bound)))
    return VerificationReport(max_colour, violations)
