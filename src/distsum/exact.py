"""Exact minimum palette size by backtracking, for desk-scale oracles.

The search colours a fixed schedule of elements: for each vertex in id
order, its edges to earlier vertices, then the vertex itself, so that a
vertex's weighted degree is decided as early as possible.  Before the search
the schedule records, for each element, the earlier elements it must not
share a colour with and the vertices it completes (colours their last
element), and for each vertex, the elements that make up its weighted degree
and its r-neighbours completed before it.

The search is one loop over a colour list: at each index it tries the next
colour, in ascending order, that is proper against the element's earlier
neighbours and leaves every vertex it completes with a weighted degree unlike
those of its earlier-completed r-neighbours.  It advances when a colour
passes and steps back when none is left, so its depth is bounded by memory,
not by the interpreter's recursion limit.  Its work is bounded by
TRIAL_BUDGET colour trials per exact_chi call: past that it raises
SearchBudgetError, so a hard input is refused instead of searched for hours.
No numeric symmetry breaking is applied: colour permutations do not preserve
weighted degrees, so fixing any element's colour could miss feasible palettes.
"""

from __future__ import annotations

from .colouring import TotalColouring
from .graphs import all_r_neighbourhoods


def _schedule(g, radius):
    """(elements, clashes, completes, parts, earlier) for the search.

    An element is (v,) for a vertex and (u, v) with u < v for an edge.
    clashes[i] and completes[i] list element indices and vertices; parts[v]
    lists the element indices summed in v's weighted degree and earlier[v]
    the r-neighbours completed before v.  An edge precedes its later end's
    vertex element, so each element completes at most one vertex.
    """
    elements = []
    for v in g.vertices():
        elements += [(u, v) for u in g.adjacency[v] if u < v]
        elements.append((v,))
    parts = {v: [] for v in g.vertices()}
    for i, ends in enumerate(elements):
        for w in ends:
            parts[w].append(i)
    place = {ends[0]: i for i, ends in enumerate(elements) if len(ends) == 1}
    clashes = []
    for i, ends in enumerate(elements):
        near = {j for w in ends for j in parts[w]}
        if len(ends) == 1:
            near.update(place[u] for u in g.adjacency[ends[0]])
        clashes.append([j for j in near if j < i])
    done = {v: parts[v][-1] for v in g.vertices()}
    completes = [[] for _ in elements]
    for v in g.vertices():
        completes[done[v]].append(v)
    nbrs_r = all_r_neighbourhoods(g, radius)
    earlier = {v: [u for u in nbrs_r[v] if done[u] < done[v]]
               for v in g.vertices()}
    return elements, clashes, completes, parts, earlier


class SearchBudgetError(ValueError):
    """The search tried TRIAL_BUDGET colours without an answer."""


# Colour trials allowed per exact_chi call.
# A trial sets one element's colour and checks the sums it completes; a
# million take a few seconds.
TRIAL_BUDGET = 10 ** 6


def _search(schedule, palette_size, budget):
    """(witness or None, trials used) for one palette size; raises
    SearchBudgetError once more than `budget` trials would be needed."""
    elements, clashes, completes, parts, earlier = schedule
    colour = [0] * len(elements)      # 0: not coloured yet
    sums = {}
    trials = 0
    i = 0
    while 0 <= i < len(elements):
        used = {colour[j] for j in clashes[i]}
        for c in range(colour[i] + 1, palette_size + 1):
            if c in used:
                continue
            if trials == budget:
                raise SearchBudgetError(
                    f"exact search ran out of its budget of {TRIAL_BUDGET} "
                    f"colour trials at palette size {palette_size}")
            trials += 1
            colour[i] = c
            for w in completes[i]:
                sums[w] = sum(colour[j] for j in parts[w])
            if all(sums[u] != sums[w] for w in completes[i] for u in earlier[w]):
                i += 1
                break
        else:
            colour[i] = 0
            i -= 1
    if i < 0:
        return None, trials
    vcol = {ends[0]: c for ends, c in zip(elements, colour) if len(ends) == 1}
    ecol = {ends: c for ends, c in zip(elements, colour) if len(ends) == 2}
    return TotalColouring(vcol, ecol), trials


def exact_chi(g, radius, limit):
    """Least palette size admitting a valid colouring, or None past `limit`.

    Scans sizes upward from the properness lower bound max_degree + 1
    (1 for edgeless graphs).  The sizes share one budget of TRIAL_BUDGET
    colour trials; past it, raises SearchBudgetError (a ValueError).
    """
    lower = max(g.max_degree + 1, 1)
    schedule = _schedule(g, radius)
    left = TRIAL_BUDGET
    for p in range(lower, limit + 1):
        witness, trials = _search(schedule, p, left)
        if witness is not None:
            return p, witness
        left -= trials
    return None, None
