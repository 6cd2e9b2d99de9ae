"""Randomized vertex ordering with local resampling.

Every vertex draws a weight in [0, 1); the processing order sorts by weight
(ties by id).  Vertices below a degree-dependent threshold form the "low"
group.  For vertices with enough big-class neighbours, three counting
conditions must hold; whenever some fail, the weights within distance
2 * radius of a failing vertex are redrawn -- the dependency radius of the
underlying events -- until all conditions hold or a round budget runs out.
The certificate records the outcome either way.

The conditions are stated for large max degree and are applied from max
degree palette.MIN_DEGREE on, the floor of the palette arithmetic.  Below it
no vertex is checked and every weight is high: at max degree 1 the
backward_span cap is w < 1, which the later endpoint of every edge fails
whatever the weights.
"""

from __future__ import annotations

import math
import random
from typing import NamedTuple

from .graphs import all_r_neighbourhoods, backward_stats, ball, degree_stats
from .palette import MIN_DEGREE, MIN_RADIUS, headline_bound

DEFAULT_MAX_ROUNDS = 1000

# The conditions, in the order of each OrderingCertificate.checks tuple:
#   low_nbrs       cap on r-neighbours inside the low group
#   big_backward   lower bound on backward big-class neighbours (high group only)
#   backward_span  cap on backward r-neighbour count (high group only)
CONDITIONS = ("low_nbrs", "big_backward", "backward_span")


class OrderingCertificate(NamedTuple):
    weights: dict                  # vertex -> float in [0, 1)
    ordering: list                 # permutation, ascending by (weight, id)
    split_threshold: float         # weights below it form the low group
    checks: dict                   # vertex -> one bool or None per CONDITIONS entry
    resample_rounds: int
    seed: int
    valid: bool
    radius: int                    # the radius the conditions were checked at


def split_threshold(max_degree):
    """Weight threshold separating the low and high groups (0 below
    MIN_DEGREE, where every weight is high)."""
    if max_degree < MIN_DEGREE:
        return 0.0
    return math.log(max_degree) / max_degree ** (1.0 / 3.0)


def derive_ordering(g, weights):
    # stable, from ascending ids: ties keep id order
    return sorted(g.vertices(), key=weights.__getitem__)


def checkable_vertices(g, stats):
    """Vertices covered by the conditions: enough big-class neighbours (none
    below MIN_DEGREE)."""
    if g.max_degree < MIN_DEGREE:
        return []
    cutoff = g.max_degree ** (1.0 / 3.0) * math.log(g.max_degree)
    big_nbr_count = stats.big_nbr_count
    return [v for v in g.vertices() if big_nbr_count[v] >= cutoff]


def condition_counts(g, weights, radius):
    """The raw quantities behind the conditions, for every checkable vertex.

    Returns {vertex: (low_nbr_count, backward_big_count, backward_r_count)}
    against the ordering induced by the weights.  The low count is the bit
    count of v's r-ball ANDed with the low group's bitmask, so it counts
    the whole r-neighbourhood, not only its backward part; the backward
    counts come from backward_stats.  A radius past the float range is
    refused (PaletteError) before any table is built.
    """
    if radius < MIN_RADIUS:
        raise ValueError(f"ordering conditions need radius >= {MIN_RADIUS}")
    headline_bound(max(g.max_degree, MIN_DEGREE), radius)
    tau = split_threshold(g.max_degree)
    balls = all_r_neighbourhoods(g, radius)
    back_r, back_big = backward_stats(g, derive_ordering(g, weights), balls)
    low = sum(1 << v for v in g.vertices() if weights[v] < tau)     # distinct bits
    return {v: ((low & balls[v]).bit_count(), back_big[v], back_r[v])
            for v in checkable_vertices(g, degree_stats(g))}


def check_conditions(g, weights, radius):
    """Evaluate the three ordering conditions.

    Returns {vertex: (low_nbrs, big_backward, backward_span)}, in CONDITIONS
    order, for every checkable vertex ({} below MIN_DEGREE).  low_nbrs is a
    bool; the backward conditions are only evaluated for vertices in the
    high group and are None otherwise.  Comparisons are plain
    double-precision, no epsilon slack.
    """
    counts = condition_counts(g, weights, radius)
    if not counts:
        return {}
    delta = g.max_degree
    logd = math.log(delta)
    tau = split_threshold(delta)
    _, big_nbr_count, nbr_degree_sum = degree_stats(g)

    results = {}
    for v, (low_count, big_back, back_r) in counts.items():
        wv = weights[v]
        low_ok = low_count <= 2 * g.degree(v) * delta ** (radius - 4.0 / 3.0) * logd
        if wv >= tau:
            bcount = big_nbr_count[v]
            mean = wv * nbr_degree_sum[v] * delta ** (radius - 2)
            results[v] = (low_ok,
                          big_back >= wv * bcount - math.sqrt(wv * bcount) * logd,
                          back_r <= mean + math.sqrt(mean) * logd)
        else:
            results[v] = (low_ok, None, None)
    return results


def failing_vertices(checks):
    """The checked vertices with a condition that does not hold."""
    return [v for v, res in checks.items() if False in res]


def resample_until_valid(g, radius, seed):
    """Sample weights and locally resample until all conditions hold.

    A radius below palette's MIN_RADIUS runs as MIN_RADIUS, and the
    certificate's radius is the one run.  A radius below 1 is refused
    (ValueError) before any weight is drawn, and one past the float range
    (PaletteError) before any table is built.  Each round evaluates every
    condition, then, while some fail, redraws the weights of every vertex
    within distance 2 * radius of a failing vertex.  A condition reads only
    weights within distance radius of its vertex, so only those near a
    redraw can change; condition_counts recounts the whole graph either
    way.  At most DEFAULT_MAX_ROUNDS redraws are made.  A single seeded generator drives all draws, so the certificate
    is a pure function of (graph, radius, seed).
    """
    if radius < 1:
        raise ValueError("radius must be >= 1")
    radius = max(radius, MIN_RADIUS)
    rng = random.Random(seed)
    weights = {v: rng.random() for v in g.vertices()}
    for rounds in range(DEFAULT_MAX_ROUNDS + 1):    # rounds: redraws so far
        checks = check_conditions(g, weights, radius)
        failing = failing_vertices(checks)
        if not failing or rounds == DEFAULT_MAX_ROUNDS:
            break
        for v in sorted(ball(g, failing, 2 * radius)):
            weights[v] = rng.random()

    return OrderingCertificate(
        weights, derive_ordering(g, weights), split_threshold(g.max_degree),
        checks, rounds, seed, valid=not failing, radius=radius)
