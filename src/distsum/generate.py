"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

import random

from .graphs import build_graph


def path(n):
    return build_graph(n, [(i, i + 1) for i in range(1, n)])


def cycle(n):
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    edges = [(i, i + 1) for i in range(1, n)] + [(n, 1)]
    return build_graph(n, edges)


def complete(n):
    return build_graph(n, [(u, v) for u in range(1, n + 1)
                           for v in range(u + 1, n + 1)])


def star(leaves):
    """Centre vertex 1 joined to `leaves` leaf vertices."""
    if leaves < 1:
        raise ValueError("star needs at least one leaf")
    return build_graph(leaves + 1, [(1, v) for v in range(2, leaves + 2)])


def gnp(n, p, seed):
    """Each of the n*(n-1)/2 pairs drawn independently with probability p."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("p must lie in [0, 1]")
    rng = random.Random(seed)
    edges = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)
             if rng.random() < p]
    return build_graph(n, edges)


def regular_ish(n, d, seed):
    """Union of d random near-perfect matchings: every degree is at most d.

    Duplicate pairs are dropped, so the graph is only approximately regular.
    """
    if d < 1 or d >= n:
        raise ValueError("need 1 <= d < n")
    rng = random.Random(seed)
    edges = set()
    for _ in range(d):
        order = list(range(1, n + 1))
        rng.shuffle(order)
        for i in range(0, n - 1, 2):
            u, v = order[i], order[i + 1]
            edges.add((u, v) if u < v else (v, u))
    return build_graph(n, sorted(edges))


# kind -> (maker, types of its size parameters, whether it takes the seed)
KINDS = {
    "path": (path, (int,), False),
    "cycle": (cycle, (int,), False),
    "complete": (complete, (int,), False),
    "star": (star, (int,), False),
    "gnp": (gnp, (int, float), True),
    "regular-ish": (regular_ish, (int, int), True),
}


def from_spec(kind, args, seed):
    """Build a graph from a kind name and its size parameters as strings.

    The one check of a graph spec, for `gen` and for `experiment`'s grid
    rows: ValueError for an unknown kind, a wrong parameter count, a
    parameter of the wrong type ("gnp takes int, float size parameters") or
    a value the generator refuses ("p must lie in [0, 1]").
    """
    if kind not in KINDS:
        raise ValueError(f"unknown graph kind {kind!r}")
    maker, types, seeded = KINDS[kind]
    if len(args) != len(types):
        raise ValueError(f"{kind} takes {len(types)} size parameters, got {len(args)}")
    try:
        values = [convert(arg) for convert, arg in zip(types, args)]
    except ValueError:
        names = ", ".join(convert.__name__ for convert in types)
        raise ValueError(f"{kind} takes {names} size parameters") from None
    return maker(*values, seed) if seeded else maker(*values)
