import hashlib
import itertools
import json
from pathlib import Path

import pytest

from distsum import build_graph, exact, exact_chi, verify
from distsum.colouring import TotalColouring
from distsum.generate import complete, cycle, path, star

from conftest import random_graph


def search(g, radius, p):
    """The exact search's witness at one palette size, or None."""
    witness, _ = exact._search(exact._schedule(g, radius), p, exact.TRIAL_BUDGET)
    return witness


def brute_force_feasible(g, radius, p):
    """Oracle: enumerate every colouring outright (tiny inputs only)."""
    elements = [("v", v) for v in g.vertices()] + [("e", e) for e in g.edges]
    for combo in itertools.product(range(1, p + 1), repeat=len(elements)):
        vcol = {item: c for (kind, item), c in zip(elements, combo) if kind == "v"}
        ecol = {item: c for (kind, item), c in zip(elements, combo) if kind == "e"}
        if verify(g, TotalColouring(vcol, ecol), radius).passed:
            return True
    return False


def test_k2_needs_three(k2):
    for r in (1, 2, 3):
        value, witness = exact_chi(k2, r, 10)
        assert value == 3
        assert verify(k2, witness, r).passed
    assert not brute_force_feasible(k2, 1, 2)
    assert brute_force_feasible(k2, 1, 3)


def test_p3_values(p3):
    value, witness = exact_chi(p3, 1, 10)
    assert value == 3 and verify(p3, witness, 1).passed
    value, witness = exact_chi(p3, 2, 10)
    assert value == 4 and verify(p3, witness, 2).passed
    assert not brute_force_feasible(p3, 2, 3)


def test_is_feasible_k2(k2):
    assert search(k2, 1, 2) is None
    witness = search(k2, 1, 3)
    assert witness is not None and verify(k2, witness, 1).passed


def test_edgeless_single_colour():
    g = build_graph(3, [])
    value, witness = exact_chi(g, 1, 1)
    assert value == 1
    assert witness.vertex_colours == {1: 1, 2: 1, 3: 1}


@pytest.mark.parametrize("radius", [0, -2])
def test_radius_below_one_refused(p3, radius):
    with pytest.raises(ValueError, match="radius must be >= 1"):
        exact_chi(p3, radius, 10)
    with pytest.raises(ValueError, match="radius must be >= 1"):
        search(p3, radius, 4)


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_exact_builds_no_r_ball_table(radius):
    # the oracle finds r-neighbours by its own search, apart from the table
    # the construction reads
    g = random_graph(7, 0.4, radius)
    exact_chi(g, radius, g.max_degree + 3)
    assert ("r_neighbourhoods", radius) not in g._tables


def test_limit_sentinel(p3):
    assert exact_chi(p3, 2, 3) == (None, None)


@pytest.mark.parametrize("edges", [
    [(1, 2)], [(1, 2), (2, 3)], [(1, 2), (2, 3), (3, 1)],
    [(1, 2), (2, 3), (3, 4)], [(1, 2), (3, 4)],
])
def test_matches_brute_force(edges):
    n = max(max(e) for e in edges)
    g = build_graph(n, edges)
    for r in (1, 2):
        value, witness = exact_chi(g, r, 6)
        assert value is not None
        assert verify(g, witness, r).passed
        assert not brute_force_feasible(g, r, value - 1)
        assert brute_force_feasible(g, r, value)


def test_lower_bound_and_monotone():
    for seed in range(4):
        g = random_graph(5, 0.5, seed)
        values = []
        for r in (1, 2, 3):
            value, witness = exact_chi(g, r, 9)
            assert value is not None and value >= g.max_degree + 1
            assert verify(g, witness, r).passed
            values.append(value)
        assert values == sorted(values)


def test_long_path_no_depth_limit():
    g = path(600)
    value, witness = exact_chi(g, 1, 4)
    assert value == 4
    assert verify(g, witness, 1, bound=4).passed


def test_trial_budget_shared_across_sizes(monkeypatch, p3):
    # P3 at r = 2 fails at size 3 and succeeds at 4; the budget covers both.
    schedule = exact._schedule(p3, 2)
    witness, at_3 = exact._search(schedule, 3, exact.TRIAL_BUDGET)
    assert witness is None
    _, at_4 = exact._search(schedule, 4, exact.TRIAL_BUDGET)
    monkeypatch.setattr(exact, "TRIAL_BUDGET", at_3 + at_4)
    assert exact_chi(p3, 2, 10)[0] == 4
    monkeypatch.setattr(exact, "TRIAL_BUDGET", at_3 + at_4 - 1)
    with pytest.raises(exact.SearchBudgetError, match="palette size 4"):
        exact_chi(p3, 2, 10)
    monkeypatch.setattr(exact, "TRIAL_BUDGET", at_3 - 1)
    with pytest.raises(ValueError, match="palette size 3"):
        exact_chi(p3, 2, 10)


# Golden digests of exact_chi: the search must keep its element order,
# colour scan and pruning, so it finds the same first witness.
def _exact_cases():
    """(name, graph, radius, limit) for small random and named graphs at
    radius 1, 2, 3, plus one case past its limit."""
    graphs = [(f"random {n} 0.5 seed {s}", random_graph(n, 0.5, s))
              for n in (4, 5) for s in range(10)]
    graphs += [("path 7", path(7)), ("cycle 6", cycle(6)),
               ("star 4", star(4)), ("complete 4", complete(4))]
    for name, g in graphs:
        for r in (1, 2, 3):
            yield name, g, r, 8
    yield "path 3", path(3), 2, 3


def _exact_digest(g, radius, limit):
    value, witness = exact_chi(g, radius, limit)
    lines = [f"value {value}"]
    if witness is not None:
        lines += [f"v {v} {witness.vertex_colours[v]}" for v in g.vertices()]
        lines += [f"e {u} {v} {witness.edge_colours[(u, v)]}" for u, v in g.edges]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_exact_golden_digests():
    expected = json.loads((Path(__file__).parent / "exact_digests.json").read_text())
    got = {f"{name}, r={radius}, limit {limit}": _exact_digest(g, radius, limit)
           for name, g, radius, limit in _exact_cases()}
    assert got == expected
