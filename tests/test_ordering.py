import math
from types import SimpleNamespace

import pytest

from distsum import build_graph, check_conditions, ordering, resample_until_valid
from distsum.generate import complete, regular_ish, star
from distsum.graphs import degree_stats
from distsum.ordering import (checkable_vertices, condition_counts,
                              derive_ordering, failing_vertices,
                              split_threshold)
from distsum.palette import PaletteError

from conftest import ordering_counts_oracle, random_graph, sample_weights


def test_sample_weights_reproducible(p3):
    first = resample_until_valid(p3, 2, 42).weights
    assert resample_until_valid(p3, 2, 42).weights == first
    assert all(0.0 <= x < 1.0 for x in first.values())


def test_sample_weights_seed_sensitivity(p3):
    assert (resample_until_valid(p3, 2, 1).weights
            != resample_until_valid(p3, 2, 2).weights)


def test_sample_weights_regression_pin(p3):
    # golden values from the first run of random.Random(0) on three vertices;
    # P3 at seed 0 needs no resampling, so the certificate keeps that draw
    pinned = pytest.approx({1: 0.8444218515250481,
                            2: 0.7579544029403025,
                            3: 0.420571580830845})
    cert = resample_until_valid(p3, 2, 0)
    assert cert.resample_rounds == 0 and cert.weights == pinned
    assert sample_weights(p3, 0) == pinned


def test_ordering_sorted_with_ties():
    # ties go by id whatever order the weights were inserted in
    assert derive_ordering({1: 0.5, 2: 0.5, 3: 0.1, 4: 0.9}) == [3, 1, 2, 4]
    assert derive_ordering({4: 0.9, 2: 0.5, 3: 0.1, 1: 0.5}) == [3, 1, 2, 4]


def test_threshold_degree_8_empty_high_group():
    # ln(8)/8**(1/3) is above 1, so every weight lands in the low group; the
    # star has no checkable vertex, K9 has nine
    assert split_threshold(8) > 1.0
    star_8 = build_graph(9, [(1, v) for v in range(2, 10)])
    for g, checkable in ((star_8, 0), (complete(9), 9)):
        checks = check_conditions(g, sample_weights(g, 3), 2)
        assert len(checks) == checkable
        for low_nbrs, big_backward, backward_span in checks.values():
            assert isinstance(low_nbrs, bool)
            assert big_backward is None and backward_span is None


def test_threshold_degree_95():
    assert split_threshold(95) < 1.0


def test_uncheckable_vertices_skipped():
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])  # all four vertices checkable
    stats = degree_stats(g)
    cutoff = g.max_degree ** (1 / 3) * math.log(g.max_degree)
    checks = check_conditions(g, sample_weights(g, 1), 2)
    assert set(checks) == {v for v in g.vertices()
                           if stats.big_nbr_count[v] >= cutoff}


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("radius", [2, 3])
def test_counts_match_distance_table_oracle(seed, radius):
    g = random_graph(35, 0.12, seed)
    weights = sample_weights(g, seed + 100)
    oracle = ordering_counts_oracle(g, weights, radius)
    assert condition_counts(g, weights, radius) == oracle


def test_resample_vacuous_zero_rounds():
    # max degree 8, but no vertex reaches the big-neighbour cutoff
    # 8**(1/3) * ln 8 ~ 4.2: nothing to check, so no resampling
    g = star(8)
    assert set(checkable_vertices(g, degree_stats(g))) == set()
    cert = resample_until_valid(g, 2, 0)
    assert cert.valid and cert.resample_rounds == 0


def test_resample_deterministic():
    g = random_graph(30, 0.15, 4)
    a = resample_until_valid(g, 2, 9)
    b = resample_until_valid(g, 2, 9)
    assert a.weights == b.weights
    assert a.ordering == b.ordering
    assert a.resample_rounds == b.resample_rounds
    assert a.checks == b.checks


def test_certificate_partition():
    g = random_graph(25, 0.2, 2)
    cert = resample_until_valid(g, 2, 5)
    assert cert.split_threshold == split_threshold(g.max_degree)
    assert all(0.0 <= x < 1.0 for x in cert.weights.values())
    xs = [cert.weights[v] for v in cert.ordering]
    assert xs == sorted(xs)
    assert sorted(cert.ordering) == list(g.vertices())


def test_budget_exhaustion_flagged(monkeypatch):
    # P4 at seed 11 needs 5 rounds, one more than the budget
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    assert resample_until_valid(g, 2, 11).resample_rounds == 5
    monkeypatch.setattr(ordering, "DEFAULT_MAX_ROUNDS", 4)
    cert = resample_until_valid(g, 2, 11)
    assert not cert.valid
    assert cert.resample_rounds == 4
    assert failing_vertices(cert.checks) == [3, 4]


def test_edgeless_graph():
    g = build_graph(3, [])
    cert = resample_until_valid(g, 2, 7)
    assert cert.valid and cert.checks == {}
    assert cert.split_threshold == 0.0          # every weight is high
    assert all(cert.weights[v] >= cert.split_threshold for v in g.vertices())


@pytest.mark.parametrize("edges", [[], [(1, 2)]], ids=["edgeless", "k2"])
def test_no_conditions_below_max_degree_2(edges):
    g = build_graph(2, edges)
    weights = sample_weights(g, 3)
    assert condition_counts(g, weights, 2) == {}
    assert check_conditions(g, weights, 2) == {}


def test_conditions_refuse_radius_below_two(p3):
    with pytest.raises(ValueError, match="radius >= 2"):
        check_conditions(p3, sample_weights(p3, 1), 1)


def test_perfect_matching_valid_without_resampling():
    # at max degree 1 the backward-span cap is w < 1, so checking it would
    # fail every edge whatever the weights
    g = build_graph(400, [(2 * i - 1, 2 * i) for i in range(1, 201)])
    cert = resample_until_valid(g, 2, 1)
    assert cert.valid and cert.resample_rounds == 0 and cert.checks == {}
    assert cert.ordering == derive_ordering(cert.weights)


@pytest.mark.parametrize("refuse", [
    lambda g: resample_until_valid(g, 700, 1),
    lambda g: check_conditions(g, sample_weights(g, 1), 700),
], ids=["resample", "check"])
def test_radius_past_float_range_refused_before_tables(monkeypatch, refuse):
    # 6^699 overflows a float in the condition bounds: an OverflowError,
    # not a ValueError, unless the radius is refused first
    def no_table(*args):
        raise AssertionError("r-ball table built")
    monkeypatch.setattr(ordering, "all_r_neighbourhoods", no_table)
    with pytest.raises(PaletteError, match="headline bound overflows a float at r=700$"):
        refuse(regular_ish(60, 6, 1))


def test_resample_runs_radius_one_as_two(monkeypatch):
    g = regular_ish(60, 6, 1)
    cert = resample_until_valid(g, 1, 3)
    assert cert == resample_until_valid(g, 2, 3)
    assert cert.radius == 2
    def no_draws(seed):
        raise AssertionError("weights drawn")
    monkeypatch.setattr(ordering, "random", SimpleNamespace(Random=no_draws))
    with pytest.raises(ValueError, match="radius must be >= 1"):
        resample_until_valid(g, 0, 3)
