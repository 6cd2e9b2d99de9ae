"""End-to-end acceptance checks for the whole pipeline.

Each test covers one acceptance criterion and prints a single PASS/FAIL
line; run with ``pytest tests/test_acceptance.py -s`` to see them.
"""

import io
import time

import pytest

from distsum import build_graph, compute_params, verify
from distsum.base_colouring import edge_colour_indices
from distsum.cli import main, parse_grid_lines, run_experiment
from distsum.exact import exact_chi
from distsum.generate import complete, cycle, gnp, path, star
from distsum.graphs import edge_key
from distsum.ordering import condition_counts
from distsum.palette import check_disjoint_shifts
from distsum.recolour import run

from conftest import ordering_counts_oracle, random_graph, sample_weights


def _report(num, label, ok, detail=""):
    tail = " (%s)" % detail if detail else ""
    print("criterion %d %-22s %s%s" % (num, label, "PASS" if ok else "FAIL", tail))
    assert ok


def instance_suite():
    """200 deterministic instances, n <= 300 and max degree <= 25."""
    out = []
    rs = [1, 2, 3]
    for i, n in enumerate([4, 7, 12, 25, 50, 100, 180, 260, 300]):
        out.append(("path-%d" % n, path(n), rs[i % 3], 11 + i))
    for i, n in enumerate([3, 6, 11, 24, 51, 99, 181, 261, 300]):
        out.append(("cycle-%d" % n, cycle(n), rs[i % 3], 23 + i))
    for leaves in range(1, 26):
        out.append(("star-%d" % leaves, star(leaves), rs[leaves % 3], 37 + leaves))
    for n in range(2, 27):
        out.append(("complete-%d" % n, complete(n), rs[n % 3], 53 + n))
    sizes = [20, 40, 80, 150, 300]
    avgs = [3, 6, 9]
    for seed in range(132):
        n = sizes[seed % 5]
        g = gnp(n, avgs[seed % 3] / (n - 1), seed)
        out.append(("gnp-%d-%d" % (n, seed), g, rs[seed % 3], 101 + seed))
    assert len(out) == 200
    assert all(g.n <= 300 and g.max_degree <= 25 for _, g, _, _ in out)
    return out


@pytest.fixture(scope="module")
def traced_sweep():
    """One instrumented pass over the suite, shared by several criteria."""
    records = []
    for name, g, radius, seed in instance_suite():
        col, trace, cert = run(g, radius, seed, check_invariants=True)
        records.append((name, g, radius, col, trace, verify(g, col, radius)))
    return records


def test_criterion_1_sweep_verifies_in_time():
    t0 = time.monotonic()
    failures = []
    for name, g, radius, seed in instance_suite():
        col, trace, cert = run(g, radius, seed)
        report = verify(g, col, radius)
        if not report.passed:
            failures.append((name, report.violations[0]))
    elapsed = time.monotonic() - t0
    ok = not failures and elapsed < 60.0
    _report(1, "distinguishing sweep", ok,
            "200 instances, %.1fs%s" % (elapsed,
                                        ", failures: %r" % failures[:3] if failures else ""))


def test_criterion_2_edge_colouring_quality():
    bad = []
    for seed in range(100):
        g = random_graph(8 + seed % 40, 0.25, seed)
        idx = edge_colour_indices(g)
        used = set(idx.values())
        proper = all(len({idx[edge_key(v, u)] for u in g.adjacency[v]})
                     == len(g.adjacency[v]) for v in g.vertices())
        if not proper or (used and max(used) > g.max_degree + 1):
            bad.append(seed)
    for n in (3, 5, 9, 15, 25):
        c = cycle(n)
        if len(set(edge_colour_indices(c).values())) != 3:
            bad.append("cycle-%d" % n)
    # every edge of a star meets the centre, so the tight count is exactly
    # the degree and all edges get pairwise distinct colours
    for leaves in (1, 2, 5, 12, 25):
        s = star(leaves)
        if sorted(edge_colour_indices(s).values()) != list(range(1, leaves + 1)):
            bad.append("star-%d" % leaves)
    _report(2, "edge colouring", not bad, "bad: %r" % bad if bad else "100 random + cycles + stars")


def test_criterion_3_palette_grid():
    bad = []
    for d in range(2, 1001):
        for r in (2, 3, 4):
            p = compute_params(d, r)
            floor = d ** (r - 1) + 6 * d + p.step
            if (p.modulus % p.step != 0
                    or not floor <= p.modulus < floor + p.step
                    or p.size != d + 1
                    or p.intervals[0][0] < p.modulus + 1
                    or p.intervals[-1][1] > p.modulus + 4 * d + 1
                    or not check_disjoint_shifts(p)[0]):
                bad.append((d, r))
    spot = compute_params(100, 2)
    if (spot.step, spot.modulus) != (457, 1371):
        bad.append("spot")
    _report(3, "palette parameters", not bad,
            "grid 2..1000 x r in {2,3,4}" if not bad else "bad: %r" % bad[:5])


def test_criterion_4_exact_solver():
    t0 = time.monotonic()
    k2 = build_graph(2, [(1, 2)])
    p3 = build_graph(3, [(1, 2), (2, 3)])
    bad = []
    for g, radius, want in [(k2, 1, 3), (k2, 2, 3), (k2, 3, 3),
                            (p3, 1, 3), (p3, 2, 4)]:
        value, witness = exact_chi(g, radius, limit=10)
        report = verify(g, witness, radius, bound=value)
        if value != want or not report.passed or value < g.max_degree + 1:
            bad.append((g.n, radius, value))
    elapsed = time.monotonic() - t0
    ok = not bad and elapsed < 10.0
    _report(4, "exact optimum", ok, "%.2fs%s" % (elapsed, ", bad: %r" % bad if bad else ""))


def test_criterion_5_run_invariants(traced_sweep):
    bad = [name for name, _, _, _, trace, _ in traced_sweep
           if trace.invariant_violations]
    _report(5, "step invariants", not bad,
            "checked every step of 200 runs" if not bad else "bad: %r" % bad[:5])


def test_criterion_6_ordering_counts():
    bad = []
    for seed in range(50):
        g = random_graph(20 + seed % 41, 0.18, seed)
        weights = sample_weights(g, seed + 500)
        radius = 2 + seed % 2
        if condition_counts(g, weights, radius) != ordering_counts_oracle(g, weights, radius):
            bad.append(seed)
    _report(6, "ordering statistics", not bad,
            "50 graphs vs distance-table oracle" if not bad else "bad: %r" % bad)


def test_criterion_7_palette_bound(traced_sweep):
    bad = [name for name, g, radius, col, trace, report in traced_sweep
           if trace.fallback_count or col.max_colour() > col.params.palette_max]
    _report(7, "colour bound", not bad,
            "200 runs within palette_max" if not bad else "bad: %r" % bad[:5])


def test_criterion_8_byte_determinism(tmp_path):
    bad = []
    for kind, args, radius, seed in [("cycle", ["31"], 2, 5),
                                     ("gnp", ["40", "0.15"], 2, 7),
                                     ("star", ["12"], 3, 9),
                                     ("complete", ["8"], 1, 2)]:
        src = tmp_path / "in.txt"
        assert main(["gen", kind] + args + ["--seed", str(seed),
                     "--output", str(src)]) == 0
        pair = []
        for _ in range(2):
            out = io.StringIO()
            assert main(["color", "--input", str(src), "--r", str(radius),
                         "--seed", str(seed)], out=out) == 0
            pair.append(out.getvalue())
        if pair[0] != pair[1]:
            bad.append(kind)
    grid = ["cycle 19 2 1", "gnp 30 0.2 2 4", "complete 7 3 0"]
    if run_experiment(parse_grid_lines(grid)) != run_experiment(parse_grid_lines(grid)):
        bad.append("experiment")
    _report(8, "byte determinism", not bad,
            "bad: %r" % bad if bad else "4 colourings + experiment table, 2 runs each")
