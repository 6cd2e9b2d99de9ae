import hashlib
import json
import operator
import random
import time
from array import array
from collections import Counter
from itertools import product
from pathlib import Path

import pytest

from distsum import (backward_stats, build_graph, compute_params, generate,
                     ordering, resample_until_valid, run, verify)
from distsum.generate import complete, regular_ish
from distsum.graphs import all_r_neighbourhoods
from distsum.base_colouring import base_total_colouring
from distsum.recolour import RunError, StepLog, StepRecord, _Run, replay

from conftest import (apsp, component_graph, forbid_every_base, golden_graphs,
                      random_graph)


def weighted_degrees(g, col):
    return {v: col.weighted_degree(g, v) for v in g.vertices()}


def test_k2_two_distinct_sums(k2):
    col, trace, cert = run(k2, 2, 1, check_invariants=True)
    assert verify(k2, col, 2).passed
    sums = weighted_degrees(k2, col)
    assert sums[1] != sums[2]
    assert not trace.invariant_violations


def test_p3_radius_2(p3):
    col, trace, _ = run(p3, 2, 3, check_invariants=True)
    assert verify(p3, col, 2).passed
    sums = weighted_degrees(p3, col)
    assert len(set(sums.values())) == 3
    assert not trace.invariant_violations


def test_c5_all_sums_distinct(c5):
    # diameter 2: every pair interacts at radius 2
    col, _, _ = run(c5, 2, 2)
    sums = weighted_degrees(c5, col)
    assert len(set(sums.values())) == 5
    assert verify(c5, col, 2).passed


def test_first_vertex_unconstrained(p3):
    _, trace, cert = run(p3, 2, 5)
    first = trace.steps[0]
    assert first.vertex == cert.ordering[0]
    assert first.backward_r_count == 0


def test_isolated_vertices():
    g = build_graph(4, [(1, 2)])
    col, trace, _ = run(g, 2, 1)
    assert col.vertex_colours[3] == 1 and col.vertex_colours[4] == 1
    assert weighted_degrees(g, col)[3] == 1
    assert verify(g, col, 2).passed


def test_isolated_vertex_steps_take_the_general_path():
    # two components plus isolated vertices 9 and 10
    g = build_graph(10, [(1, 2), (2, 3), (3, 1), (4, 5), (5, 6), (6, 7), (7, 8)])
    col, trace, _ = run(g, 2, 3, check_invariants=True)
    isolated = [rec for rec in trace.steps if g.degree(rec.vertex) == 0]
    assert sorted(rec.vertex for rec in isolated) == [9, 10]
    for rec in isolated:
        assert (rec.base_colour, rec.target_sum) == (1, 1)
        assert rec.admissible_count == col.params.modulus
        assert rec.lattice_size == 1
        assert rec.backward_r_count == 0
        assert rec.edge_deltas == [] and rec.compensations == []
    assert not trace.invariant_violations
    assert verify(g, col, 2).passed


def test_edgeless_graph():
    g = build_graph(3, [])
    col, trace, _ = run(g, 2, 1)
    assert all(c == 1 for c in col.vertex_colours.values())
    assert verify(g, col, 3).passed


def test_radius_1_uses_radius_2_arithmetic(p3):
    col, trace, _ = run(p3, 1, 4)
    assert verify(p3, col, 1).passed
    assert any("radius 1" in note for note in trace.notes)


def test_invalid_certificate_noted_and_run_verified(monkeypatch):
    # P4 at seed 11 needs 5 rounds; with 4, vertices 3 and 4 still fail
    monkeypatch.setattr(ordering, "DEFAULT_MAX_ROUNDS", 4)
    g = build_graph(4, [(1, 2), (2, 3), (3, 4)])
    col, trace, cert = run(g, 2, 11)
    assert not cert.valid
    assert trace.notes == [
        "ordering certificate not fully valid: 2 failing vertices after 4 rounds"]
    assert verify(g, col, 2).passed


def test_deterministic_output():
    g = random_graph(40, 0.1, 6)
    a = run(g, 2, 11)
    b = run(g, 2, 11)
    assert a[0].vertex_colours == b[0].vertex_colours
    assert a[0].edge_colours == b[0].edge_colours
    assert [s.target_sum for s in a[1].steps] == [s.target_sum for s in b[1].steps]


def test_seed_changes_output():
    g = random_graph(40, 0.1, 6)
    a = run(g, 2, 1)[0]
    b = run(g, 2, 2)[0]
    assert a.vertex_colours != b.vertex_colours or a.edge_colours != b.edge_colours


@pytest.mark.parametrize("seed", range(8))
@pytest.mark.parametrize("radius", [1, 2, 3])
def test_random_instances_verified(seed, radius):
    g = random_graph(50, 0.1, seed)
    col, trace, _ = run(g, radius, seed, check_invariants=True)
    report = verify(g, col, radius)
    assert report.passed, report.violations[:5]
    assert not trace.invariant_violations, trace.invariant_violations[:5]


@pytest.mark.parametrize("seed", range(6))
def test_trace_replay_reproduces_colouring(seed):
    g = random_graph(45, 0.12, seed)
    col, trace, _ = run(g, 2, seed)
    again = replay(g, trace)
    assert again.vertex_colours == col.vertex_colours
    assert again.edge_colours == col.edge_colours


def test_palette_bound_without_fallback():
    g = random_graph(60, 0.08, 9)
    col, trace, _ = run(g, 2, 9)
    assert trace.fallback_count == 0
    assert col.max_colour() <= col.params.palette_max
    assert max(col.vertex_colours.values()) <= 2 * col.params.modulus + col.params.step


def test_sums_distinct_within_radius_only():
    # two far-apart vertices may legitimately share a sum
    g = build_graph(8, [(1, 2), (2, 3), (3, 4), (5, 6), (6, 7), (7, 8)])
    col, _, _ = run(g, 2, 1)
    dist = apsp(g)
    sums = weighted_degrees(g, col)
    for u in g.vertices():
        for v in g.vertices():
            if u < v and dist[u].get(v, 10 ** 9) <= 2:
                assert sums[u] != sums[v]


def _half_run(seed):
    """A checked run stopped after half its ordering."""
    g = random_graph(30, 0.15, seed)
    cert = resample_until_valid(g, 2, seed)
    runner = _Run(g, compute_params(g.max_degree, 2), all_r_neighbourhoods(g, 2),
                  check_invariants=True)
    for v in cert.ordering[:g.n // 2]:
        runner.process_vertex(v)
    assert not runner.trace.invariant_violations
    return runner


def test_only_processed_vertices_have_a_colour():
    runner = _half_run(4)
    assert runner.colouring.vertex_colours.keys() == runner.shift.keys()


def test_invariant_checker_reports_corrupted_edge():
    runner = _half_run(4)
    key = next((a, b) for a, b in runner.g.edges
               if a in runner.shift and b in runner.shift)
    runner.colouring.edge_colours[key] += 1
    runner._check_state("fault", runner.g.vertices())
    found = runner.trace.invariant_violations
    assert f"after fault: edge {key} left its residue class" in found
    assert f"after fault: sum of {key[0]} drifted from its target" in found


def test_invariant_checker_reports_anchor_above_modulus():
    runner = _half_run(5)
    v = min(runner.shift)
    runner.anchor[v] = runner.params.modulus + 1
    runner._check_state("fault", runner.g.vertices())
    assert (f"after fault: anchor of {v} above the modulus"
            in runner.trace.invariant_violations)


def test_invariant_checker_reports_colour_out_of_range():
    runner = _half_run(4)
    key = runner.g.edges[0]
    # a whole number of moduli keeps the residue class
    colour = runner.colouring.edge_colours[key] + 4 * runner.params.modulus
    runner.colouring.edge_colours[key] = colour
    runner._check_state("fault", runner.g.vertices())
    assert (f"after fault: edge {key} colour {colour} out of range"
            in runner.trace.invariant_violations)


def test_invariant_checker_reports_third_alteration():
    runner = _half_run(4)
    key = runner.g.edges[0]
    runner.alterations[key] = 3
    runner._check_state("fault", runner.g.vertices())
    assert runner.trace.invariant_violations == [
        f"after fault: edge {key} altered more than twice"]


def test_invariant_checker_reports_adjacent_residue_clash():
    runner = _half_run(5)
    u, w = next((a, b) for a, b in runner.g.edges
                if a in runner.shift and b in runner.shift)
    runner.colouring.vertex_colours[w] = runner.colouring.vertex_colours[u]
    runner._check_state("fault", runner.g.vertices())
    assert (f"after fault: adjacent vertices {u},{w} share a residue"
            in runner.trace.invariant_violations)


def test_invariant_checker_envelope_has_two_colours():
    # anchor + modulus and anchor + step both lie in the four colours
    # {a, a + step, a + modulus, a + modulus + step}, but a small vertex
    # only ever moves by the step and a big one by the modulus
    runner = _half_run(4)
    vcol, params = runner.colouring.vertex_colours, runner.params
    small = min(runner.shift.keys() - runner.stats.big_set)
    big = min(runner.shift.keys() & runner.stats.big_set)
    vcol[small] = runner.anchor[small] + params.modulus
    vcol[big] = runner.anchor[big] + params.step
    runner._check_state("fault", [small, big])
    found = runner.trace.invariant_violations
    assert f"after fault: colour of {small} left its envelope" in found
    assert f"after fault: colour of {big} left its envelope" in found


@pytest.mark.parametrize("seed", range(1, 9))
def test_invariant_checker_reports_flipped_shift(seed):
    # a step reads a processed neighbour's anchor off its colour and shift,
    # so a flipped shift is reported at the first later step next to it
    runner = _half_run(seed)
    g, shift = runner.g, runner.shift
    u = min(v for v in shift if set(g.adjacency[v]) - shift.keys())
    shift[u] = -shift[u]
    rest = resample_until_valid(g, 2, seed).ordering[g.n // 2:]
    for v in rest:
        runner.process_vertex(v)
    w = next(v for v in rest if v in g.adjacency[u])
    found = runner.trace.invariant_violations
    assert found[0].startswith(f"after {w}: ")
    assert f"after {w}: colour of {u} does not match its shift" in found


def _inject(monkeypatch, fault):
    """Call fault(runner, v) before every step of the runs that follow."""
    step = _Run.process_vertex

    def process_vertex(runner, v):
        fault(runner, v)
        return step(runner, v)
    monkeypatch.setattr(_Run, "process_vertex", process_vertex)


def test_step_check_misses_far_fault_and_end_scan_reports_it(monkeypatch):
    # the first component is processed long before the last step, so an
    # edge corrupted there lies outside every later step's {v} | N(v)
    g = component_graph(40, (12, 28), 0.3, 2)
    corrupted = []

    def fault(runner, v):
        if corrupted:
            return
        for a, b in g.edges:
            around = {*g.adjacency[a], *g.adjacency[b]}
            if runner.shift.keys() >= around:
                runner.colouring.edge_colours[(a, b)] += 1
                corrupted.append(((a, b), around, set(g.vertices()) - runner.shift.keys()))
                return
    _inject(monkeypatch, fault)
    _, trace, _ = run(g, 2, 6, check_invariants=True)
    assert corrupted
    key, around, later = corrupted[0]
    assert later and not later & around
    found = trace.invariant_violations
    assert f"after all steps: edge {key} left its residue class" in found
    assert f"after all steps: sum of {key[0]} drifted from its target" in found
    assert all(msg.startswith("after all steps: ") for msg in found)


def test_step_check_reports_fault_next_to_the_step(monkeypatch):
    # a processed neighbour of the coming step is corrupted just before it
    g = random_graph(30, 0.15, 4)
    corrupted = []

    def fault(runner, v):
        done = sorted(runner.g.adjacency[v] & runner.shift.keys())
        if not corrupted and done:
            runner.colouring.vertex_colours[done[0]] += 1
            corrupted.append((v, done[0]))
    _inject(monkeypatch, fault)
    _, trace, _ = run(g, 2, 4, check_invariants=True)
    assert corrupted
    v, u = corrupted[0]
    found = trace.invariant_violations
    assert found[0].startswith(f"after {v}: ")
    assert f"after {v}: sum of {u} drifted from its target" in found
    assert f"after {v}: colour of {u} left its envelope" in found


def test_no_free_sum_raises_run_error(monkeypatch):
    forbid_every_base(monkeypatch)
    started = time.monotonic()
    with pytest.raises(RunError, match="no free target sum"):
        run(random_graph(20, 0.2, 5), 2, 5)
    assert time.monotonic() - started < 1.0


def test_step_records_have_option_counts():
    g = random_graph(20, 0.2, 5)
    _, trace, _ = run(g, 2, 5)
    for rec in trace.steps:
        if rec.edge_deltas or rec.compensations:
            assert rec.admissible_count > 0
            assert rec.lattice_size >= 1


def test_alteration_budget():
    g = random_graph(35, 0.15, 8)
    _, trace, _ = run(g, 3, 8)
    per_edge = {}
    for rec in trace.steps:
        for key, _ in rec.edge_deltas:
            per_edge[key] = per_edge.get(key, 0) + 1
    assert all(count <= 2 for count in per_edge.values())


# one instance of every generator kind; regular-ish 130 36 takes the
# Misra-Gries fan step, which recolours edges already in the base map
KIND_SPECS = {
    "path": ["40"],
    "cycle": ["41"],
    "complete": ["6"],
    "star": ["9"],
    "gnp": ["40", "0.15"],
    "regular-ish": ["130", "36"],
}


@pytest.mark.parametrize("kind", sorted(KIND_SPECS))
def test_colourings_key_edges_by_the_graphs_own_tuples(kind):
    assert set(KIND_SPECS) == set(generate.KINDS)
    g = generate.from_spec(kind, KIND_SPECS[kind], 1)
    col, trace, _ = run(g, 2, 1)
    assert len(col.edge_colours) == g.m
    assert all(map(operator.is_, col.edge_colours, g.edges))
    # the base colours hold no key at all: one colour per edge, in edge order
    base = base_total_colouring(g, col.params).edge_colours
    assert trace.base_edge_colours == tuple(base[key] for key in g.edges)


@pytest.mark.parametrize("check", [False, True])
def test_alterations_count_the_shifted_edges_only(check):
    g = regular_ish(80, 6, 3)
    runner = _Run(g, compute_params(g.max_degree, 3), all_r_neighbourhoods(g, 3),
                  check_invariants=check)
    for v in resample_until_valid(g, 3, 3).ordering:
        runner.process_vertex(v)
    if check:
        runner._check_state("all steps", g.vertices())
    shifted = Counter(key for rec in runner.trace.steps for key, _ in rec.edge_deltas)
    assert 0 < len(shifted) < g.m
    if check:
        # a plain dict on the right: the check reads no edge into the table
        assert runner.alterations == dict(shifted)
    else:
        # only the invariant checker counts alterations and keeps anchors
        assert runner.alterations is None and runner.base_edge is None
        assert runner.anchor is None and runner.target is None
    assert not runner.trace.invariant_violations


def test_step_log_indexes_like_a_list():
    g = random_graph(30, 0.15, 4)
    log = run(g, 2, 4)[1].steps
    records = [log[i] for i in range(len(log))]
    assert len(log) == g.n
    assert list(log) == records
    assert [log[-i] for i in range(1, g.n + 1)] == records[::-1]
    for i in (g.n, -g.n - 1):
        with pytest.raises(IndexError):
            log[i]
    assert log == run(g, 2, 4)[1].steps
    assert log != run(g, 2, 5)[1].steps
    assert log != records and StepLog() == StepLog()


def test_step_log_builds_each_record_from_its_own_runs():
    # step 0 shifts nothing; step 1 shifts two edges and compensates one
    # end, with a colour past 2**63
    big = 2 ** 70
    log = StepLog()
    log.scalars += (4, 1, 9, 7, 1, 0, 2, big, big + 5, 6, 9, 1)
    log.edge_ends += array("q", (0, 6))
    log.comp_ends += array("q", (0, 2))
    log.edges += (1, 2, 3, 2, 4, -big)
    log.comps += (4, big)
    assert list(log) == [
        StepRecord(4, 1, 9, [], [], 7, 1, 0),
        StepRecord(2, big, big + 5, [((1, 2), 3), ((2, 4), -big)], [(4, big)], 6, 9, 1)]


def test_step_log_ends_are_machine_ints():
    # the ends are offsets into the log, so they fit a machine int; a checked
    # run's log still replays to its colouring, the checks finding nothing
    g = random_graph(30, 0.15, 4)
    col, trace, _ = run(g, 3, 4, check_invariants=True)
    assert trace.steps.edge_ends.typecode == trace.steps.comp_ends.typecode == "q"
    assert StepLog().edge_ends.typecode == StepLog().comp_ends.typecode == "q"
    assert not trace.invariant_violations and trace.steps == run(g, 3, 4)[1].steps
    replayed = replay(g, trace)
    assert replayed.vertex_colours == col.vertex_colours
    assert replayed.edge_colours == col.edge_colours


def test_rejects_bad_radius(p3):
    with pytest.raises(ValueError, match="radius must be >= 1"):
        run(p3, 0, 1)


# Golden digests of whole runs: a rewrite of the step must make every choice
# the same, so every colour, the ordering and every step record stay.
def _run_cases():
    """(name, builder, radius, seed) for the golden graphs but the three
    regular-ish 300 80 ones, at radius 1, 2, 3 in turn."""
    cases = [(name, make) for name, make in golden_graphs()
             if not name.startswith("regular-ish 300 80 ")]
    for i, (name, make) in enumerate(cases):
        yield name, make, 1 + i % 3, i


def _run_digest(g, radius, seed):
    col, trace, cert = run(g, radius, seed)
    lines = [f"v {v} {col.vertex_colours[v]}" for v in g.vertices()]
    lines += [f"e {u} {v} {col.edge_colours[(u, v)]}" for u, v in g.edges]
    lines.append("order " + " ".join(map(str, cert.ordering)))
    lines += [repr(tuple(rec)) for rec in trace.steps]
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


@pytest.mark.parametrize("family", ["regular-ish", "complete", "gnp"])
def test_backward_count_is_processed_r_neighbours(family):
    # the count the counting argument bounds: every vertex earlier in the
    # ordering within BFS distance r, which holds one sum each, so it is
    # at least the number of distinct sums they hold; it is also the count
    # the ordering's backward_span condition caps, taken on another path
    for name, make, radius, seed in _run_cases():
        if not name.startswith(family + " "):
            continue
        g = make()
        _, trace, cert = run(g, radius, seed)
        assert [rec.vertex for rec in trace.steps] == cert.ordering
        pos = {v: i for i, v in enumerate(cert.ordering)}
        target = {rec.vertex: rec.target_sum for rec in trace.steps}
        dist = apsp(g)
        ordered = backward_stats(g, cert.ordering, all_r_neighbourhoods(g, radius))
        for rec in trace.steps:
            v = rec.vertex
            near = [u for u, d in dist[v].items() if 1 <= d <= radius and pos[u] < pos[v]]
            assert rec.backward_r_count == len(near), (name, radius, v)
            assert rec.backward_r_count == ordered.backward_r_count[v], (name, radius, v)
            assert rec.backward_r_count >= len({target[u] for u in near})


@pytest.mark.parametrize("family", ["regular-ish", "complete", "gnp"])
def test_run_golden_digests(family):
    expected = json.loads((Path(__file__).parent / "run_digests.json").read_text())
    got = {f"{name}, r={radius}, run seed {seed}": _run_digest(make(), radius, seed)
           for name, make, radius, seed in _run_cases()
           if name.startswith(family + " ")}
    assert got == {k: v for k, v in expected.items() if k.startswith(family + " ")}


def _sorted_lattice(runner, big_neg, big_pos, small_neg, small_pos):
    """The reference for the ring walk: the whole lattice sorted afresh."""
    modulus, step = runner.params.modulus, runner.params.step
    return sorted((abs(i) + abs(j), i * modulus + j * step, i, j)
                  for i in range(-big_neg, big_pos + 1)
                  for j in range(-small_neg, small_pos + 1))


@pytest.mark.parametrize("degree, radius", [(150, 2), (20, 3), (6, 2)])
def test_ring_walk_is_the_sorted_lattice(degree, radius):
    # modulus / step is 3, 2 and 5 here, so shifts tie inside a ring
    g = complete(2)
    runner = _Run(g, compute_params(degree, radius), all_r_neighbourhoods(g, 2))
    rng = random.Random(degree)
    shapes = list(product(range(5), repeat=4))
    shapes += [tuple(rng.randint(0, 40) for _ in range(4)) for _ in range(40)]
    for sizes in shapes:
        lattice = _sorted_lattice(runner, *sizes)
        # from ring 0, each call appends the next ring, in order; once the
        # lattice is whole, a call appends nothing
        offsets = [(0, 0, 0)]
        for d in range(1, lattice[-1][0] + 2):
            runner._grow(sizes, offsets)
            assert offsets == [x[1:] for x in lattice if x[0] <= d], sizes


_ALL_EVENTS = {"ring reused", "ring grown", "whole lattice taken"}


@pytest.mark.parametrize("make, radius, seen", [
    pytest.param(lambda: regular_ish(600, 6, 1), 3, _ALL_EVENTS, id="regular-ish-600-6-r3"),
    pytest.param(lambda: regular_ish(100, 6, 1), 3, _ALL_EVENTS, id="regular-ish-100-6-r3"),
    # each step has group sizes of its own, so no ring is read twice
    pytest.param(lambda: complete(25), 2, {"ring grown"}, id="complete-25-r2"),
])
def test_ring_walk_matches_a_plain_sort(monkeypatch, make, radius, seen):
    g = make()
    incident, grow, process = _Run._incident_edges, _Run._grow, _Run.process_vertex
    events = set()
    incident_seen = []

    def spied_incident(runner, v):
        groups, forbidden, edge_sum = incident(runner, v)
        modulus, step = runner.params.modulus, runner.params.step
        sizes = (len(groups[-modulus]), len(groups[modulus]),
                 len(groups[-step]), len(groups[step]))
        if runner.rings.get(sizes):
            events.add("ring reused")
        incident_seen.append((sizes, forbidden, edge_sum, len(runner.rings.get(sizes, ()))))
        return groups, forbidden, edge_sum

    def spied_step(runner, v):
        process(runner, v)
        rec = runner.trace.steps[-1]
        sizes, forbidden, edge_sum, before = incident_seen[-1]
        order = [x[1:] for x in _sorted_lattice(runner, *sizes)]
        modulus = runner.params.modulus
        first_base = next(b for b in range(1, modulus + 1) if b % modulus not in forbidden)
        if rec.base_colour == first_base:
            # the walk stopped at the first offset in order with the target's
            # shift, having built the rings up to that offset's own
            shift = rec.target_sum - rec.base_colour - edge_sum
            d = next(abs(i) + abs(j) for s, i, j in order if s == shift)
            reached = sum(1 for _, i, j in order if abs(i) + abs(j) <= d)
        else:
            # an earlier admissible base found every sum taken
            reached = len(order)
        # the rings kept: what earlier steps built, or up to where this one read
        assert len(runner.rings[sizes]) == max(before, reached), v

    def spied_grow(runner, sizes, offsets):
        before = len(offsets)
        grow(runner, sizes, offsets)
        # the rings kept so far plus exactly the next one, whole
        d = abs(offsets[before - 1][1]) + abs(offsets[before - 1][2]) + 1
        assert offsets == [x[1:] for x in _sorted_lattice(runner, *sizes) if x[0] <= d]
        # the walk reached the last offset built and found its sum taken
        events.add("ring grown" if len(offsets) > before else "whole lattice taken")

    def plain_sort(runner, sizes, offsets):
        # the whole lattice at once: the first call comes with the walk at
        # ring 0's one offset, so the walk reads on through the lattice
        offsets[:] = [x[1:] for x in _sorted_lattice(runner, *sizes)]

    monkeypatch.setattr(_Run, "_incident_edges", spied_incident)
    monkeypatch.setattr(_Run, "_grow", spied_grow)
    monkeypatch.setattr(_Run, "process_vertex", spied_step)
    walked = run(g, radius, 1)
    monkeypatch.setattr(_Run, "_incident_edges", incident)
    monkeypatch.setattr(_Run, "process_vertex", process)
    monkeypatch.setattr(_Run, "_grow", plain_sort)
    assert run(g, radius, 1) == walked
    assert events == seen
