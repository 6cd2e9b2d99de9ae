import hashlib
import io
import os
import re
import subprocess
import sys
import time
import weakref

import pytest

from distsum import (GraphError, TotalColouring, build_graph, cli, exact, files, generate,
                     graphs, recolour, run, verify)
from distsum.base_colouring import base_total_colouring
from distsum.cli import main, parse_grid_lines, run_experiment
from distsum.files import FormatError, parse_colouring_lines, parse_graph_lines
from distsum.recolour import RunTrace, StepLog, StepRecord, replay

from conftest import forbid_every_base, src_env, write_lines


def run_cli(argv):
    out = io.StringIO()
    code = main(argv, out=out)
    return code, out.getvalue()


def test_parse_graph_k2():
    g = parse_graph_lines(["p 2 1", "e 1 2"])
    assert g.n == 2 and g.edges == ((1, 2),)


def test_parse_graph_p3_with_comment():
    g = parse_graph_lines(["# path", "p 3 2", "e 1 2", "e 2 3"])
    assert g.max_degree == 2


@pytest.mark.parametrize("lines,msg", [
    (["p 2 1", "e 1 1"], "self-loop"),
    (["p 2 2", "e 1 2"], "declares 2 edges"),
    (["e 1 2"], "edge before header"),
    (["p 2 1", "e 1 two"], "line 2"),
    (["p 2 1", "q 1 2"], "unknown record"),
    (["p 2 1", "", "p 2 1"], "line 3: duplicate header"),
    (["p 2"], "line 1: 'p' record needs 3 fields"),
    (["p 2 1", "e 1 2 3"], "line 2: 'e' record needs 3 fields"),
    (["p two 1"], "line 1: non-integer field"),
    (["# only a comment", ""], "missing 'p <n> <m>' header"),
    (["p 2 2", "e 1 2", "e 2 1"], "duplicate edge"),
    (["p 2 1", "e 1 3"], "out of range"),
    # graph refusals name the file line, not the edge's index
    (["p 2 2", "e 1 2", "# c", "e 2 1"], r"^line 4: duplicate edge \(1, 2\)$"),
    (["p 3 1", "", "e 2 2"], "^line 3: self-loop at vertex 2$"),
    (["p 2 1", "# c", "e 0 1"], r"^line 3: endpoint out of range in \(0, 1\)$"),
    # and so do header refusals, with the header's line
    (["p -1 0"], "^line 1: vertex count must be non-negative, got -1$"),
    (["# c", "p 2 2", "e 1 2"], "^line 2: header declares 2 edges, found 1$"),
])
def test_parse_graph_errors(tmp_path, lines, msg):
    with pytest.raises(FormatError, match=msg):
        parse_graph_lines(lines)
    # and the same refusal from the file reader
    with pytest.raises(FormatError, match=msg):
        files.parse_graph(write_lines(tmp_path / "g.txt", lines))


@pytest.mark.parametrize("edges,reason", [
    ([(1, 2), (2, 1), (3, 3)], r"duplicate edge \(1, 2\)"),
    ([(1, 2), (3, 3), (2, 1)], "self-loop at vertex 3"),
    ([(2, 3), (1, 4), (3, 2)], r"endpoint out of range in \(1, 4\)"),
    ([(2, 3), (3, 2), (1, 4)], r"duplicate edge \(2, 3\)"),
], ids=["duplicate-then-loop", "loop-then-duplicate", "range-then-duplicate",
        "duplicate-then-range"])
def test_first_bad_edge_in_input_order_is_refused(tmp_path, edges, reason):
    # two kinds of error in one list: the earlier edge's is the one reported
    with pytest.raises(GraphError, match=f"^edge 1: {reason}$"):
        build_graph(3, edges)
    lines = ["p 3 3"] + [f"e {u} {v}" for u, v in edges]
    with pytest.raises(FormatError, match=f"^line 3: {reason}$"):
        parse_graph_lines(lines)
    with pytest.raises(FormatError, match=f"^line 3: {reason}$"):
        files.parse_graph(write_lines(tmp_path / "g.txt", lines))


@pytest.mark.parametrize("lines,msg", [
    (["q 1 2"], "line 1: unknown record 'q'"),
    (["meta n=2", "v 1"], "line 2: 'v' record needs 3 fields"),
    (["E 1 2"], "line 1: 'E' record needs 4 fields"),
    (["w 1 2 3"], "line 1: 'w' record needs 3 fields"),
    (["# c", "v 1 x"], "line 2: non-integer field"),
    (["E 1 two 3"], "line 1: non-integer field"),
    (["w 1 x"], "line 1: non-integer field"),
    (["v 1 3", "v 2 4", "v 1 3"], "line 3: duplicate 'v' record for 1"),
    (["E 1 2 5", "E 2 1 6"], r"line 2: duplicate 'E' record for \(1, 2\)"),
], ids=["unknown-tag", "short-v", "short-E", "long-w", "non-integer-v",
        "non-integer-E", "non-integer-w", "duplicate-v", "duplicate-E"])
def test_parse_colouring_errors(tmp_path, lines, msg):
    with pytest.raises(FormatError, match=msg):
        parse_colouring_lines(lines)
    with pytest.raises(FormatError, match=msg):
        files.parse_colouring(write_lines(tmp_path / "c.txt", lines))


def test_readers_skip_comments_and_blank_lines():
    g = parse_graph_lines(["p 2 1  # header", "", "   ", "e 1 2 # edge"])
    assert g.edges == ((1, 2),)
    meta, col = parse_colouring_lines(
        ["meta n=2 # run", "", "v 1 1", "v 2 2 # second", "E 1 2 3", "w 1 4  # derived"])
    assert meta == {"n": "2"}
    assert (col.vertex_colours, col.edge_colours) == ({1: 1, 2: 2}, {(1, 2): 3})
    [(kind, size, radius, seed, g)] = parse_grid_lines(["", "path 4 2 1  # four", "#"])
    assert (kind, size, radius, seed, g.edges) == ("path", ["4"], 2, 1, ((1, 2), (2, 3), (3, 4)))


def test_graph_round_trip(tmp_path):
    code, text = run_cli(["gen", "gnp", "20", "0.2", "--seed", "3"])
    assert code == 0
    path = tmp_path / "g.txt"
    path.write_text(text)
    g = files.parse_graph(path)
    assert files.format_graph(g) == text


def test_colouring_round_trip(tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    assert run_cli(["gen", "cycle", "7", "--output", str(gpath)])[0] == 0
    assert run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "5",
                    "--output", str(cpath)])[0] == 0
    text = cpath.read_text()
    meta, colouring = parse_colouring_lines(text.splitlines())
    g = files.parse_graph(gpath)
    assert files.format_colouring(g, colouring, meta) == text


def test_verify_exit_codes(tmp_path):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    run_cli(["gen", "path", "6", "--output", str(gpath)])
    run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "1",
             "--output", str(cpath)])
    assert run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                    "--r", "2"])[0] == 0
    # corrupt one vertex colour so two adjacent vertices collide
    lines = cpath.read_text().splitlines()
    v_lines = [i for i, line in enumerate(lines) if line.startswith("v ")]
    lines[v_lines[0]] = "v 1 " + lines[v_lines[1]].split()[2]
    cpath.write_text("\n".join(lines) + "\n")
    assert run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                    "--r", "2"])[0] == 1


def test_verify_prints_at_most_fifty_violations(tmp_path):
    # C60, vertices coloured 1, 2 and edges 3, 4 alternately: a proper
    # colouring whose sums alternate 8, 9, so every pair at distance 2 clashes
    g = generate.cycle(60)
    colouring = TotalColouring({v: 2 - v % 2 for v in g.vertices()},
                               {(u, v): 3 if u % 2 and v == u + 1 else 4
                                for u, v in g.edges})
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_text(files.format_graph(g))
    cpath.write_text(files.format_colouring(g, colouring, {}))
    report = verify(g, colouring, 2)
    assert len(report.violations) == 60
    code, text = run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                          "--r", "2"])
    lines = text.splitlines()
    assert code == 1
    assert lines[0] == "verify pass=false max_colour=4 violations=60"
    assert lines[1:] == [f"violation {kind} {witness}"
                         for kind, witness in report.violations[:50]]
    assert lines[1:3] == ["violation equal-sums (1, 3)", "violation equal-sums (1, 59)"]


@pytest.mark.parametrize("colours,witness", [
    ((0, 2, 1), "1"), ((-5, 7, 3), "1"), ((1, 3, 0), "(1, 2)")])
def test_verify_fails_colours_below_one(tmp_path, colours, witness):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    run_cli(["gen", "complete", "2", "--output", str(gpath)])
    cpath.write_text("v 1 {}\nv 2 {}\nE 1 2 {}\n".format(*colours))
    code, text = run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                          "--r", "1", "--bound", "8"])
    assert code == 1
    assert text.splitlines()[1:] == [f"violation colour-below-one {witness}"]


@pytest.mark.parametrize("radius", ["0", "-3"])
def test_verify_refuses_radius_below_one(tmp_path, capsys, radius):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    run_cli(["gen", "path", "6", "--output", str(gpath)])
    run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "1",
             "--output", str(cpath)])
    capsys.readouterr()
    assert run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                    "--r", radius]) == (2, "")
    assert capsys.readouterr().err == "error: radius must be >= 1\n"


def test_input_error_exit_code(tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("p 2 1\ne 1 1\n")
    code, _ = run_cli(["color", "--input", str(bad), "--r", "2", "--seed", "1"])
    assert code == 2
    assert run_cli(["order", "--input", str(tmp_path / "missing"), "--r", "2",
                    "--seed", "1"])[0] == 2


def test_palette_subcommand():
    code, text = run_cli(["palette", "--delta", "100", "--r", "2"])
    assert code == 0
    assert text.splitlines()[0] == (
        "palette delta=100 r=2 step=457 modulus=1371 size=101 "
        "palette_max=3600 shifts_disjoint=true")


def test_palette_reports_violating_pair(monkeypatch):
    monkeypatch.setattr(cli, "check_disjoint_shifts",
                        lambda params: (False, (1372, 1373)))
    code, text = run_cli(["palette", "--delta", "100", "--r", "2"])
    assert code == 1
    assert text.splitlines()[0].endswith(" shifts_disjoint=false")
    assert text.splitlines()[-1] == "violating pair  (1372, 1373)"


def test_order_subcommand(tmp_path):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "cycle", "9", "--output", str(gpath)])
    code, text = run_cli(["order", "--input", str(gpath), "--r", "2",
                          "--seed", "4"])
    assert code == 0
    lines = text.splitlines()
    assert lines[0].startswith("cert seed=4 r=2")
    order_line = next(l for l in lines if l.startswith("order "))
    assert sorted(int(tok) for tok in order_line.split()[1:]) == list(range(1, 10))


@pytest.mark.parametrize("radius", ["0", "-3"])
def test_order_refuses_radius_below_one(tmp_path, capsys, radius):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "cycle", "9", "--output", str(gpath)])
    assert run_cli(["order", "--input", str(gpath), "--r", radius,
                    "--seed", "4"]) == (2, "")
    assert capsys.readouterr().err == "error: radius must be >= 1\n"


@pytest.mark.parametrize("command,spec,radius", [
    ("color", ["regular-ish", "130", "36", "--seed", "1"], "200"),
    ("order", ["regular-ish", "130", "36", "--seed", "1"], "200"),
    ("color", ["path", "3"], "2000"),
    ("color", ["complete", "2"], "1000000"),
], ids=["color-dense", "order-dense", "color-p3", "color-k2"])
def test_radius_past_float_range_refused(tmp_path, capsys, command, spec, radius):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", *spec, "--output", str(gpath)])
    capsys.readouterr()
    start = time.perf_counter()
    assert run_cli([command, "--input", str(gpath), "--r", radius,
                    "--seed", "1"]) == (2, "")
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().err == (
        f"error: headline bound overflows a float at r={radius}\n")


def test_experiment_radius_past_float_range_becomes_row():
    rows = run_experiment(parse_grid_lines(["regular-ish 130 36 200 1"]))
    assert rows[1][-1] == "error:PaletteError"


def test_order_lifts_radius_one_to_two(tmp_path):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "cycle", "9", "--output", str(gpath)])
    code, text = run_cli(["order", "--input", str(gpath), "--r", "1", "--seed", "4"])
    assert code == 0 and text.startswith("cert seed=4 r=2 ")


@pytest.mark.parametrize("spec,radius,seed,head,digest", [
    ("regular-ish 130 36 --seed 1", 1, 4, "cert seed=4 r=2 rounds=0 ",
     "73833090e060c6aba1e1e5083cd8a2635eb21d8133d4cff5fac605052745807e"),
    ("regular-ish 130 36 --seed 1", 2, 4, "cert seed=4 r=2 rounds=0 ",
     "73833090e060c6aba1e1e5083cd8a2635eb21d8133d4cff5fac605052745807e"),
    ("regular-ish 130 36 --seed 1", 3, 4, "cert seed=4 r=3 rounds=0 ",
     "88bae4ff24067e548b5d574ce694af9eee3846883c4cbdad3934149ca1be46f9"),
    ("path 600", 10, 1, "cert seed=1 r=10 rounds=15 ",
     "08ae10e33e54dbf57a901cd67d09cf6d8b25cd6937883d0a88d173d6f009d9bc"),
], ids=["dense-r1", "dense-r2", "dense-r3", "path-r10"])
def test_order_output_pinned(tmp_path, spec, radius, seed, head, digest):
    # the whole certificate: weights, rounds, threshold, ordering and checks
    gpath = tmp_path / "g.txt"
    run_cli(["gen", *spec.split(), "--output", str(gpath)])
    code, text = run_cli(["order", "--input", str(gpath), "--r", str(radius),
                          "--seed", str(seed)])
    assert code == 0 and text.startswith(head)
    assert hashlib.sha256(text.encode()).hexdigest() == digest


@pytest.mark.parametrize("extra,msg", [
    ("v 99 100000", "error: vertex 99 is not in the graph"),
    ("E 1 3 7", r"error: edge \(1, 3\) is not in the graph"),
    ("v 1 3", "error: line 13: duplicate 'v' record for 1"),
    ("E 2 1 9", r"error: line 13: duplicate 'E' record for \(1, 2\)"),
], ids=["foreign-vertex", "non-edge", "repeated-vertex", "repeated-edge"])
def test_verify_refuses_colouring_of_another_graph(tmp_path, capsys, extra, msg):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    run_cli(["gen", "path", "4", "--output", str(gpath)])
    run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "1",
             "--output", str(cpath)])
    assert len(cpath.read_text().splitlines()) == 12
    with open(cpath, "a", encoding="utf-8") as fh:
        fh.write(extra + "\n")
    capsys.readouterr()
    assert run_cli(["verify", "--input", str(gpath), "--colouring", str(cpath),
                    "--r", "2"]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(msg, err[0])


def test_exact_subcommand(tmp_path):
    gpath = tmp_path / "g.txt"
    gpath.write_text("p 2 1\ne 1 2\n")
    code, text = run_cli(["exact", "--input", str(gpath), "--r", "2",
                          "--limit", "5"])
    assert code == 0
    assert text.splitlines()[0] == "exact result=3"


def test_exact_subcommand_long_path(tmp_path):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "path", "600", "--output", str(gpath)])
    code, text = run_cli(["exact", "--input", str(gpath), "--r", "1",
                          "--limit", "4"])
    assert code == 0
    assert text.splitlines()[0] == "exact result=4"


def test_exact_subcommand_past_limit(tmp_path):
    # P3 at r = 1 needs 3 colours
    gpath = tmp_path / "g.txt"
    gpath.write_text("p 3 2\ne 1 2\ne 2 3\n")
    code, text = run_cli(["exact", "--input", str(gpath), "--r", "1",
                          "--limit", "2"])
    assert (code, text) == (0, "exact result=exceeds-limit limit=2\n")


def test_exact_subcommand_budget_refusal(monkeypatch, tmp_path, capsys):
    # K7 at r = 1 has no answer below the trial budget: a refusal, not an
    # hours-long search.  A smaller budget keeps the test quick; the CI's
    # console-script step runs K7 against the real one.
    monkeypatch.setattr(exact, "TRIAL_BUDGET", 10**4)
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "complete", "7", "--output", str(gpath)])
    code, text = run_cli(["exact", "--input", str(gpath), "--r", "1",
                          "--limit", "40"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("error: exact search ran out")


def test_emit_trace(tmp_path):
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.txt"
    run_cli(["gen", "path", "5", "--output", str(gpath)])
    code, _ = run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "2",
                       "--output", str(tmp_path / "c.txt"),
                       "--emit-trace", str(tpath)])
    assert code == 0
    trace = tpath.read_text().splitlines()
    assert trace[0].startswith("trace vertex_steps=5")
    assert sum(1 for line in trace if line.startswith("step ")) == 5
    assert not any(line.startswith("note ") for line in trace)


class _WeakStepLog(StepLog):
    __slots__ = ("__weakref__",)


class _WeakDict(dict):
    pass


@pytest.mark.parametrize("emit_trace", [False, True], ids=["plain", "emit-trace"])
def test_color_drops_run_records_before_formatting(tmp_path, monkeypatch, emit_trace):
    # recolour.run hands back weak-referenceable stand-ins for the step log
    # and the certificate's weights; both are gone by the time color formats
    # its colouring, and the files it writes are the unwrapped run's
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "regular-ish", "60", "6", "--seed", "1", "--output", str(gpath)])

    def color(tag):
        cpath, tpath = tmp_path / f"c-{tag}.txt", tmp_path / f"t-{tag}.txt"
        argv = ["color", "--input", str(gpath), "--r", "3", "--seed", "1",
                "--output", str(cpath)]
        code, text = run_cli(argv + ["--emit-trace", str(tpath)] if emit_trace else argv)
        assert code == 0 and text == ""
        return cpath.read_bytes(), tpath.read_bytes() if emit_trace else None

    expected = color("plain")
    real_run, real_format = recolour.run, files.format_colouring
    refs, alive = [], []

    def tracked_run(*args):
        col, trace, cert = real_run(*args)
        steps = _WeakStepLog()
        for field in StepLog.__slots__:
            setattr(steps, field, getattr(trace.steps, field))
        trace, cert = trace._replace(steps=steps), cert._replace(weights=_WeakDict(cert.weights))
        refs[:] = weakref.ref(steps), weakref.ref(cert.weights)
        return col, trace, cert

    def checked_format(*args):
        alive.append([ref() is not None for ref in refs])
        return real_format(*args)

    monkeypatch.setattr(recolour, "run", tracked_run)
    monkeypatch.setattr(files, "format_colouring", checked_format)
    assert color("wrapped") == expected
    assert alive == [[False, False]]


_STEP_LINE = re.compile(r"step v=(\d+) colour=(\d+) sum=(\d+) options=(\d+)x(\d+) "
                        r"backward=(\d+) edges=\[(.*)\] comps=\[(.*)\]")


def _parse_step(line):
    """A StepRecord read back from an --emit-trace step line."""
    v, colour, total, admissible, lattice, backward, edges, comps = (
        _STEP_LINE.fullmatch(line).groups())
    edge_deltas = []
    for item in filter(None, edges.split(";")):
        ends, delta = item.split(":")
        u, w = ends.split(",")
        edge_deltas.append(((int(u), int(w)), int(delta)))
    compensations = [(int(u), int(delta)) for u, delta in
                     (item.split(":") for item in filter(None, comps.split(";")))]
    return StepRecord(int(v), int(colour), int(total), edge_deltas, compensations,
                      int(admissible), int(lattice), int(backward))


@pytest.mark.parametrize("spec, radius", [
    (["path", "5"], 2), (["regular-ish", "130", "36"], 2), (["gnp", "40", "0.15"], 3)],
    ids=["path-r2", "regular-ish-r2", "gnp-r3"])
def test_emit_trace_round_trip(tmp_path, spec, radius):
    # the step lines read back are the run's records, and replayed over the
    # base edge colours they rebuild the written colouring, which verifies
    gpath, cpath, tpath = tmp_path / "g.txt", tmp_path / "c.txt", tmp_path / "trace.txt"
    run_cli(["gen", *spec, "--seed", "1", "--output", str(gpath)])
    code, _ = run_cli(["color", "--input", str(gpath), "--r", str(radius), "--seed", "1",
                       "--output", str(cpath), "--emit-trace", str(tpath)])
    assert code == 0
    g = files.parse_graph(str(gpath))
    steps = [_parse_step(line) for line in tpath.read_text().splitlines()
             if line.startswith("step ")]
    col, trace, _ = run(g, radius, 1)
    assert steps == list(trace.steps)
    base = base_total_colouring(g, col.params).edge_colours
    replayed = replay(g, RunTrace(steps, [], tuple(base[key] for key in g.edges), []))
    written = files.parse_colouring(str(cpath))[1]
    assert replayed.vertex_colours == written.vertex_colours
    assert replayed.edge_colours == written.edge_colours
    assert verify(g, replayed, radius).passed


def test_emit_trace_notes_radius_one(tmp_path):
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.txt"
    run_cli(["gen", "path", "5", "--output", str(gpath)])
    code, _ = run_cli(["color", "--input", str(gpath), "--r", "1", "--seed", "2",
                       "--output", str(tmp_path / "c.txt"),
                       "--emit-trace", str(tpath)])
    assert code == 0
    notes = [line for line in tpath.read_text().splitlines()
             if line.startswith("note ")]
    assert notes == ["note radius 1 run with radius-2 palette arithmetic"]


@pytest.mark.parametrize("graph,radius,expected", [
    ("complete 2", "2", ["note max degree 1 run with degree-2 palette arithmetic"]),
    ("complete 2", "1", ["note radius 1 run with radius-2 palette arithmetic",
                         "note max degree 1 run with degree-2 palette arithmetic"]),
    ("p 1 0", "2", ["note max degree 0 run with degree-2 palette arithmetic"]),
], ids=["k2-r2", "k2-r1", "k1-r2"])
def test_emit_trace_notes_degree_floor(tmp_path, graph, radius, expected):
    # a run below palette's (2, 2) floor notes each raised value, radius first
    gpath, tpath = tmp_path / "g.txt", tmp_path / "trace.txt"
    if graph.startswith("p "):
        gpath.write_text(graph + "\n")
    else:
        run_cli(["gen", *graph.split(), "--output", str(gpath)])
    code, _ = run_cli(["color", "--input", str(gpath), "--r", radius, "--seed", "2",
                       "--output", str(tmp_path / "c.txt"),
                       "--emit-trace", str(tpath)])
    assert code == 0
    notes = [line for line in tpath.read_text().splitlines()
             if line.startswith("note ")]
    assert notes == expected


def test_refused_run_exit_code_and_row(tmp_path, monkeypatch, capsys):
    forbid_every_base(monkeypatch)
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "cycle", "7", "--output", str(gpath)])
    capsys.readouterr()
    code, text = run_cli(["color", "--input", str(gpath), "--r", "2",
                          "--seed", "1"])
    err = capsys.readouterr().err.splitlines()
    assert (code, text) == (2, "")
    assert len(err) == 1 and err[0].startswith("error: vertex ")
    rows = run_experiment(parse_grid_lines(["cycle 7 2 1"]))
    assert rows[1][-1] == "error:RunError"


def test_table_past_limit_exit_code_and_row(tmp_path, monkeypatch, capsys):
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    run_cli(["gen", "path", "40", "--output", str(gpath)])
    g = generate.path(40)
    same = TotalColouring({v: 1 for v in g.vertices()}, {e: 2 for e in g.edges})
    cpath.write_text(files.format_colouring(g, same, {"n": g.n}))
    capsys.readouterr()
    monkeypatch.setattr(graphs, "MAX_TABLE_BYTES", 199)
    msg = ("error: an r-ball table on 40 vertices needs about 200 bytes, "
           "past the limit of 199\n")
    for argv in (["color", "--seed", "1"], ["order", "--seed", "1"],
                 ["verify", "--colouring", str(cpath)]):
        assert run_cli([*argv, "--input", str(gpath), "--r", "2"]) == (2, "")
        assert capsys.readouterr().err == msg
    rows = run_experiment(parse_grid_lines(["path 40 2 1"]))
    assert rows[1][-1] == "error:ValueError"


def test_out_of_memory_exit_code(tmp_path, monkeypatch, capsys):
    gpath = tmp_path / "g.txt"
    run_cli(["gen", "path", "4", "--output", str(gpath)])
    capsys.readouterr()

    def exhausted(*args, **kwargs):
        raise MemoryError

    monkeypatch.setattr(recolour, "run", exhausted)
    assert run_cli(["color", "--input", str(gpath), "--r", "2", "--seed", "1"]) == (2, "")
    assert capsys.readouterr().err == "error: out of memory\n"


def test_cli_import_leaves_out_dataclasses_and_inspect():
    code = ("import sys; before = set(sys.modules); import distsum.cli; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=src_env(), timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "[]\n"


def test_closed_stdout_exits_quietly():
    # stdout is a pipe whose reader is already gone, as after `| head -1`
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = src_env()
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "distsum.cli", "palette", "--delta", "3000",
             "--r", "2"], stdout=write_end, stderr=subprocess.PIPE, env=env,
            timeout=60)
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_reader_quitting_early_exits_141(unbuffered):
    # `distsum gen path 200000 | head -1`: the reader leaves mid-write, after
    # the pipe took part of the output
    env = src_env()
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "distsum.cli", "gen", "path", "200000"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    assert proc.stdout.readline() == b"p 200000 199999\n"
    proc.stdout.close()
    try:
        assert proc.wait(timeout=60) == 141
        assert proc.stderr.read() == b""
    finally:
        proc.kill()
        proc.stderr.close()


def test_parse_grid():
    grid = list(parse_grid_lines(["# demo", "gnp 30 0.1 2 4", "path 10 2 1"]))
    assert [row[:4] for row in grid] == [("gnp", ["30", "0.1"], 2, 4), ("path", ["10"], 2, 1)]
    # each row carries the graph `gen` builds from the same spec and seed
    assert [row[4].edges for row in grid] == [
        generate.gnp(30, 0.1, 4).edges, generate.path(10).edges]
    with pytest.raises(FormatError):
        list(parse_grid_lines(["blob 3 2 1"]))
    with pytest.raises(FormatError):
        list(parse_grid_lines(["gnp 30 2 1"]))


def test_grid_checks_syntax_first_and_builds_each_graph_at_its_row():
    # every line's syntax is checked before the first row is handed out
    rows = parse_grid_lines(["path 4 2 1", "path 4 x 1"])
    with pytest.raises(FormatError, match="^line 2: a grid row is"):
        next(rows)
    # a spec the generator refuses is found when its row is taken
    rows = parse_grid_lines(["path 4 2 1", "cycle 2 2 1", "path 5 2 1"])
    assert next(rows)[4].n == 4
    with pytest.raises(FormatError, match="^line 2: cycle needs n >= 3$"):
        next(rows)
    # and a row's graph is not kept once the next row is taken
    rows = parse_grid_lines(["path 4 2 1", "path 5 2 1"])
    first = next(rows)[4]
    assert next(rows)[4].n == 5
    assert sys.getrefcount(first) == 2  # `first` and the call's argument


GRID_ROW_SYNTAX = "a grid row is <kind> <size params...> <r> <seed>, with integer r and seed"


@pytest.mark.parametrize("lines,msg", [
    (["path 4 2 1", "blob 3 2 1"], "line 2: unknown graph kind 'blob'"),
    (["gnp 30 2 1"], "line 1: gnp takes 2 size parameters, got 1"),
    (["path 4 5 2 1"], "line 1: path takes 1 size parameters, got 2"),
    (["# grid", "path 4 x 1"], f"line 2: {GRID_ROW_SYNTAX}"),
    (["path 4 2 1.5"], f"line 1: {GRID_ROW_SYNTAX}"),
    (["path 4"], f"line 1: {GRID_ROW_SYNTAX}"),
    (["gnp 30 x 2 1"], "line 1: gnp takes int, float size parameters"),
    (["gnp 30 0.1x 2 1"], "line 1: gnp takes int, float size parameters"),
    (["gnp 30 1.5 2 1"], "line 1: p must lie in [0, 1]"),
    (["path 4 2 1", "cycle 2 2 1"], "line 2: cycle needs n >= 3"),
], ids=["unknown-kind", "too-few", "too-many", "non-integer-r", "non-integer-seed",
        "no-seed", "non-integer-size", "non-float-size", "p-above-one", "short-cycle"])
def test_parse_grid_errors(lines, msg):
    # the spec messages are generate.from_spec's own, as `gen` prints them
    with pytest.raises(FormatError) as exc:
        list(parse_grid_lines(lines))
    assert str(exc.value) == msg


def test_experiment_cli_grid_error_names_line(tmp_path, capsys):
    grid = tmp_path / "grid.txt"
    grid.write_text("path 8 2 1\npath x 2 1\n")
    assert run_cli(["experiment", "--grid", str(grid)]) == (2, "")
    assert capsys.readouterr().err == "error: line 2: path takes int size parameters\n"


@pytest.mark.parametrize("row", ["path 5 0 1", "path 5 -2 1"], ids=["zero", "negative"])
def test_experiment_cli_refuses_radius_below_one(tmp_path, capsys, row):
    # like color, order and verify: refused (exit 2) with its line, not a row
    grid = tmp_path / "grid.txt"
    grid.write_text(f"path 8 2 1\n{row}\n")
    assert run_cli(["experiment", "--grid", str(grid)]) == (2, "")
    assert capsys.readouterr().err == "error: line 2: radius must be >= 1\n"


def test_experiment_rows_and_determinism(tmp_path):
    lines = ["gnp 25 0.12 2 3", "cycle 9 2 1", "star 6 2 2"]
    rows = run_experiment(parse_grid_lines(lines))
    assert len(rows) == 4
    assert rows[0][0] == "kind"
    assert all(row[-1] == "pass" for row in rows[1:])
    # a second run builds its graphs afresh from the same specs
    assert run_experiment(parse_grid_lines(lines)) == rows


def test_experiment_empty_grid():
    rows = run_experiment([])
    assert len(rows) == 1


def test_experiment_cli(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("path 8 2 1\ncycle 5 2 2\n")
    code, text = run_cli(["experiment", "--grid", str(grid)])
    assert code == 0
    lines = text.splitlines()
    assert len(lines) == 3
    assert lines[0].split("\t")[0] == "kind"


def test_experiment_cli_refuses_bad_parameters(tmp_path, capsys):
    # refused with its line, as `gen` refuses it, and no row is printed
    grid = tmp_path / "grid.txt"
    grid.write_text("path 8 2 1\ngnp 30 1.5 2 1\n")
    assert run_cli(["experiment", "--grid", str(grid)]) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert err == ["error: line 2: p must lie in [0, 1]"]


@pytest.mark.parametrize("argv", [
    ["gen", "path"], ["gen", "gnp", "5"], ["gen", "path", "3", "9"],
    ["gen", "regular-ish", "10", "3", "4"],
], ids=["path-none", "gnp-one", "path-two", "regular-ish-three"])
def test_gen_refuses_wrong_parameter_count(argv, capsys):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith(f"error: {argv[1]} takes ")


@pytest.mark.parametrize("argv,msg", [
    (["gen", "star", "0"], "star needs at least one leaf"),
    (["gen", "gnp", "5", "1.5"], r"p must lie in \[0, 1\]"),
    (["gen", "regular-ish", "4", "4"], "need 1 <= d < n"),
    (["gen", "path", "x"], "path takes int size parameters"),
], ids=["star-no-leaf", "gnp-p-above-one", "regular-ish-d-equals-n", "path-not-int"])
def test_gen_refuses_bad_parameter_value(argv, msg, capsys):
    assert run_cli(argv) == (2, "")
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and re.fullmatch(f"error: {msg}", err[0])


def test_from_spec_refuses_unknown_kind():
    with pytest.raises(ValueError, match="unknown graph kind 'nope'"):
        generate.from_spec("nope", [], 0)


def test_gen_determinism():
    a = run_cli(["gen", "gnp", "40", "0.1", "--seed", "9"])
    b = run_cli(["gen", "gnp", "40", "0.1", "--seed", "9"])
    assert a == b


def test_experiment_table_pinned(tmp_path):
    grid = tmp_path / "grid.txt"
    grid.write_text("path 40 1 1\ncycle 31 2 2\ncomplete 9 3 3\nstar 12 2 4\n"
                    "gnp 50 0.12 1 5\ngnp 60 0.1 3 6\nregular-ish 60 6 2 7\n"
                    "regular-ish 130 36 2 1\n")
    code, text = run_cli(["experiment", "--grid", str(grid)])
    assert code == 0 and len(text.splitlines()) == 9
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ca864e2a672de53ab0710efc950bf974164367fc468c55fb2f2b1caaab3cac11")
