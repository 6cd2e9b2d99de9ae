"""Self-tests of the benchmark: its correctness gate, its tracer and its
refusal to run without the source tree.

    python3 -m pytest perfbench -q
"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path
from types import SimpleNamespace

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import setup_once  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture
def ds():
    return setup_once.load_distsum()


def small_graph_workload(ds, workdir):
    outcome = workloads.Outcome()
    workload = workloads.GraphFiles(40, 5, 2, 3, outcome)
    workload.setup(ds, workdir)
    return workload, outcome


def test_corrupted_edge_colour_raises_failed_share(ds, tmp_path):
    workload, outcome = small_graph_workload(ds, tmp_path)
    (_, color, check_color), (_, verify, check_verify) = workload.ops(ds)
    assert check_color(color()) is None
    assert check_verify(verify()) is None
    assert outcome.failed == 0

    # give one edge the colour of one of its endpoints
    path = Path(workload.colouring)
    lines = path.read_text().splitlines()
    vertex = {int(p[1]): p[2] for p in (line.split() for line in lines) if p[0] == "v"}
    i = next(i for i, line in enumerate(lines) if line.startswith("E "))
    _, u, v, _ = lines[i].split()
    lines[i] = f"E {u} {v} {vertex[int(u)]}"
    path.write_text("\n".join(lines) + "\n")

    verify_only = SimpleNamespace(ops=lambda ds: [("verify", verify, check_verify)])
    run.run_pass(verify_only, ds, outcome)
    assert outcome.failed == 1
    assert outcome.failed / outcome.attempted > 0


def test_tracer_wraps_and_restores(ds, tmp_path):
    workload, outcome = small_graph_workload(ds, tmp_path)
    targets = tracing.patch_targets(ds)
    originals = [table[key] for table, key in targets]

    tracer = tracing.Tracer()
    tracer.install(ds, 0)
    try:
        wrapped = [table[key] for table, key in targets]
        assert all(w is not o and w.__wrapped__ is o for w, o in zip(wrapped, originals))
        times = run.run_pass(workload, ds, outcome, tracer=tracer)
    finally:
        tracer.restore()

    assert [table[key] for table, key in targets] == originals
    assert outcome.failed == 0
    names = {span[0] for span in tracer.spans}
    assert {"cli.main", "cli.color", "cli.verify", "recolour.run",
            "base_colouring.base_total_colouring", "graphs.all_r_neighbourhoods",
            "ordering.resample_until_valid", "verify.verify"} <= names
    assert tracing.coverage_problems(tracer, [times], run.COVERAGE) == []
    metrics = tracing.layer_metrics(tracer, 1)
    assert metrics["graphs.r_neighbourhoods_calls"][0] == 2
    assert metrics["recolour.steps"][0] == 40

    path = tmp_path / "spans.jsonl"
    tracer.write_spans(path)
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == len(tracer.spans)
    assert {s["op"] for s in spans} == {"color", "verify"}
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        if s["parent"] is not None:
            parent = by_id[s["parent"]]
            assert parent["start"] <= s["start"] <= s["end"] <= parent["end"]
    roots = [s for s in spans if s["parent"] is None]
    assert [s["name"] for s in roots] == ["cli.main", "cli.main"]


def test_coverage_check_fails_on_untraced_work(ds):
    def mostly_outside():
        time.sleep(0.02)  # work no wrapper sees
        return ds.palette.compute_params(10, 2)

    busy = SimpleNamespace(ops=lambda ds: [("outside", mostly_outside, lambda _: None)])
    tracer = tracing.Tracer()
    tracer.install(ds, 0)
    try:
        times = run.run_pass(busy, ds, workloads.Outcome(), tracer=tracer)
    finally:
        tracer.restore()
    problems = tracing.coverage_problems(tracer, [times], run.COVERAGE)
    assert len(problems) == 1 and "outside" in problems[0]

    # a root span longer than its operation's measured time
    tracer.spans.append(["cli.main", None, 0.0, 10.0, 0, "outside"])
    problems = tracing.coverage_problems(tracer, [times], 0.0)
    assert "outlasts" in problems[0] and "cover" in problems[1]


def test_tracer_restores_after_an_error(ds):
    originals = [table[key] for table, key in tracing.patch_targets(ds)]
    tracer = tracing.Tracer()
    tracer.install(ds, 0)
    try:
        with pytest.raises(ds.palette.PaletteError):
            ds.palette.compute_params(1, 2)
    finally:
        tracer.restore()
    assert [table[key] for table, key in tracing.patch_targets(ds)] == originals
    assert tracing.layer_metrics(tracer, 1)["palette.errors"][0] == 1


def test_palette_check_matches_element_wise_check(ds):
    for delta, radius in [(2, 2), (37, 2), (1000, 2), (250, 3), (999, 4)]:
        p = ds.palette.compute_params(delta, radius)
        assert ds.palette.check_disjoint_shifts(p)[0]
        assert workloads.palette_problem(delta, radius, p.step, p.modulus,
                                         p.size, list(p.intervals)) is None
    p = ds.palette.compute_params(1000, 2)
    lo, hi = p.intervals[0]
    assert not workloads.shifted_blocks_disjoint(p.step, p.modulus,
                                                 [(lo, hi), (lo + 1, lo + 1)])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", workloads.NAMES)
def test_short_run_prints_result(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "5",
         "--seconds", "0.2", "--trace", str(trace)],
        capture_output=True, text=True, timeout=120, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    names = {m["name"] for m in expected["per_layer" if trace else "end_to_end"]}
    assert set(result["metrics"]) == names


def test_without_the_source_tree_the_run_fails(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "dense-r2", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=120, cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
