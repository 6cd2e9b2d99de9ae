"""Benchmark for the distsum colouring pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
`src/`, never from an installed copy, and the run exits 2 when `src/distsum`
is missing.  One process, one thread, one workload; a closed loop with one
client, because distsum is a batch tool.  Workloads are described in
`perfbench/workloads.py`.

Set-up (import distsum and everything it pulls in, in a fresh interpreter,
then generate and write the inputs) is timed by `perfbench/setup_once.py`
in a child process, SETUP_REPEATS times spread evenly over the run, between
passes; its median is reported as `setup_s`.  The run itself sets up once,
untimed, then makes one warm-up pass, then passes for S seconds of wall
time.  Only the program's operations are timed; every output is
checked after its operation and a failed check counts the operation as
failed.

--trace 0 prints the end-to-end metrics:
  pass_best_ms  wall time of one pass over the workload's inputs: each
                operation's fastest time over the passes, summed
  peak_rss_mb   peak resident set of this process after the timed passes;
                on small inputs it is mostly the interpreter and imports
  peak_heap_mb  largest growth of the Python heap during one operation,
                from one further pass under tracemalloc (untimed); it
                follows the memory of the graph tables and colourings
  setup_s       median set-up time
The median and 90th percentile of whole-pass times, the sample count and
the operations completed per second are printed too, but not gated.  On
a shared 2-core host other tenants slow single passes by up to half and
the slow share drifts over minutes: over five 30 s runs of dense-r2 the
per-operation medians summed moved between 153 and 193 ms, the fastest
times between 117 and 125 ms.  Contention only adds time, so the fastest
pass is the figure that follows the program.

--trace 1 alternates an untraced and a traced pass over the same inputs
and prints the per-layer metrics of `perfbench/tracing.py`, per traced
pass, plus trace.wall_s (traced pass), trace.untraced_wall_s and
trace.overhead_s (median of traced minus untraced, pass by pass).  The
spans of every traced pass are written to
`.bench_build/spans-WORKLOAD-SEED.jsonl` in the checkout.  Each traced
operation's root spans must lie within its time and cover at least
COVERAGE of it, or the run is not correct.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import setup_once  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = HERE.parent
SETUP_REPEATS = 15
COVERAGE = 0.5


def run_pass(workload, ds, outcome, tracer=None, heap=None):
    """Run one pass; returns the seconds each operation spent inside the
    program, by operation key.  With a tracer, its spans are labelled with
    the operation; with a `heap` list (tracemalloc running), each
    operation's peak heap growth in bytes is appended to it."""
    times = {}
    for key, op, check in workload.ops(ds):
        if tracer is not None:
            tracer.op = key
        if heap is not None:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
        problem = None
        start = perf_counter()
        try:
            result = op()
        except Exception as exc:  # noqa: BLE001 - a raising operation is a failure
            problem = f"raised {type(exc).__name__}: {exc}"
        times[key] = perf_counter() - start
        if heap is not None:
            heap.append(tracemalloc.get_traced_memory()[1] - base)
        if problem is None:
            try:
                problem = check(result)
            except Exception as exc:  # noqa: BLE001 - an unreadable output is a failure
                problem = f"output unreadable: {type(exc).__name__}: {exc}"
        outcome.record(key, problem)
    return times


def percentile(values, q):
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


class SetupTimer:
    """Set-up seconds, each from a fresh interpreter (`setup_once.py`),
    taken between passes and spread evenly over the run: the host's speed
    drifts over tens of seconds, and set-ups timed back to back would all
    see one moment of it.  A fresh interpreter is slowed by other tenants
    more than a warm pass is, so setup_s still spreads by 0.1-0.3 over
    ten runs, where pass_best_ms spreads by under 0.1."""

    def __init__(self, name, seed, workdir, seconds):
        self.argv = [sys.executable, str(HERE / "setup_once.py"), name, str(seed), workdir]
        self.interval = seconds / SETUP_REPEATS
        self.times = []

    def take(self, elapsed=float("inf")):
        """Take the set-ups due `elapsed` seconds into the run."""
        while len(self.times) < min(SETUP_REPEATS, 1 + elapsed // self.interval):
            proc = subprocess.run(self.argv, capture_output=True, text=True,
                                  timeout=120, cwd=ROOT)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up exited {proc.returncode}: {proc.stderr.strip()}")
            self.times.append(float(proc.stdout.split()[-1]))


def measure(workload, ds, seconds, outcome, setups, tracer=None):
    """Passes for `seconds` of wall time, after one warm-up pass, with the
    set-ups taken between them.  With a tracer, each pass runs untraced and
    then traced.  Returns the untraced and the traced passes, each as its
    operation times by key."""
    run_pass(workload, ds, outcome)
    plain, traced = [], []
    start = perf_counter()
    while perf_counter() - start < seconds or not plain:
        setups.take(perf_counter() - start)
        plain.append(run_pass(workload, ds, outcome))
        if tracer is not None:
            tracer.install(ds, len(traced))
            try:
                traced.append(run_pass(workload, ds, outcome, tracer=tracer))
            finally:
                tracer.restore()
    setups.take()
    return plain, traced


def heap_pass(workload, ds, outcome):
    """Largest heap growth of one operation, in bytes, over one pass run
    under tracemalloc."""
    heap = []
    tracemalloc.start()
    try:
        run_pass(workload, ds, outcome, heap=heap)
    finally:
        tracemalloc.stop()
    return max(heap)


def best_pass(passes):
    """Each operation's fastest time, summed over one pass.  Per operation,
    so that a long pass (the sweep's takes seconds) needs no pass free of
    contention from end to end."""
    return sum(min(p[key] for p in passes) for key in passes[0])


def per_layer(plain, traced, tracer):
    plain_s = [sum(p.values()) for p in plain]
    traced_s = [sum(p.values()) for p in traced]
    metrics = tracing.layer_metrics(tracer, len(traced))
    metrics["trace.wall_s"] = (statistics.fmean(traced_s), "s/pass")
    metrics["trace.untraced_wall_s"] = (statistics.fmean(plain_s), "s/pass")
    metrics["trace.overhead_s"] = (
        statistics.median(t - p for p, t in zip(plain_s, traced_s)), "s/pass")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "distsum" / "__init__.py").is_file():
        print(f"error: no distsum source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    outcome = workloads.Outcome()
    workload = workloads.make(args.workload, args.seed, outcome)
    scratch = ROOT / ".bench_work"
    scratch.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=scratch)
    tracer = tracing.Tracer() if args.trace else None
    try:
        setups = SetupTimer(args.workload, args.seed, tempfile.mkdtemp(dir=workdir),
                            args.seconds)
        ds = setup_once.load_distsum()
        workload.setup(ds, workdir)
        originals = [table[key] for table, key in tracing.patch_targets(ds)]
        plain, traced = measure(workload, ds, args.seconds, outcome, setups, tracer)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer is None:
            heap_mb = heap_pass(workload, ds, outcome) / 2 ** 20
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            scratch.rmdir()
        except OSError:
            pass  # another run is still using it

    correct = outcome.failed == 0
    if [table[key] for table, key in tracing.patch_targets(ds)] != originals:
        outcome.messages.append("tracing left a wrapper in place")
        correct = False
    if tracer is None:
        metrics = {
            "pass_best_ms": (best_pass(plain) * 1000, "ms"),
            "peak_rss_mb": (rss_mb, "MB"),
            "peak_heap_mb": (heap_mb, "MB"),
            "setup_s": (statistics.median(setups.times), "s"),
        }
    else:
        metrics = per_layer(plain, traced, tracer)
        problems = tracing.coverage_problems(tracer, traced, COVERAGE)
        outcome.messages += problems[:10]
        correct &= not problems
        spans = ROOT / ".bench_build" / f"spans-{args.workload}-{args.seed}.jsonl"
        spans.parent.mkdir(exist_ok=True)
        tracer.write_spans(spans)
        print(f"spans {args.workload} {len(tracer.spans)} written to "
              f"{spans.relative_to(ROOT)}")

    print(f"workload {args.workload} seed={args.seed} passes={len(plain)} "
          f"operations={outcome.attempted} failed={outcome.failed} "
          f"failed_share={outcome.failed / outcome.attempted:.4f} "
          f"refused={outcome.refused} fallbacks={outcome.fallbacks} "
          f"max_colour_ratio={outcome.max_colour_ratio:.4f}")
    pass_s = [sum(p.values()) for p in plain]
    print(f"passes {args.workload} samples={len(plain)} "
          f"median_ms={statistics.median(pass_s) * 1000:.3f} "
          f"p90_ms={percentile(pass_s, 0.9) * 1000:.3f} "
          f"items_per_s={len(plain) * len(plain[0]) / sum(pass_s):.3f} "
          f"setup_samples={len(setups.times)}")
    print(f"digest {args.workload} seed={args.seed} sha256={outcome.digest()}")
    for message in outcome.messages:
        print(f"failure {message}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": correct,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
