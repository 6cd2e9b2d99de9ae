"""Run the benchmark over several seeds and report each metric's median and
quartile spread, one process per run.

    python3 perfbench/spread.py --seeds 1-10 [--workloads a,b] [--trace 0|1]
                                [--seconds S] [--out FILE]

Workloads default to all of them and seconds to BENCHMARK.json's
run_seconds.  The spread of a metric is (Q3 - Q1) / median over its values,
with the quartiles of `statistics.quantiles(values, n=4)`; it is compared
with a third of the metric's bound.  Every run is printed as it finishes.
--out writes the medians, quartiles and colouring digests as JSON.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def one_run(workload, seed, seconds, trace):
    """Returns the run's result object, its colouring digest and its wall time."""
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900, cwd=ROOT)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    digest = next(line.split("sha256=")[1] for line in lines if line.startswith("digest "))
    return json.loads(lines[-1]), digest, time.perf_counter() - start


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    summary = {"seconds": args.seconds, "seeds": args.seeds, "trace": args.trace,
               "host": {"machine": platform.machine(), "cpus": os.cpu_count(),
                        "python": platform.python_version()},
               "workloads": {}}
    steady = True
    for workload in args.workloads.split(","):
        values, digests, failed = {}, {}, 0
        for seed in args.seeds:
            result, digests[seed], wall = one_run(workload, seed, args.seconds, args.trace)
            failed += result["failed"] + (not result["correct"])
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            print(workload, seed, f"wall={wall:.1f}s", " ".join(
                f"{k}={m['value']:.6g}" for k, m in result["metrics"].items()), flush=True)
        rows = {}
        for name, vals in values.items():
            q1, q2, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else vals * 3
            share = (q3 - q1) / q2 if q2 else 0.0
            rows[name] = {"median": q2, "q1": q1, "q3": q3, "spread": share}
            bound = bounds.get(name) if not args.trace else None
            verdict = ""
            if bound is not None:
                ok = share < bound / 3
                steady &= ok
                verdict = "ok" if ok else f"SPREAD ABOVE {bound / 3:.3f}"
            print(f"  {workload:14} {name:32} median={q2:<12.6g} spread={share:.4f} {verdict}")
        if failed:
            steady = False
            print(f"  {workload}: {failed} failed operations or incorrect runs")
        summary["workloads"][workload] = {"metrics": rows, "digests": digests}
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
