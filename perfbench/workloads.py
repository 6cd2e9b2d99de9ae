"""The benchmark's workloads: inputs made from a seed, and the operations of
one pass over them.

A workload's `setup` writes its input files (or builds its instances); its
`ops(ds)` lists the operations of one pass, each as (item key, operation,
check).  The runner times the operations only; a check reads the result
afterwards and returns None or a failure message, without calling into the
program, so traced passes hold no spans outside the timed operations.

Workloads (sizes chosen so one pass takes about 0.1-0.25 s on a 2-core
x86-64 container, except the sweep, whose pass takes about 2-4 s).
BENCHMARK.json gates dense-r2, ball-r3 and palette-wide.  sweep-checked
is for contrast runs (`spread.py --workloads sweep-checked`): a run holds
only about ten of its passes, too few for a steady fastest time (five 20 s
runs spread by 0.25), and its warm-up and tracemalloc passes make a run
last almost three times its length.

* dense-r2: colour and verify regular-ish 130 36 at r=2 through the CLI.
  Misra-Gries base colouring and the verifier's incident-pair loop do most
  of the work.
* ball-r3: colour and verify regular-ish 600 6 at r=3 through the CLI.
  The r-ball tables (built twice per run) and the verifier's BFS do most
  of the work; base colouring is a small share.
* sweep-checked: 200 instances shaped like the acceptance sweep (paths,
  cycles, stars, complete graphs, gnp; n <= 60, max degree <= 25,
  r in {1, 2, 3}) through run(check_invariants=True), replay and verify.
  A pass is the whole suite, so every pass costs the same.  The two
  max-degree-1 instances use up the ordering's resampling budget.
* palette-wide: `distsum palette` at about (10^3, 2), (2*10^4, 3) and
  (10^5, 2), plus compute_params alone at about (10^9, 8), (10^12, 6) and
  (10^15, 5), which the palette arithmetic refuses today.  A refusal is an
  allowed answer, so it is counted (refused, palette.errors), not failed.
  Larger palette calls are left out: the element-wise disjointness check
  grows linearly in memory, about 80 MB at 10^5 and 713 MB at 2*10^6, and
  `palette --delta 20000000` would need about 7 GB.
Every degree and seed is offset by the workload seed.
"""

from __future__ import annotations

import hashlib
import io
import random
from pathlib import Path


def _digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def colouring_text(g, colouring):
    """The vertex and edge records of a colouring file, built here so the
    digest does not depend on the program's own formatter."""
    lines = [f"v {v} {colouring.vertex_colours[v]}" for v in g.vertices()]
    lines += [f"E {u} {v} {colouring.edge_colours[(u, v)]}" for u, v in g.edges]
    return "\n".join(lines) + "\n"


class Outcome:
    """What one run saw: operations attempted and failed, refusals, digests,
    and the outcome figures read off the outputs."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.refused = 0
        self.messages = []
        self.digests = {}
        self.fallbacks = 0
        self.max_colour_ratio = 0.0

    def record(self, key, problem):
        self.attempted += 1
        if problem is not None:
            self.failed += 1
            if len(self.messages) < 10:
                self.messages.append(f"{key}: {problem}")

    def same_output(self, key, text):
        """None when `text` matches the first output seen for `key`."""
        digest = _digest(text)
        first = self.digests.setdefault(key, digest)
        return None if digest == first else "output differs from an earlier pass"

    def colour_ratio(self, max_colour, palette_max):
        self.max_colour_ratio = max(self.max_colour_ratio, max_colour / palette_max)

    def digest(self):
        return _digest("".join(f"{k} {d}\n" for k, d in sorted(self.digests.items())))


class GraphFiles:
    """`distsum color` then `distsum verify` on one generated graph file."""

    def __init__(self, n, degree, radius, seed, outcome):
        self.spec = ["regular-ish", str(n), str(degree)]
        self.radius = str(radius)
        self.seed = str(seed)
        self.outcome = outcome
        self.palette_max = None

    def setup(self, ds, workdir):
        self.graph = str(Path(workdir) / "graph.txt")
        self.colouring = str(Path(workdir) / "colouring.txt")
        rc = ds.cli.main(["gen", *self.spec, "--seed", self.seed,
                          "--output", self.graph], out=io.StringIO())
        if rc != 0:
            raise RuntimeError(f"distsum gen exited {rc}")

    def ops(self, ds):
        def color():
            return ds.cli.main(["color", "--input", self.graph, "--r", self.radius,
                                "--seed", self.seed, "--output", self.colouring],
                               out=io.StringIO())

        def verify():
            out = io.StringIO()
            return ds.cli.main(["verify", "--input", self.graph, "--colouring",
                                self.colouring, "--r", self.radius], out=out), out

        return [("color", color, self.check_color),
                ("verify", verify, self.check_verify)]

    def check_color(self, rc):
        if rc != 0:
            return f"color exited {rc}"
        with open(self.colouring, encoding="utf-8") as fh:
            text = fh.read()
        meta = dict(token.split("=", 1) for token in text.split("\n", 1)[0].split()[1:])
        self.palette_max = int(meta["palette_max"])
        self.outcome.fallbacks += int(meta["fallbacks"])
        return self.outcome.same_output("colouring", text)

    def check_verify(self, result):
        rc, out = result
        first = out.getvalue().split("\n", 1)[0]
        if rc != 0 or not first.startswith("verify pass=true "):
            return f"verify exited {rc}: {first}"
        if self.palette_max is not None:
            fields = dict(token.split("=", 1) for token in first.split()[1:])
            self.outcome.colour_ratio(int(fields["max_colour"]), self.palette_max)
        return None


def sweep_instances(gen, seed):
    """200 instances shaped like the acceptance sweep, at n <= 60.

    Family sizes and radii follow tests/test_acceptance.py; the gnp graphs
    and every run seed are offset by the workload seed.
    """
    rs = [1, 2, 3]
    out = []
    for i, n in enumerate([4, 7, 12, 18, 25, 33, 42, 51, 60]):
        out.append((f"path-{n}", gen.path(n), rs[i % 3], 11 + i))
    for i, n in enumerate([3, 6, 11, 17, 24, 32, 41, 50, 60]):
        out.append((f"cycle-{n}", gen.cycle(n), rs[i % 3], 23 + i))
    for leaves in range(1, 26):
        out.append((f"star-{leaves}", gen.star(leaves), rs[leaves % 3], 37 + leaves))
    for n in range(2, 27):
        out.append((f"complete-{n}", gen.complete(n), rs[n % 3], 53 + n))
    sizes = [20, 30, 40, 50, 60]
    avgs = [3, 6, 9]
    for i in range(132):
        n = sizes[i % 5]
        g = gen.gnp(n, avgs[i % 3] / (n - 1), 1000 * seed + i)
        out.append((f"gnp-{n}-{i}", g, rs[i % 3], 101 + i))
    return [(name, g, radius, run_seed + seed) for name, g, radius, run_seed in out]


class Sweep:
    """Checked runs, replay and verification of small instances."""

    def __init__(self, seed, outcome):
        self.seed = seed
        self.outcome = outcome

    def setup(self, ds, workdir):
        self.suite = sweep_instances(ds.generate, self.seed)

    def ops(self, ds):
        def instance(g, radius, seed):
            def op():
                colouring, trace, _ = ds.recolour.run(g, radius, seed,
                                                      check_invariants=True)
                replayed = ds.recolour.replay(g, trace)
                return colouring, trace, replayed, ds.verify.verify(g, colouring, radius)
            return op

        return [(name, instance(g, radius, seed),
                 lambda result, name=name, g=g: self.check(name, g, result))
                for name, g, radius, seed in self.suite]

    def check(self, name, g, result):
        colouring, trace, replayed, report = result
        self.outcome.fallbacks += trace.fallback_count
        self.outcome.colour_ratio(colouring.max_colour(), colouring.params.palette_max)
        if trace.invariant_violations:
            return f"invariant violation: {trace.invariant_violations[0]}"
        if (replayed.vertex_colours != colouring.vertex_colours
                or replayed.edge_colours != colouring.edge_colours):
            return "replay differs from the colouring"
        if not report.passed:
            return f"verify failed: {report.violations[0]}"
        return self.outcome.same_output(name, colouring_text(g, colouring))


def shifted_blocks_disjoint(step, modulus, intervals):
    """Independent check that the shifted sets of distinct edge-palette
    elements are disjoint modulo `modulus`.

    The shifts of a block [lo, hi] are the intervals [lo + j*step,
    hi + j*step], j = -1..2; taken modulo `modulus`, the distinct ones must
    not overlap.
    """
    pieces = []
    for lo, hi in intervals:
        if hi - lo >= modulus:
            return False
        # shifts that coincide modulo `modulus` map an element onto itself
        for shift in {j * step % modulus for j in (-1, 0, 1, 2)}:
            a, b = (lo + shift) % modulus, (hi + shift) % modulus
            pieces += [(a, b)] if a <= b else [(a, modulus - 1), (0, b)]
    pieces.sort()
    return all(prev[1] < cur[0] for prev, cur in zip(pieces, pieces[1:]))


def palette_problem(delta, radius, step, modulus, size, intervals):
    """None when the palette parameters satisfy their defining relations."""
    floor = delta ** (radius - 1) + 6 * delta + step
    if modulus % step or not floor <= modulus < floor + step:
        return f"modulus {modulus} is not the least multiple of {step} from {floor}"
    if size != delta + 1 or sum(hi - lo + 1 for lo, hi in intervals) != size:
        return f"edge palette has {size} elements, want {delta + 1}"
    if intervals[0][0] <= modulus or intervals[-1][1] > modulus + 4 * delta + 1:
        return "edge palette leaves its window"
    if not shifted_blocks_disjoint(step, modulus, intervals):
        return "shifted edge-palette sets overlap"
    return None


class Palette:
    """`distsum palette` calls plus compute_params probes at huge degrees."""

    CALLS = ((10 ** 3, 2), (2 * 10 ** 4, 3), (10 ** 5, 2))
    PROBES = ((10 ** 9, 8), (10 ** 12, 6), (10 ** 15, 5))

    def __init__(self, seed, outcome):
        rng = random.Random(seed)
        self.calls = [(d + rng.randrange(1000), r) for d, r in self.CALLS]
        self.probes = [(d + rng.randrange(1000), r) for d, r in self.PROBES]
        self.outcome = outcome

    def setup(self, ds, workdir):
        pass

    def ops(self, ds):
        def palette(delta, radius):
            def op():
                out = io.StringIO()
                return ds.cli.main(["palette", "--delta", str(delta),
                                    "--r", str(radius)], out=out), out
            return op

        def probe(delta, radius):
            def op():
                try:
                    return ds.palette.compute_params(delta, radius)
                except ds.palette.PaletteError as exc:
                    return exc
            return op

        ops = [(f"palette-{d}-{r}", palette(d, r),
                lambda res, key=f"palette-{d}-{r}", d=d, r=r: self.check_call(key, d, r, res))
               for d, r in self.calls]
        ops += [(f"params-{d}-{r}", probe(d, r),
                 lambda res, d=d, r=r: self.check_probe(d, r, res))
                for d, r in self.probes]
        return ops

    def check_call(self, key, delta, radius, result):
        rc, out = result
        text = out.getvalue()
        first = text.split("\n", 1)[0]
        if rc != 0 or not first.endswith(" shifts_disjoint=true"):
            return f"palette exited {rc}: {first}"
        f = dict(token.split("=", 1) for token in first.split()[1:])
        intervals = [tuple(int(x) for x in line[len("interval"):].strip(" []").split(","))
                     for line in text.splitlines() if line.startswith("interval ")]
        return (palette_problem(delta, radius, int(f["step"]), int(f["modulus"]),
                                int(f["size"]), intervals)
                or self.outcome.same_output(key, text))

    def check_probe(self, delta, radius, result):
        if isinstance(result, Exception):
            # a clear refusal is an allowed answer; it is counted, not failed
            self.outcome.refused += 1
            return None
        return palette_problem(delta, radius, result.step, result.modulus,
                               result.size, list(result.intervals))


def make(name, seed, outcome):
    if name == "dense-r2":
        return GraphFiles(130, 36, 2, seed, outcome)
    if name == "ball-r3":
        return GraphFiles(600, 6, 3, seed, outcome)
    if name == "sweep-checked":
        return Sweep(seed, outcome)
    if name == "palette-wide":
        return Palette(seed, outcome)
    raise KeyError(name)


NAMES = ("dense-r2", "ball-r3", "sweep-checked", "palette-wide")
