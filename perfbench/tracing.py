"""Layer spans recorded from outside the program.

Each public function at a layer boundary is replaced, for the length of
one traced pass, by a wrapper installed where its caller looks it up
(`recolour.base_total_colouring`, `ordering.all_r_neighbourhoods`,
`cli.verify`, ...).  The wrapper records a span (name, parent, start,
end, pass id, operation) in memory and, after the call, adds the work
counts it can read off the arguments and the returned object.
`Tracer.restore` puts every original back; `Tracer.write_spans` writes
the spans out as JSON lines at the end of a run.
"""

from __future__ import annotations

import json
import os
from collections import Counter, defaultdict
from time import perf_counter


def _ball_entries(tracer, args, result):
    tracer.counts["graphs.ball_entries"] += sum(len(nbrs) for nbrs in result)


def _certificate(tracer, args, cert):
    tracer.counts["ordering.rounds"] += cert.resample_rounds
    tracer.counts["ordering.invalid_certificates"] += not cert.valid


def _base_edges(tracer, args, colouring):
    tracer.counts["base_colouring.edges"] += len(colouring.edge_colours)


def _run_trace(tracer, args, result):
    colouring, trace, _ = result
    counts = tracer.counts
    counts["recolour.steps"] += len(trace.steps)
    counts["recolour.edge_alterations"] += sum(len(s.edge_deltas) for s in trace.steps)
    counts["recolour.invariant_violations"] += len(trace.invariant_violations)
    counts["recolour.fallbacks"] += trace.fallback_count
    # options available (admissible base residues x lattice offsets) against
    # the sums already taken in the r-neighbourhood
    for s in trace.steps:
        if s.backward_r_count:
            tracer.low("recolour.min_margin",
                       s.admissible_count * s.lattice_size / s.backward_r_count)
    tracer.high("recolour.max_colour_ratio",
                colouring.max_colour() / colouring.params.palette_max)


def _incident_pairs(tracer, args, report):
    g = args[0]
    tracer.counts["verify.incident_pairs"] += sum(
        len(a) * (len(a) - 1) // 2 for a in g.adjacency)


def _elements_checked(tracer, args, result):
    tracer.counts["palette.elements_checked"] += 4 * args[0].size


def _bytes_read(tracer, args, result):
    tracer.counts["files.bytes"] += os.path.getsize(args[0])


def _bytes_written(tracer, args, text):
    tracer.counts["files.bytes"] += len(text.encode())


# (module, attribute, span name, counter).  One function is patched at every
# module that imports it by name, because that is where its callers look.
PATCHES = (
    ("cli", "main", "cli.main", None),
    ("cli", "compute_params", "palette.compute_params", None),
    ("cli", "check_disjoint_shifts", "palette.check_disjoint_shifts", _elements_checked),
    ("cli", "verify", "verify.verify", _incident_pairs),
    ("palette", "compute_params", "palette.compute_params", None),
    ("files", "parse_graph", "files.parse_graph", _bytes_read),
    ("files", "parse_colouring", "files.parse_colouring", _bytes_read),
    ("files", "format_colouring", "files.format_colouring", _bytes_written),
    ("recolour", "run", "recolour.run", _run_trace),
    ("recolour", "replay", "recolour.replay", None),
    ("recolour", "compute_params", "palette.compute_params", None),
    ("recolour", "resample_until_valid", "ordering.resample_until_valid", _certificate),
    ("recolour", "all_r_neighbourhoods", "graphs.all_r_neighbourhoods", _ball_entries),
    ("recolour", "degree_stats", "graphs.degree_stats", None),
    ("recolour", "base_total_colouring", "base_colouring.base_total_colouring", _base_edges),
    ("ordering", "all_r_neighbourhoods", "graphs.all_r_neighbourhoods", _ball_entries),
    ("ordering", "degree_stats", "graphs.degree_stats", None),
    ("ordering", "backward_stats", "graphs.backward_stats", None),
    ("ordering", "ball", "graphs.ball", None),
    ("graphs", "all_r_neighbourhoods", "graphs.all_r_neighbourhoods", _ball_entries),
    ("graphs", "degree_stats", "graphs.degree_stats", None),
    ("verify", "verify", "verify.verify", _incident_pairs),
)

# cli.main dispatches through this table, so the subcommands are patched
# in it rather than as module attributes.
COMMAND_SPANS = {"color": "cli.color", "verify": "cli.verify", "palette": "cli.palette"}


def patch_targets(ds):
    """Every (container, key) the tracer replaces, for identity checks."""
    targets = [(vars(getattr(ds, mod)), attr) for mod, attr, _, _ in PATCHES]
    targets += [(ds.cli.COMMANDS, cmd) for cmd in COMMAND_SPANS]
    return targets


class Tracer:
    """Spans and counts for the traced passes of one run."""

    def __init__(self):
        self.spans = []          # [name, parent index or None, start, end, pass id, op]
        self.counts = Counter()
        self.extremes = {}       # name -> smallest or largest value seen
        self.pass_id = None
        self.op = None           # key of the operation running, set by the runner
        self._stack = []
        self._saved = []

    def low(self, name, value):
        old = self.extremes.get(name)
        self.extremes[name] = value if old is None else min(old, value)

    def high(self, name, value):
        old = self.extremes.get(name)
        self.extremes[name] = value if old is None else max(old, value)

    def wrap(self, name, fn, count):
        def traced(*args, **kwargs):
            index = len(self.spans)
            parent = self._stack[-1] if self._stack else None
            span = [name, parent, perf_counter(), None, self.pass_id, self.op]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                self.counts[name + ".errors"] += 1
                raise
            finally:
                span[3] = perf_counter()
                self._stack.pop()
            if count is not None:
                count(self, args, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, ds, pass_id):
        """Wrap every layer boundary of the loaded package `ds`."""
        self.pass_id = pass_id
        for mod, attr, name, count in PATCHES:
            table = vars(getattr(ds, mod))
            self._saved.append((table, attr, table[attr]))
            table[attr] = self.wrap(name, table[attr], count)
        for cmd, name in COMMAND_SPANS.items():
            table = ds.cli.COMMANDS
            self._saved.append((table, cmd, table[cmd]))
            table[cmd] = self.wrap(name, table[cmd], None)

    def restore(self):
        for table, key, original in reversed(self._saved):
            table[key] = original
        self._saved.clear()

    def write_spans(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            for i, (name, parent, start, end, pass_id, op) in enumerate(self.spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "pass": pass_id, "op": op, "start": start,
                                     "end": end}) + "\n")

    def self_times(self):
        """Per span name: (calls, inclusive seconds, self seconds).

        Self time is a span's duration minus the durations of its direct
        children; one thread, so children never overlap.
        """
        child = [0.0] * len(self.spans)
        for name, parent, start, end, *_ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = defaultdict(lambda: [0, 0.0, 0.0])
        for i, (name, _, start, end, *_) in enumerate(self.spans):
            row = out[name]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child[i]
        return out


def _layer_self(times, layer):
    return sum(row[2] for name, row in times.items() if name.startswith(layer + "."))


def layer_metrics(tracer, passes):
    """Per-layer metric name -> (value per traced pass, unit), over `passes`
    traced passes.  Margins and ratios are extremes, not per-pass values;
    counts with unit "computed/pass" are derived from input sizes, not
    observed work."""
    times = tracer.self_times()
    counts = tracer.counts

    def self_s(name):
        return times[name][2] / passes if name in times else 0.0

    def total_s(name):
        return times[name][1] / passes if name in times else 0.0

    def calls(name):
        return times[name][0] / passes if name in times else 0.0

    def per_pass(key):
        return counts[key] / passes

    extremes = tracer.extremes
    return {
        "palette.compute_params_s": (self_s("palette.compute_params"), "s/pass"),
        "palette.check_disjoint_s": (self_s("palette.check_disjoint_shifts"), "s/pass"),
        "palette.elements_checked": (per_pass("palette.elements_checked"), "computed/pass"),
        "palette.errors": (per_pass("palette.compute_params.errors"), "count/pass"),
        "graphs.self_s": (_layer_self(times, "graphs") / passes, "s/pass"),
        "graphs.r_neighbourhoods_s": (self_s("graphs.all_r_neighbourhoods"), "s/pass"),
        "graphs.r_neighbourhoods_calls": (calls("graphs.all_r_neighbourhoods"), "count/pass"),
        "graphs.degree_stats_calls": (calls("graphs.degree_stats"), "count/pass"),
        "graphs.backward_stats_s": (self_s("graphs.backward_stats"), "s/pass"),
        "graphs.ball_entries": (per_pass("graphs.ball_entries"), "computed/pass"),
        "ordering.self_s": (_layer_self(times, "ordering") / passes, "s/pass"),
        "ordering.rounds": (per_pass("ordering.rounds"), "count/pass"),
        "ordering.invalid_certificates": (per_pass("ordering.invalid_certificates"), "count/pass"),
        "base_colouring.s": (_layer_self(times, "base_colouring") / passes, "s/pass"),
        "base_colouring.edges": (per_pass("base_colouring.edges"), "count/pass"),
        "recolour.self_s": (self_s("recolour.run"), "s/pass"),
        "recolour.replay_s": (self_s("recolour.replay"), "s/pass"),
        "recolour.steps": (per_pass("recolour.steps"), "count/pass"),
        "recolour.edge_alterations": (per_pass("recolour.edge_alterations"), "count/pass"),
        "recolour.min_margin": (extremes.get("recolour.min_margin", 0.0), "ratio"),
        "recolour.invariant_violations": (per_pass("recolour.invariant_violations"), "count/pass"),
        "recolour.fallbacks": (per_pass("recolour.fallbacks"), "count/pass"),
        "recolour.max_colour_ratio": (extremes.get("recolour.max_colour_ratio", 0.0), "ratio"),
        "verify.s": (_layer_self(times, "verify") / passes, "s/pass"),
        "verify.incident_pairs": (per_pass("verify.incident_pairs"), "computed/pass"),
        "files.parse_graph_s": (self_s("files.parse_graph"), "s/pass"),
        "files.format_colouring_s": (self_s("files.format_colouring"), "s/pass"),
        "files.parse_colouring_s": (self_s("files.parse_colouring"), "s/pass"),
        "files.bytes": (per_pass("files.bytes"), "computed/pass"),
        "cli.self_s": (_layer_self(times, "cli") / passes, "s/pass"),
        "cli.color_s": (total_s("cli.color"), "s/pass"),
        "cli.verify_s": (total_s("cli.verify"), "s/pass"),
        "cli.palette_s": (total_s("cli.palette"), "s/pass"),
        "trace.spans": (len(tracer.spans) / passes, "count/pass"),
    }


def coverage_problems(tracer, traced, minimum):
    """Operations whose root spans do not fit their measured time.

    `traced` holds the traced passes' operation times by key, indexed by
    pass id.  A root span (no parent) is a call into the program from the
    operation, and self times sum to the root spans' time, so the layer
    self times of an operation must not exceed its time.  Summed over the
    passes, they must also cover at least `minimum` of it: less means the
    operation's work runs outside the wrapped boundaries, and the
    per-layer figures miss it.  (Summing keeps one descheduling between
    the runner's clock and the first wrapper from failing a run.)
    Returns one message per operation outside these limits.
    """
    covered = defaultdict(float)
    measured = defaultdict(float)
    problems = []
    for _, parent, start, end, pass_id, op in tracer.spans:
        if parent is None:
            covered[op] += end - start
            if pass_id >= len(traced) or end - start > traced[pass_id].get(op, 0.0):
                problems.append(f"pass {pass_id} {op}: a layer span outlasts the operation")
    for times in traced:
        for op, seconds in times.items():
            measured[op] += seconds
    for op, seconds in measured.items():
        share = covered[op] / seconds if seconds else 1.0
        if not minimum <= share <= 1:
            problems.append(f"{op}: layer spans cover {share:.3f} of its {seconds:.6f} s")
    return problems
