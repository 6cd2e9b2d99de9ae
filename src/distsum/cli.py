"""Command-line harness.

Subcommands: palette, gen, order, color, verify, exact, experiment.
Exit codes: 0 success, 1 verification failure, 2 usage or input error, a
refused run (RunError, an r-ball table past graphs.MAX_TABLE_BYTES, or an
exact search past its trial budget) or a run out of memory, 141
stdout closed early by its reader (as after SIGPIPE), with nothing written
to stderr.

A command parses its arguments, calls the pipeline and prints.  The
modules it calls check their own inputs: generate.from_spec a graph spec,
for gen and for each experiment grid row; palette.compute_params the
(delta, r) bound; and the ordering certificate states the radius it ran.

color keeps the run's records (its RunTrace and OrderingCertificate) only
until it has read them: it drops them before it formats the colouring,
formatting the --emit-trace text first, and then writes the colouring and
the trace, in that order.
"""

from __future__ import annotations

import argparse
import io
import os
import sys

from . import exact as exact_mod
from . import files, generate, recolour
from .ordering import CONDITIONS, resample_until_valid
from .palette import check_disjoint_shifts, compute_params
from .verify import verify


def _write(text, path, out):
    """Write text to the file at path if one is given, else to out."""
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        out.write(text)


def _print_palette(args, out):
    params = compute_params(args.delta, args.r)
    ok, witness = check_disjoint_shifts(params)
    rows = [("max degree", args.delta), ("radius", args.r),
            ("step", params.step), ("modulus", params.modulus),
            ("palette size", params.size), ("palette max", params.palette_max),
            ("headline bound", f"{params.headline_bound:.1f}")]
    out.write(f"palette delta={args.delta} r={args.r} step={params.step} "
              f"modulus={params.modulus} size={params.size} "
              f"palette_max={params.palette_max} shifts_disjoint={str(ok).lower()}\n")
    out.write(f"{'field':<16}{'value'}\n")
    for name, value in rows:
        out.write(f"{name:<16}{value}\n")
    for lo, hi in params.intervals:
        out.write(f"interval        [{lo}, {hi}]\n")
    if not ok:
        out.write(f"violating pair  {witness}\n")
        return 1
    return 0


def _cmd_gen(args, out):
    g = generate.from_spec(args.kind, args.params, args.seed)
    _write(files.format_graph(g), args.output, out)
    return 0


def _cmd_order(args, out):
    g = files.parse_graph(args.input)
    cert = resample_until_valid(g, args.r, args.seed)
    out.write(f"cert seed={cert.seed} r={cert.radius} rounds={cert.resample_rounds} "
              f"valid={str(cert.valid).lower()} threshold={cert.split_threshold:.12g}\n")
    for v in g.vertices():
        out.write(f"x {v} {cert.weights[v]!r}\n")
    out.write("order " + " ".join(str(v) for v in cert.ordering) + "\n")
    for v in sorted(cert.checks):
        marks = " ".join(
            f"{key}={'skip' if ok is None else 'pass' if ok else 'fail'}"
            for key, ok in zip(CONDITIONS, cert.checks[v]))
        out.write(f"check {v} {marks}\n")
    return 0


def _format_trace(trace, cert):
    lines = [f"trace vertex_steps={len(trace.steps)} "
             f"fallbacks={trace.fallback_count} "
             f"ordering_valid={str(cert.valid).lower()}\n"]
    lines += [f"note {note}\n" for note in trace.notes]
    for rec in trace.steps:
        deltas = ";".join(f"{u},{v}:{d:+d}" for (u, v), d in rec.edge_deltas)
        comps = ";".join(f"{u}:{d:+d}" for u, d in rec.compensations)
        lines.append(f"step v={rec.vertex} colour={rec.base_colour} "
                     f"sum={rec.target_sum} options={rec.admissible_count}"
                     f"x{rec.lattice_size} backward={rec.backward_r_count} "
                     f"edges=[{deltas}] comps=[{comps}]\n")
    return "".join(lines)


def _colour_run(g, args):
    """recolour.run, kept to what color writes: the colouring, its meta line's
    fields and, with --emit-trace, the trace text.  The run's RunTrace and
    OrderingCertificate die with this frame, before color formats anything."""
    colouring, trace, cert = recolour.run(g, args.r, args.seed)
    params = colouring.params
    meta = {
        "n": g.n, "m": g.m, "maxdeg": g.max_degree, "r": args.r,
        "step": params.step, "modulus": params.modulus,
        "palette_max": params.palette_max,
        "fallbacks": trace.fallback_count, "seed": args.seed,
    }
    return colouring, meta, _format_trace(trace, cert) if args.emit_trace else None


def _cmd_color(args, out):
    g = files.parse_graph(args.input)
    colouring, meta, trace_text = _colour_run(g, args)
    _write(files.format_colouring(g, colouring, meta), args.output, out)
    if trace_text is not None:
        _write(trace_text, args.emit_trace, out)
    return 0


def _cmd_verify(args, out):
    g = files.parse_graph(args.input)
    _, colouring = files.parse_colouring(args.colouring)
    report = verify(g, colouring, args.r, args.bound)
    out.write(f"verify pass={str(report.passed).lower()} "
              f"max_colour={report.max_colour} "
              f"violations={len(report.violations)}\n")
    for kind, witness in report.violations[:50]:
        out.write(f"violation {kind} {witness}\n")
    return 0 if report.passed else 1


def _cmd_exact(args, out):
    g = files.parse_graph(args.input)
    value, witness = exact_mod.exact_chi(g, args.r, args.limit)
    if value is None:
        out.write(f"exact result=exceeds-limit limit={args.limit}\n")
        return 0
    out.write(f"exact result={value}\n")
    for v in g.vertices():
        out.write(f"v {v} {witness.vertex_colours[v]}\n")
    for u, v in g.edges:
        out.write(f"E {u} {v} {witness.edge_colours[(u, v)]}\n")
    return 0


EXPERIMENT_COLUMNS = ("kind", "params", "n", "m", "maxdeg", "r", "seed",
                      "max_colour", "bound", "palette_max", "fallbacks",
                      "ordering_valid", "verify")


def parse_grid_lines(lines):
    """Grid rows '<kind> <size params...> <r> <seed>', read by files.records.

    A generator.  Before its first row it reads every line and checks the
    grid's own syntax, integer r >= 1 and seed.  It then builds each row's
    graph with generate.from_spec, which checks the spec, only when that
    row is taken, so a graph and the tables it caches live no longer than
    their row.  Any refusal is a FormatError naming its line.  Yields
    (kind, size params, r, seed, graph) rows.
    """
    specs = []
    for lineno, fields in files.records(lines):
        try:
            kind, *size, radius, seed = fields
            radius, seed = int(radius), int(seed)
        except ValueError:
            raise files.FormatError(
                f"line {lineno}: a grid row is <kind> <size params...> <r> <seed>, "
                f"with integer r and seed") from None
        if radius < 1:
            raise files.FormatError(f"line {lineno}: radius must be >= 1")
        specs.append((lineno, kind, size, radius, seed))
    for lineno, kind, size, radius, seed in specs:
        try:
            g = generate.from_spec(kind, size, seed)
        except ValueError as exc:
            raise files.FormatError(f"line {lineno}: {exc}") from None
        yield kind, size, radius, seed, g


def run_experiment(grid):
    """Run the full pipeline on each parse_grid_lines row; a run that fails
    becomes an error row.  A FormatError from the grid is raised from the
    loop itself, so a refused row stops the run before any row is printed."""
    rows = [EXPERIMENT_COLUMNS]
    for kind, params_args, radius, seed, g in grid:
        try:
            colouring, trace, cert = recolour.run(g, radius, seed)
            report = verify(g, colouring, radius)
            params = colouring.params
            row = (kind, ",".join(params_args), g.n, g.m, g.max_degree,
                   radius, seed, report.max_colour,
                   f"{params.headline_bound:.1f}",
                   params.palette_max, trace.fallback_count,
                   str(cert.valid).lower(),
                   "pass" if report.passed else "fail")
        except Exception as exc:  # noqa: BLE001 - per-row failures become rows
            row = (kind, ",".join(params_args), "-", "-", "-", radius, seed,
                   "-", "-", "-", "-", "-", f"error:{type(exc).__name__}")
        rows.append(row)
    return rows


def _cmd_experiment(args, out):
    with open(args.grid, encoding="utf-8") as fh:
        rows = run_experiment(parse_grid_lines(fh))
    text = "\n".join("\t".join(str(cell) for cell in row) for row in rows) + "\n"
    _write(text, args.output, out)
    failures = sum(1 for row in rows[1:] if row[12] != "pass")
    return 1 if failures else 0


def build_parser():
    parser = argparse.ArgumentParser(
        prog="distsum",
        description="Proper total colourings whose weighted degrees differ "
                    "on every vertex pair within a given radius.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("palette", help="palette parameters for (delta, r)")
    p.add_argument("--delta", type=int, required=True)
    p.add_argument("--r", type=int, required=True)

    p = sub.add_parser("gen", help="generate a graph")
    p.add_argument("kind", choices=sorted(generate.KINDS))
    p.add_argument("params", nargs="*")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")

    p = sub.add_parser("order", help="ordering certificate for a graph")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)

    p = sub.add_parser("color", help="run the full colouring pipeline")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--output")
    p.add_argument("--emit-trace")

    p = sub.add_parser("verify", help="check a colouring file")
    p.add_argument("--input", required=True)
    p.add_argument("--colouring", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--bound", type=int)

    p = sub.add_parser("exact", help="exact minimum palette size (tiny graphs)")
    p.add_argument("--input", required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--limit", type=int, required=True)

    p = sub.add_parser("experiment", help="run a grid of instances")
    p.add_argument("--grid", required=True)
    p.add_argument("--output")
    return parser


COMMANDS = {
    "palette": _print_palette,
    "gen": _cmd_gen,
    "order": _cmd_order,
    "color": _cmd_color,
    "verify": _cmd_verify,
    "exact": _cmd_exact,
    "experiment": _cmd_experiment,
}


def _stdout():
    """sys.stdout, behind a buffered layer when its own is unbuffered.

    Unbuffered (python -u, PYTHONUNBUFFERED) text output hands each write to
    the raw descriptor once and drops whatever a pipe did not take, so a
    reader that quits early goes unnoticed.  A buffered writer keeps writing
    the rest and so meets the closed pipe as BrokenPipeError.
    """
    if not isinstance(getattr(sys.stdout, "buffer", None), io.RawIOBase):
        return sys.stdout
    raw = io.FileIO(sys.stdout.fileno(), "w", closefd=False)
    return io.TextIOWrapper(io.BufferedWriter(raw), encoding=sys.stdout.encoding,
                            errors=sys.stdout.errors)


def main(argv=None, out=None):
    to_stdout = out is None
    parser = build_parser()
    args = parser.parse_args(argv)
    if to_stdout:
        out = _stdout()
    try:
        code = COMMANDS[args.command](args, out)
        out.flush()
        return code
    except BrokenPipeError:
        # Point stdout at /dev/null so the flush at interpreter exit is silent.
        if to_stdout:
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    # FormatError, GraphError, PaletteError, IncompleteColouringError: ValueErrors
    except (ValueError, recolour.RunError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:     # its own message is often empty
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
