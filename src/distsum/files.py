"""Flat-file formats: edge-list graphs and total-colouring documents.

Graph format (1-indexed, whitespace separated, '#' comments):

    p <n> <m>
    e <u> <v>        (m lines)

Colouring format:

    meta key=value ...
    v <id> <colour>
    E <u> <v> <colour>
    w <id> <weighted degree>

Writers are deterministic, so identical data round-trips byte-exactly.
"""

from __future__ import annotations

from .colouring import TotalColouring
from .graphs import GraphError, build_graph, edge_key


class FormatError(ValueError):
    """Malformed input file; the message carries the line number."""


def parse_graph_lines(lines):
    n = m = None
    edges = []
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if parts[0] == "p":
            if n is not None:
                raise FormatError(f"line {lineno}: duplicate header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: header needs 'p <n> <m>'")
            try:
                n, m = int(parts[1]), int(parts[2])
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer header field")
        elif parts[0] == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
            if len(parts) != 3:
                raise FormatError(f"line {lineno}: edge needs 'e <u> <v>'")
            try:
                edges.append((int(parts[1]), int(parts[2])))
            except ValueError:
                raise FormatError(f"line {lineno}: non-integer endpoint")
        else:
            raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
    if n is None:
        raise FormatError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise FormatError(f"header declares {m} edges, found {len(edges)}")
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        raise FormatError(str(exc)) from exc


def parse_graph(pathname):
    with open(pathname, encoding="utf-8") as fh:
        return parse_graph_lines(fh.readlines())


def format_graph(g):
    out = [f"p {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def format_colouring(g, colouring, meta):
    """Serialize a colouring; `meta` is an ordered mapping of scalars."""
    out = ["meta " + " ".join(f"{k}={v}" for k, v in meta.items())]
    out.extend(f"v {v} {colouring.vertex_colours[v]}" for v in g.vertices())
    out.extend(f"E {u} {v} {colouring.edge_colours[(u, v)]}" for u, v in g.edges)
    out.extend(f"w {v} {colouring.weighted_degree(g, v)}" for v in g.vertices())
    return "\n".join(out) + "\n"


def parse_colouring_lines(lines):
    """Returns (meta dict, TotalColouring); 'w' lines are ignored on input
    (they are derived data)."""
    meta = {}
    vcol = {}
    ecol = {}
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        try:
            if parts[0] == "meta":
                for token in parts[1:]:
                    key, _, value = token.partition("=")
                    meta[key] = value
            elif parts[0] == "v" and len(parts) == 3:
                vcol[int(parts[1])] = int(parts[2])
            elif parts[0] == "E" and len(parts) == 4:
                ecol[edge_key(int(parts[1]), int(parts[2]))] = int(parts[3])
            elif parts[0] == "w" and len(parts) == 3:
                continue
            else:
                raise FormatError(f"line {lineno}: unknown record {parts[0]!r}")
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field")
    return meta, TotalColouring(vcol, ecol)


def parse_colouring(pathname):
    with open(pathname, encoding="utf-8") as fh:
        return parse_colouring_lines(fh.readlines())
