"""Flat-file formats: edge-list graphs and total-colouring documents.

Graph format (1-indexed; `records` drops '#' comments in every format):

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


_COLOURING_FIELDS = {"v": 3, "E": 4, "w": 3}  # record tag -> field count


def records(lines):
    """Yield (line number, fields) for each non-blank line, '#' comment removed."""
    for lineno, raw in enumerate(lines, start=1):
        fields = raw.split("#", 1)[0].split()
        if fields:
            yield lineno, fields


def parse_graph_lines(lines):
    n = m = header_line = None
    edges = []
    edge_lines = []
    for lineno, fields in records(lines):
        tag = fields[0]
        if tag == "e":
            if n is None:
                raise FormatError(f"line {lineno}: edge before header")
        elif tag != "p":
            raise FormatError(f"line {lineno}: unknown record {tag!r}")
        elif n is not None:
            raise FormatError(f"line {lineno}: duplicate header")
        if len(fields) != 3:
            raise FormatError(f"line {lineno}: {tag!r} record needs 3 fields")
        try:
            a, b = int(fields[1]), int(fields[2])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field") from None
        if tag == "e":
            edges.append((a, b))
            edge_lines.append(lineno)
        else:
            n, m, header_line = a, b, lineno
    if n is None:
        raise FormatError("missing 'p <n> <m>' header")
    if len(edges) != m:
        raise FormatError(f"line {header_line}: header declares {m} edges, "
                          f"found {len(edges)}")
    try:
        return build_graph(n, edges)
    except GraphError as exc:
        line = header_line if exc.edge is None else edge_lines[exc.edge]
        raise FormatError(f"line {line}: {exc.reason}") from exc


def parse_graph(pathname):
    with open(pathname, encoding="utf-8") as fh:
        return parse_graph_lines(fh)


def format_graph(g):
    out = [f"p {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def format_colouring(g, colouring, meta):
    """Serialize a colouring; `meta` is an ordered mapping of scalars."""
    vcol, ecol = colouring.vertex_colours, colouring.edge_colours
    out = ["meta " + " ".join(f"{k}={v}" for k, v in meta.items())]
    out.extend(f"v {v} {vcol[v]}" for v in g.vertices())
    edge_sum = [0] * (g.n + 1)
    for u, v in g.edges:
        colour = ecol[(u, v)]
        edge_sum[u] += colour
        edge_sum[v] += colour
        out.append(f"E {u} {v} {colour}")
    out.extend(f"w {v} {vcol[v] + edge_sum[v]}" for v in g.vertices())
    return "\n".join(out) + "\n"


def parse_colouring_lines(lines):
    """Returns (meta dict, TotalColouring); 'w' lines are ignored on input
    (they are derived data).  A repeated 'v' or 'E' record is refused."""
    meta = {}
    vcol = {}
    ecol = {}
    for lineno, fields in records(lines):
        tag = fields[0]
        if tag == "meta":
            for token in fields[1:]:
                key, _, value = token.partition("=")
                meta[key] = value
            continue
        size = _COLOURING_FIELDS.get(tag)
        if size is None:
            raise FormatError(f"line {lineno}: unknown record {tag!r}")
        if len(fields) != size:
            raise FormatError(f"line {lineno}: {tag!r} record needs {size} fields")
        try:
            if tag == "w":
                int(fields[1]), int(fields[2])     # checked, then dropped
                continue
            if tag == "v":
                table, key, colour = vcol, int(fields[1]), int(fields[2])
            else:
                table, key = ecol, edge_key(int(fields[1]), int(fields[2]))
                colour = int(fields[3])
        except ValueError:
            raise FormatError(f"line {lineno}: non-integer field") from None
        if key in table:
            raise FormatError(f"line {lineno}: duplicate {tag!r} record for {key}")
        table[key] = colour
    return meta, TotalColouring(vcol, ecol)


def parse_colouring(pathname):
    with open(pathname, encoding="utf-8") as fh:
        return parse_colouring_lines(fh)
