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

`format_colouring` joins its text from blocks of _BLOCK_LINES lines, so it
never holds a list of every line.  `parse_graph` and `parse_colouring` read
the writers' own form in bulk, block by block: one regular expression checks
that every line of a block is a record as the writer prints it, and
`str.split` and slicing take the block apart into columns.  A column's
fields are looked up in a table of "0".."1023", as the files repeat their
ids and few colours; a column with a field past it is converted by int().
The graph reader checks no edge itself: it hands its edges, in any order
and either end first, to `build_graph`.  A file in any other form
(comments, blank lines, tabs, a colouring's reversed or reordered records,
a repeated or malformed record, an edge count unlike the header's) is read
again from its start by `parse_graph_lines` / `parse_colouring_lines`.
Either way every valid file gives the same result and every malformed one
the same error message, line number included.
"""

from __future__ import annotations

import re
from itertools import islice
from operator import lt

from .colouring import TotalColouring
from .graphs import GraphError, build_graph, edge_key


class FormatError(ValueError):
    """Malformed input file; the message carries the line number."""


_COLOURING_FIELDS = {"v": 3, "E": 4, "w": 3}  # record tag -> field count

# The writers' own form, read in blocks.  A field has at most 640 digits,
# which int() converts under any digit limit that Python allows.  `re`
# compiles each pattern on its first use, not at import, and caches it.
_BLOCK_LINES = 256
_INT = "[0-9]{1,640}"
_HEADER = f"p ({_INT}) ({_INT})\n"
_EDGE_BLOCK = f"(?:e {_INT} {_INT}\n)*"
_COLOURING_BLOCK = (f"(?:v {_INT} {_INT}\n)*(?:E {_INT} {_INT} {_INT}\n)*"
                    f"(?:w {_INT} {_INT}\n)*")


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


_number = dict(zip(map(str, range(1024)), range(1024))).__getitem__


def _ints(texts):
    """int() of each field string: by _number, or by int() on a miss."""
    try:
        return list(map(_number, texts))
    except KeyError:
        return list(map(int, texts))


def _blocks(fh):
    """The rest of `fh` as strings of up to _BLOCK_LINES lines each."""
    while block := "".join(islice(fh, _BLOCK_LINES)):
        yield block


def _graph_in_blocks(fh):
    """The graph in `fh` if its lines are spaced as format_graph writes
    them and build_graph takes its edges (in any order, either end first),
    else None."""
    header = re.fullmatch(_HEADER, fh.readline())
    if header is None:
        return None
    n, m = int(header[1]), int(header[2])
    edges = []
    for block in _blocks(fh):
        if re.fullmatch(_EDGE_BLOCK, block) is None:
            return None
        fields = block.split()
        del fields[::3]                 # the "e" tags
        ends = iter(_ints(fields))
        edges += zip(ends, ends)
    if len(edges) != m:
        return None
    try:
        return build_graph(n, edges)
    except GraphError:
        return None


def _read(pathname, in_blocks, by_lines):
    """in_blocks' reading of the file, or by_lines' where in_blocks gives
    None: the writers' form in blocks, any other form line by line."""
    with open(pathname, encoding="utf-8") as fh:
        result = in_blocks(fh)
        if result is None:
            fh.seek(0)
            result = by_lines(fh)
        return result


def parse_graph(pathname):
    return _read(pathname, _graph_in_blocks, parse_graph_lines)


def format_graph(g):
    out = [f"p {g.n} {g.m}"]
    out.extend(f"e {u} {v}" for u, v in g.edges)
    return "\n".join(out) + "\n"


def _chunks(seq):
    """Slices of `seq` of up to _BLOCK_LINES items each."""
    return (seq[i:i + _BLOCK_LINES] for i in range(0, len(seq), _BLOCK_LINES))


def format_colouring(g, colouring, meta):
    """Serialize a colouring; `meta` is an ordered mapping of scalars."""
    vcol, ecol = colouring.vertex_colours, colouring.edge_colours
    out = ["meta " + " ".join(f"{k}={v}" for k, v in meta.items()) + "\n"]
    out += ("".join([f"v {v} {vcol[v]}\n" for v in vs]) for vs in _chunks(g.vertices()))
    edge_sum = [0] * (g.n + 1)
    for edges in _chunks(g.edges):
        colours = list(map(ecol.__getitem__, edges))
        for (u, v), colour in zip(edges, colours):
            edge_sum[u] += colour
            edge_sum[v] += colour
        out.append("".join([f"E {u} {v} {c}\n" for (u, v), c in zip(edges, colours)]))
    out += ("".join([f"w {v} {vcol[v] + edge_sum[v]}\n" for v in vs])
            for vs in _chunks(g.vertices()))
    return "".join(out)


def _read_meta(meta, fields):
    for token in fields[1:]:
        key, _, value = token.partition("=")
        meta[key] = value


def parse_colouring_lines(lines):
    """Returns (meta dict, TotalColouring); 'w' lines are ignored on input
    (they are derived data).  A repeated 'v' or 'E' record is refused."""
    meta = {}
    vcol = {}
    ecol = {}
    for lineno, fields in records(lines):
        tag = fields[0]
        if tag == "meta":
            _read_meta(meta, fields)
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


def _colouring_in_blocks(fh):
    """(meta, TotalColouring) if `fh` is written exactly as format_colouring
    writes (a meta line, then v, E and w records, each E as (u, v) with
    u < v), else None."""
    fields = fh.readline().split("#", 1)[0].split()
    if fields[:1] != ["meta"]:
        return None
    meta, vcol, ecol = {}, {}, {}
    _read_meta(meta, fields)
    count_v = count_e = 0
    for block in _blocks(fh):
        if re.fullmatch(_COLOURING_BLOCK, block) is None:
            return None
        fields = block.split()
        nv, ne = block.count("v"), block.count("E")
        end_v, end_e = 3 * nv, 3 * nv + 4 * ne
        vcol.update(zip(_ints(fields[1:end_v:3]), _ints(fields[2:end_v:3])))
        us = _ints(fields[end_v + 1:end_e:4])
        vs = _ints(fields[end_v + 2:end_e:4])
        if not all(map(lt, us, vs)):
            return None
        ecol.update(zip(zip(us, vs), _ints(fields[end_v + 3:end_e:4])))
        count_v += nv
        count_e += ne
    # a record read twice leaves its table short
    if len(vcol) != count_v or len(ecol) != count_e:
        return None
    return meta, TotalColouring(vcol, ecol)


def parse_colouring(pathname):
    return _read(pathname, _colouring_in_blocks, parse_colouring_lines)
