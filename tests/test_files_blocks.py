"""The file readers' bulk path against the line readers.

`files.parse_graph` and `files.parse_colouring` read the writers' own form
block by block and hand any other input to `parse_graph_lines` /
`parse_colouring_lines`; these tests hold both paths to one answer."""

import tracemalloc
from itertools import islice

import pytest

from distsum import TotalColouring, build_graph, files, generate, recolour
from distsum.files import FormatError, parse_colouring_lines, parse_graph_lines
from distsum.graphs import Graph

from conftest import write_lines

# one instance of every generator kind, each file a few blocks long
KIND_SPECS = {
    "path": ["800"],
    "cycle": ["800"],
    "complete": ["40"],
    "star": ["700"],
    "gnp": ["120", "0.1"],
    "regular-ish": ["300", "5"],
}


# every kind above, and one whose vertex ids run past files._number's table
INPUTS = ({kind: (kind, spec) for kind, spec in KIND_SPECS.items()}
          | {"path-1300": ("path", ["1300"])})


def test_every_kind_is_covered():
    assert set(KIND_SPECS) == set(generate.KINDS)


def test_large_ids_miss_the_number_table():
    # so the bulk reader converts a column with an id past 1023 by int()
    assert "1023" in files._number.__self__
    assert "1024" not in files._number.__self__


def _by_lines(parse, path):
    with open(path, encoding="utf-8") as fh:
        return parse(fh)


def _graph_view(g):
    # adjacency tuples compare in order, so the neighbour order must match too
    return g.n, g.edges, g.adjacency, g.max_degree


def _colouring_view(result):
    # items as lists: the tables' insertion order must match too
    meta, colouring = result
    return (meta, list(colouring.vertex_colours.items()),
            list(colouring.edge_colours.items()))


PERTURBATIONS = ["writer", "comment", "blank-line", "crlf", "tab",
                 "reversed-endpoints", "leading-zero", "negative-w", "reordered",
                 "no-final-newline"]


def _next(lines, prefix, start):
    return next(i for i in range(start, len(lines)) if lines[i].startswith(prefix))


def perturb(name, lines):
    """The text of a file, given as its lines, after one perturbation.  Each
    edits an edge record on line 601 or later, or the whole file; the graph
    file has no `w` record to negate and stays as written there."""
    lines = list(lines)
    colouring = lines[0].startswith("meta")
    i = _next(lines, "E " if colouring else "e ", 600)
    tag, a, b, *rest = lines[i].split()
    end = "\n"
    if name == "comment":
        lines[i] += "  # tail"
        lines.insert(i, "# a comment")
    elif name == "blank-line":
        lines[i:i] = ["", "   "]
    elif name == "crlf":
        end = "\r\n"
    elif name == "tab":
        lines[i] = lines[i].replace(" ", "\t")
    elif name == "reversed-endpoints":
        lines[i] = " ".join([tag, b, a, *rest])
    elif name == "leading-zero":
        lines[i] = " ".join([tag, "0" + a, b, *rest])
    elif name == "negative-w" and colouring:
        j = _next(lines, "w ", 0) + 1
        _, vertex, weight = lines[j].split()
        lines[j] = f"w {vertex} -{weight}"
    elif name == "reordered":
        lines[1:] = lines[:0:-1]
    elif name == "no-final-newline":
        return "\n".join(lines)
    return end.join(lines) + end


@pytest.fixture(scope="module", params=sorted(INPUTS))
def written(request):
    """(graph file lines, colouring file lines) for one input, as the CLI
    writes them."""
    kind, spec = INPUTS[request.param]
    g = generate.from_spec(kind, spec, 1)
    colouring, _, _ = recolour.run(g, 2, 1)
    meta = {"n": g.n, "m": g.m, "r": 2, "seed": 1}
    return (files.format_graph(g).splitlines(),
            files.format_colouring(g, colouring, meta).splitlines())


@pytest.mark.parametrize("name", PERTURBATIONS)
def test_block_reader_matches_line_reader(tmp_path, written, name):
    graph_lines, colouring_lines = written
    gpath, cpath = tmp_path / "g.txt", tmp_path / "c.txt"
    gpath.write_bytes(perturb(name, graph_lines).encode())
    cpath.write_bytes(perturb(name, colouring_lines).encode())
    assert (_graph_view(files.parse_graph(gpath))
            == _graph_view(_by_lines(parse_graph_lines, gpath)))
    assert (_colouring_view(files.parse_colouring(cpath))
            == _colouring_view(_by_lines(parse_colouring_lines, cpath)))
    if name == "writer":
        # the writers' own form takes the bulk path
        with open(gpath, encoding="utf-8") as fh:
            assert files._graph_in_blocks(fh) is not None
        with open(cpath, encoding="utf-8") as fh:
            assert files._colouring_in_blocks(fh) is not None


def test_perturbations_change_the_files():
    lines = ["meta n=2"] + [f"v {v} 1" for v in range(1, 702)]
    lines += ["E 1 2 3", "E 2 3 4", "w 1 4", "w 2 8"]
    writer = perturb("writer", lines)
    assert writer == "\n".join(lines) + "\n"
    changed = {name: perturb(name, lines) for name in PERTURBATIONS[1:]}
    assert writer not in changed.values()
    assert changed["negative-w"].endswith("\nw 1 4\nw 2 -8\n")
    assert "\nE 2 1 3\n" in changed["reversed-endpoints"]
    assert "\nE 01 2 3\n" in changed["leading-zero"]


def _block_edges():
    """Lines on both sides of the ends of the first, third and fifth
    blocks; the first line, the header or meta line, is read on its own."""
    size = files._BLOCK_LINES
    return [line for k in (1, 3, 5) for line in (1 + k * size, 2 + k * size)]


@pytest.mark.parametrize("line", _block_edges())
@pytest.mark.parametrize("record,msg", [
    ("e 1 2", r"^line {}: duplicate edge \(1, 2\)$"),
    ("e 7 7", "^line {}: self-loop at vertex 7$"),
    ("e 0 1", r"^line {}: endpoint out of range in \(0, 1\)$"),
    ("e 1 x", "^line {}: non-integer field$"),
    ("q 1 2", "^line {}: unknown record 'q'$"),
], ids=["duplicate", "self-loop", "out-of-range", "non-integer", "unknown-tag"])
def test_graph_error_past_first_block_names_its_line(tmp_path, line, record, msg):
    lines = files.format_graph(generate.path(1300)).splitlines()
    lines[line - 1] = record
    path = write_lines(tmp_path / "g.txt", lines)
    for read in (files.parse_graph, lambda p: _by_lines(parse_graph_lines, p)):
        with pytest.raises(FormatError, match=msg.format(line)):
            read(path)


@pytest.mark.parametrize("line", _block_edges())
@pytest.mark.parametrize("record,msg", [
    ("v 1 9", "^line {}: duplicate 'v' record for 1$"),
    ("E 1 x 3", "^line {}: non-integer field$"),
    ("w 1 2 3", "^line {}: 'w' record needs 3 fields$"),
    ("q 1 2", "^line {}: unknown record 'q'$"),
], ids=["duplicate-v", "non-integer", "long-w", "unknown-tag"])
def test_colouring_error_past_first_block_names_its_line(tmp_path, line, record, msg):
    # path 600: v records on lines 2-601, E on 602-1200, w on 1201-1800
    g = generate.path(600)
    colouring = TotalColouring({v: v % 3 + 1 for v in g.vertices()},
                               {e: e[0] % 5 + 1 for e in g.edges})
    lines = files.format_colouring(g, colouring, {"n": g.n}).splitlines()
    lines[line - 1] = record
    path = write_lines(tmp_path / "c.txt", lines)
    for read in (files.parse_colouring, lambda p: _by_lines(parse_colouring_lines, p)):
        with pytest.raises(FormatError, match=msg.format(line)):
            read(path)


def _peak_heap(read, path):
    tracemalloc.start()
    try:
        read(path)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.fixture(scope="module")
def long_files(tmp_path_factory):
    """path 8000's graph file and a colouring file of it: 31 and 94 blocks."""
    g = generate.path(8000)
    colouring = TotalColouring({v: v % 3 + 1 for v in g.vertices()},
                               {e: e[0] % 5 + 1 for e in g.edges})
    folder = tmp_path_factory.mktemp("long")
    gpath, cpath = folder / "g.txt", folder / "c.txt"
    gpath.write_text(files.format_graph(g))
    cpath.write_text(files.format_colouring(g, colouring, {"n": g.n}))
    return {"graph": gpath, "colouring": cpath}


@pytest.mark.parametrize("kind,parse,parse_lines", [
    ("graph", files.parse_graph, parse_graph_lines),
    ("colouring", files.parse_colouring, parse_colouring_lines),
], ids=["graph", "colouring"])
def test_block_reader_heap_within_a_block_of_line_reader(long_files, kind, parse,
                                                         parse_lines):
    path = long_files[kind]
    # 256 lines from the middle of the file, held as text and as fields
    with open(path, encoding="utf-8") as fh:
        middle = len(fh.readlines()) // 2
        fh.seek(0)
        lines = list(islice(fh, middle, middle + 256))
    block = _peak_heap(lambda _: "".join(lines).split(), None)
    by_lines = _peak_heap(lambda p: _by_lines(parse_lines, p), path)
    # the block in hand and what its fields convert to, at most; a reader
    # that splits the whole file holds over a hundred blocks at once
    assert _peak_heap(parse, path) <= by_lines + 2 * block


def _format_in_one_list(g, colouring, meta):
    """format_colouring's text from one list of every line, joined once."""
    vcol, ecol = colouring.vertex_colours, colouring.edge_colours
    out = ["meta " + " ".join(f"{k}={v}" for k, v in meta.items())]
    out += [f"v {v} {vcol[v]}" for v in g.vertices()]
    out += [f"E {u} {v} {ecol[(u, v)]}" for u, v in g.edges]
    out += [f"w {v} {colouring.weighted_degree(g, v)}" for v in g.vertices()]
    return "\n".join(out) + "\n"


def _some_colouring(g):
    return TotalColouring({v: v % 7 + 1 for v in g.vertices()},
                          {(u, v): (u * v) % 1100 + 1 for u, v in g.edges})


# n = 0, an edgeless graph, then paths whose v, E and w sections hold
# 255, 256, 257, 512 and 513 records: a block short of, at, and past
# _BLOCK_LINES lines, and one and two past two blocks
@pytest.mark.parametrize("g", [Graph(0, ()), build_graph(5, [])]
                         + [generate.path(n) for n in (255, 256, 257, 258, 512, 513, 514)],
                         ids=lambda g: f"n{g.n}-m{g.m}")
def test_writer_blocks_match_one_list(tmp_path, g):
    colouring = _some_colouring(g)
    meta = {"n": g.n, "m": g.m, "r": 2}
    text = files.format_colouring(g, colouring, meta)
    assert text == _format_in_one_list(g, colouring, meta)
    path = tmp_path / "c.txt"
    path.write_text(text)
    got_meta, got = files.parse_colouring(path)
    assert got_meta == {k: str(v) for k, v in meta.items()}
    assert got.vertex_colours == colouring.vertex_colours
    assert got.edge_colours == colouring.edge_colours


def test_writer_heap_below_one_list():
    g = generate.path(8000)
    colouring = _some_colouring(g)
    meta = {"n": g.n}
    one_list = _peak_heap(lambda _: _format_in_one_list(g, colouring, meta), None)
    blocks = _peak_heap(lambda _: files.format_colouring(g, colouring, meta), None)
    assert blocks < 0.6 * one_list
