"""Initial total colouring: fan-recolouring edge colours mapped into the edge
palette, then greedy vertex colours that are proper modulo the palette modulus.
"""

from __future__ import annotations

from .colouring import TotalColouring
from .graphs import edge_key


def edge_colour_indices(g):
    """Proper edge colouring with indices in [1, max_degree + 1].

    Misra-Gries style fan recolouring: build a maximal fan at one endpoint of
    the uncoloured edge, flip a two-colour alternating path when needed, then
    rotate a fan prefix.  Always succeeds on simple graphs.  Deterministic:
    edges are processed in sorted order and every choice takes the smallest
    candidate.
    """
    ncolours = g.max_degree + 1
    colour = {}
    at = [dict() for _ in range(g.n + 1)]  # at[v][c] = neighbour across the c-edge

    def free(v):
        for c in range(1, ncolours + 1):
            if c not in at[v]:
                return c
        raise AssertionError(f"no free colour at vertex {v}")

    def assign(u, v, c):
        # callers unassign an edge before giving it a new colour
        colour[edge_key(u, v)] = c
        at[u][c] = v
        at[v][c] = u

    def unassign(u, v):
        key = edge_key(u, v)
        old = colour.pop(key)
        del at[u][old]
        del at[v][old]
        return old

    def maximal_fan(u, v):
        fan = [v]
        used = {v}
        while True:
            last = fan[-1]
            nxt = None
            for c in sorted(at[u]):
                w = at[u][c]
                if w not in used and c not in at[last]:
                    nxt = w
                    break
            if nxt is None:
                return fan
            fan.append(nxt)
            used.add(nxt)

    def invert_path(u, c, d):
        # Maximal path from u alternating colours d, c, d, ...; swap c <-> d.
        path = []
        cur, want = u, d
        while want in at[cur]:
            nxt = at[cur][want]
            path.append((cur, nxt, want))
            cur, want = nxt, (c if want == d else d)
        for a, b, _ in path:
            unassign(a, b)
        for a, b, col in path:
            assign(a, b, c if col == d else d)

    def rotate(u, fan, upto, d):
        shifted = [colour[edge_key(u, fan[j + 1])] for j in range(upto)]
        for j in range(upto):
            unassign(u, fan[j + 1])
        for j in range(upto):
            assign(u, fan[j], shifted[j])
        assign(u, fan[upto], d)

    for (u, v) in g.edges:
        fan = maximal_fan(u, v)
        c = free(u)
        d = free(fan[-1])
        if d not in at[u]:
            rotate(u, fan, len(fan) - 1, d)
            continue
        invert_path(u, c, d)
        # The flip swaps only c and d, which no fan edge before the d-edge at u
        # carries, so the first fan vertex with d free still ends a fan.
        for i, w in enumerate(fan):
            if d not in at[w]:
                rotate(u, fan, i, d)
                break
        else:
            raise AssertionError("fan recolouring found no rotation target")
    return colour


def map_indices_to_palette(indices, params):
    """Replace index j on each edge by the j-th smallest edge-palette element."""
    return {key: params.element(j) for key, j in indices.items()}


def greedy_vertex_colours(g, edge_colours, params):
    """Smallest vertex colour in [1, modulus] keeping the total colouring
    proper modulo the modulus; vertices processed in ascending id."""
    modulus = params.modulus
    out = {}
    for v in g.vertices():
        banned = set()
        for u in g.adjacency[v]:
            if u in out:
                banned.add(out[u] % modulus)
            banned.add(edge_colours[edge_key(v, u)] % modulus)
        for c in range(1, modulus + 1):
            if c % modulus not in banned:
                out[v] = c
                break
        else:
            raise AssertionError(
                f"no free residue for vertex {v}: modulus too small")
    return out


def base_total_colouring(g, params):
    """Edge palette colours plus greedy vertices; proper modulo the modulus."""
    indices = edge_colour_indices(g)
    edges = map_indices_to_palette(indices, params)
    vertices = greedy_vertex_colours(g, edges, params)
    return TotalColouring(vertices, edges, params)
