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

    Each vertex keeps its colours twice: at[v] maps a colour to the neighbour
    across that edge, and the int bitmask used[v] has bit c set for every
    colour c at v (bit 0 always set, so it is never a candidate).  The free
    colour of v is the lowest zero bit of used[v], and the next fan vertex is
    across the lowest colour in used[u] & ~used[last] & ~taken, where taken
    holds the colours of the fan so far.  Both are the smallest candidates a
    scan of the colours in ascending order would pick, so every choice, and
    with it the colouring, is the one that scan makes.
    """
    at = [dict() for _ in range(g.n + 1)]  # at[v][c] = neighbour across the c-edge
    used = [1] * (g.n + 1)

    def free(v):
        x = used[v]
        return ((x + 1) & ~x).bit_length() - 1

    def invert_path(u, c, d):
        # Maximal path from u alternating colours d, c, d, ...; swap c <-> d.
        # Inner path vertices keep both colours; each end trades one for the other.
        path = []
        cur, want = u, d
        while want in at[cur]:
            nxt = at[cur][want]
            path.append((cur, nxt, want))
            cur, want = nxt, (c if want == d else d)
        both = (1 << c) | (1 << d)
        for a, b, col in path:
            del at[a][col], at[b][col]
            used[a] ^= both
            used[b] ^= both
        for a, b, col in path:
            new = c if col == d else d
            at[a][new] = b
            at[b][new] = a

    def rotate(u, fan, cols, upto, d):
        # (u, fan[j]) takes the colour of (u, fan[j + 1]); (u, fan[upto]) takes d.
        for j in range(upto):
            w = fan[j + 1]
            del at[w][cols[j]]
            used[w] ^= 1 << cols[j]
        for j in range(upto):
            w = fan[j]
            at[u][cols[j]] = w
            at[w][cols[j]] = u
            used[w] |= 1 << cols[j]
        w = fan[upto]
        at[u][d] = w
        at[w][d] = u
        used[u] |= 1 << d
        used[w] |= 1 << d

    for (u, v) in g.edges:
        fan, cols = [v], []  # cols[j] is the colour of the edge (u, fan[j + 1])
        taken = 0
        while True:
            options = used[u] & ~used[fan[-1]] & ~taken
            if not options:
                break
            c = (options & -options).bit_length() - 1
            fan.append(at[u][c])
            cols.append(c)
            taken |= 1 << c
        c = free(u)
        d = free(fan[-1])
        if not used[u] >> d & 1:
            rotate(u, fan, cols, len(fan) - 1, d)
            continue
        invert_path(u, c, d)
        cols = [c if x == d else x for x in cols]
        # The flip swaps only c and d, which no fan edge before the d-edge at u
        # carries, so the first fan vertex with d free still ends a fan.
        upto = next((i for i, w in enumerate(fan) if not used[w] >> d & 1),
                    None)
        if upto is None:
            raise AssertionError("fan recolouring found no rotation target")
        rotate(u, fan, cols, upto, d)
    colour_of = [{w: c for c, w in across.items()} for across in at]
    return {(u, v): colour_of[u][v] for u, v in g.edges}


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
