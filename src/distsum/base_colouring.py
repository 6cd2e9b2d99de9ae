"""Initial total colouring: edge colours (a common free colour, else
Misra-Gries fan recolouring) mapped into the edge palette, distinct modulo
the palette modulus at each vertex.  It colours no vertex: each vertex takes
its colour at its own recolouring step.
"""

from __future__ import annotations

from .colouring import TotalColouring


def edge_colour_indices(g):
    """Proper edge colouring with indices in [1, max_degree + 1].

    Edges are processed in sorted order.  Edge (u, v) takes the lowest colour
    c <= max_degree + 1 that is free at both ends when there is one.  Only
    when every such colour is used at u or at v does it take the Misra-Gries
    fan step (Misra & Gries, IPL 41, 1992): build a maximal fan at u, flip a
    two-colour alternating path when needed, then rotate a fan prefix.  The
    fan step is valid from any partial proper colouring, so the two mix
    freely, and it always succeeds on simple graphs.  Deterministic: every
    choice takes the smallest candidate.

    Each vertex keeps its colours twice: at[v] maps a colour to the neighbour
    across that edge, and the int bitmask used[v] has bit c set for every
    colour c at v (bit 0 always set, so it is never a candidate).  The lowest
    common free colour is the lowest zero bit of used[u] | used[v], the free
    colour of v the lowest zero bit of used[v], and the next fan vertex is
    across the lowest colour in used[u] & ~used[last] & ~taken, where taken
    holds the colours of the fan so far.  The map returned is keyed by the
    graph's own g.edges tuples, in edge order: each edge enters it at its
    turn, and a later flip or rotation only rewrites its value, so the
    colourings built on it hold no second key per edge.
    """
    at = [dict() for _ in range(g.n + 1)]  # at[v][c] = neighbour across the c-edge
    used = [1] * (g.n + 1)
    colour = {}                            # g.edges key -> colour, in edge order

    def lowest_free(mask):
        # The lowest colour whose bit is clear in mask.
        return ((mask + 1) & ~mask).bit_length() - 1

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
            colour[(a, b) if a < b else (b, a)] = new

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
            colour[(u, w) if u < w else (w, u)] = cols[j]
        w = fan[upto]
        at[u][d] = w
        at[w][d] = u
        used[u] |= 1 << d
        used[w] |= 1 << d
        colour[(u, w) if u < w else (w, u)] = d

    top = g.max_degree + 1
    for key in g.edges:
        u, v = key
        c = lowest_free(used[u] | used[v])
        colour[key] = c                    # a c past top is the fan step's to set
        if c <= top:
            at[u][c] = v
            at[v][c] = u
            used[u] |= 1 << c
            used[v] |= 1 << c
            continue
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
        c = lowest_free(used[u])
        d = lowest_free(used[fan[-1]])
        if not used[u] >> d & 1:
            rotate(u, fan, cols, len(fan) - 1, d)
            continue
        invert_path(u, c, d)
        cols = [c if x == d else x for x in cols]
        # The flip swaps only c and d, which no fan edge before the d-edge at u
        # carries, so the first fan vertex with d free still ends a fan.
        upto = next(i for i, w in enumerate(fan) if not used[w] >> d & 1)
        rotate(u, fan, cols, upto, d)
    return colour


def base_total_colouring(g, params):
    """Edge palette colours, distinct modulo the modulus at each vertex, and
    no vertex colour yet: the edge of colour index j takes the j-th smallest
    edge-palette element.  Keyed by g.edges' own tuples, in edge order."""
    palette = (None, *params.elements())
    edges = {key: palette[j] for key, j in edge_colour_indices(g).items()}
    return TotalColouring({}, edges, params)
