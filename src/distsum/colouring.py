"""Total colourings: one colour per vertex and per edge."""

from __future__ import annotations

from itertools import chain
from typing import NamedTuple

from .graphs import edge_key


class TotalColouring(NamedTuple):
    """Colours for every vertex and every edge of a graph.

    ``edge_colours`` is keyed by canonical (min, max) endpoint pairs.
    ``params`` is the PaletteParams the colouring was built against, or None
    for colourings from external sources.
    """

    vertex_colours: dict
    edge_colours: dict
    params: object = None

    def weighted_degree(self, g, v):
        """Vertex colour plus the sum of its incident edge colours."""
        return self.vertex_colours[v] + sum(
            self.edge_colours[edge_key(v, u)] for u in g.adjacency[v])

    def max_colour(self):
        return max(chain(self.vertex_colours.values(), self.edge_colours.values()), default=0)
