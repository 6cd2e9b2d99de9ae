"""Proper total colourings with distinct weighted degrees within a radius."""

from .colouring import TotalColouring
from .exact import exact_chi
from .graphs import Graph, GraphError, backward_stats, build_graph, degree_stats
from .ordering import (OrderingCertificate, check_conditions,
                       resample_until_valid)
from .palette import (PaletteParams, check_disjoint_shifts, compute_params,
                      headline_bound)
from .recolour import RunTrace, replay, run
from .verify import VerificationReport, verify

__all__ = [
    "Graph", "GraphError", "build_graph", "degree_stats",
    "backward_stats", "PaletteParams", "compute_params", "check_disjoint_shifts",
    "headline_bound", "TotalColouring", "OrderingCertificate",
    "check_conditions", "resample_until_valid",
    "run", "replay", "RunTrace", "verify", "VerificationReport",
    "exact_chi",
]
