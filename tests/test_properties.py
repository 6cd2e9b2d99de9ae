"""Property test: every run on a small graph verifies within palette_max."""

from hypothesis import given, settings
from hypothesis import strategies as st

from distsum import build_graph, run, verify

MAX_DEGREE = 8


@st.composite
def small_graphs(draw):
    """Graphs with n <= 30 and max degree <= MAX_DEGREE."""
    n = draw(st.integers(1, 30))
    pairs = [(u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1)]
    chosen = draw(st.lists(st.sampled_from(pairs), unique=True,
                           max_size=4 * n)) if pairs else []
    degree = [0] * (n + 1)
    edges = []
    for u, v in chosen:
        if degree[u] < MAX_DEGREE and degree[v] < MAX_DEGREE:
            edges.append((u, v))
            degree[u] += 1
            degree[v] += 1
    return build_graph(n, edges)


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(g=small_graphs(), radius=st.sampled_from([1, 2, 3]),
       seed=st.integers(0, 2 ** 16))
def test_runs_verify_within_palette(g, radius, seed):
    col, trace, _ = run(g, radius, seed)
    assert verify(g, col, radius).passed
    assert trace.fallback_count == 0
    assert col.max_colour() <= col.params.palette_max
