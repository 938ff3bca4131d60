"""Hypothesis strategies shared by the property tests."""

from hypothesis import strategies as st

from groverwalk.graphs import build_graph


@st.composite
def connected_graphs(draw, max_n: int = 6):
    n = draw(st.integers(2, max_n))
    # a random spanning tree keeps the graph connected
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in edges]
    if spare:
        edges |= draw(st.sets(st.sampled_from(spare)))
    return build_graph(n, sorted(edges))
