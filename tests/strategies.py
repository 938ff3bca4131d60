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


def _relabelled(draw, n: int, edges):
    perm = draw(st.permutations(range(n)))
    return build_graph(n, [(perm[u], perm[v]) for u, v in edges])


def _hang_trees(draw, start: int, n: int) -> list:
    # vertex v joins an earlier vertex, often the one just before it, so
    # that long paths turn up as well as bushy trees
    return [
        (draw(st.one_of(st.just(v - 1), st.integers(0, v - 1))), v)
        for v in range(start, n)
    ]


@st.composite
def trees(draw, max_n: int = 40):
    n = draw(st.integers(2, max_n))
    return _relabelled(draw, n, _hang_trees(draw, 1, n))


@st.composite
def unicyclic_graphs(draw, max_n: int = 40):
    # a cycle of any length, odd or even, with trees hung on it
    n = draw(st.integers(3, max_n))
    k = draw(st.integers(3, n))
    cycle = [(i, (i + 1) % k) for i in range(k)]
    return _relabelled(draw, n, cycle + _hang_trees(draw, k, n))


@st.composite
def twin_rich_graphs(draw, max_n: int = 7):
    """A complete multipartite graph, a star or K_n less a matching, relabelled.

    Vertices in one part, the leaves of a star, and the ends of a removed
    matching edge are twins (N(v) - {w} = N(w) - {v}), in large classes.
    """
    kind = draw(st.sampled_from(["multipartite", "star", "minus_matching"]))
    if kind == "multipartite":
        n = draw(st.integers(2, max_n))
        part = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
        if len(set(part)) == 1:
            part[0] += 1  # at least two parts keep it connected
        edges = [(u, v) for v in range(n) for u in range(v) if part[u] != part[v]]
    elif kind == "star":
        n = draw(st.integers(2, max_n))
        edges = [(0, v) for v in range(1, n)]
    else:
        n = draw(st.integers(3, max_n))
        removed = {(2 * i, 2 * i + 1) for i in range(draw(st.integers(0, n // 2)))}
        edges = [(u, v) for v in range(n) for u in range(v) if (u, v) not in removed]
    return _relabelled(draw, n, edges)
