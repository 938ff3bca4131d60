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


def _pool(draw, n: int, edges: list) -> tuple:
    """edges grown to n vertices: each vertex past those that edges use is
    left untouched or hangs on an earlier one; then relabelled, as a sorted
    tuple of pairs (u, v), u < v."""
    start = 1 + max((v for e in edges for v in e), default=-1)
    for v in range(max(start, 1), n):
        how = draw(st.sampled_from(["untouched", "hang", "hang", "hang"]))
        if how == "hang":
            edges.append((draw(st.integers(0, v - 1)), v))
    perm = draw(st.permutations(range(n)))
    return tuple(sorted(tuple(sorted((perm[u], perm[v]))) for u, v in edges))


def _ring(first: int, k: int) -> list:
    return [(first + i, first + (i + 1) % k) for i in range(k)]


@st.composite
def forest_pools(draw, max_n: int = 10):
    """(n, pool): a forest on 0..n-1, some vertices untouched."""
    n = draw(st.integers(1, max_n))
    return n, _pool(draw, n, [])


@st.composite
def unicyclic_pools(draw, max_n: int = 10):
    """(n, pool): one cycle of any length with trees, more trees and
    untouched vertices beside it."""
    n = draw(st.integers(3, max_n))
    return n, _pool(draw, n, _ring(0, draw(st.integers(3, n))))


@st.composite
def multicyclic_pools(draw, max_n: int = 10):
    """(n, pool): two or more cycles, disjoint, sharing a chord, or sharing
    a path, with trees, and sometimes more edges, beside them."""
    n = draw(st.integers(4, max_n))
    k = draw(st.integers(3, n - 1))
    kind = draw(st.sampled_from(["disjoint", "chord", "theta"]))
    if kind == "disjoint" and n - k >= 3:
        edges = _ring(0, k) + _ring(k, draw(st.integers(3, n - k)))
    elif kind == "chord" and k >= 4:
        edges = _ring(0, k) + [(0, draw(st.integers(2, k - 2)))]
    else:  # vertex k joins two cycle vertices: a theta
        edges = _ring(0, k) + [(0, k), (draw(st.integers(1, k - 1)), k)]
    pool = set(_pool(draw, n, edges))
    spare = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in pool]
    if spare:
        pool |= draw(st.sets(st.sampled_from(spare), max_size=2))
    return n, tuple(sorted(pool))
