"""Finite simple connected graphs and their combinatorial structure.

Vertices are 0..n-1. Edges are stored as sorted pairs (u, v) with u < v, and
the edge list itself is kept sorted, which fixes a canonical order for
everything downstream (arcs, matchings, file output).

An arc is an ordered traversal of an edge. Arcs are totally ordered by
(min endpoint, max endpoint, direction flag), so edge i contributes arcs
2*i (low to high) and 2*i + 1 (high to low).

A graph with m <= n is peeled leaf by leaf once: peel_leaves is memoised,
so classify (through unicycle_decomposition) and the structural
characteristic polynomial in walk read the same removals and cycle.
"""

from __future__ import annotations

import functools
import operator
from collections import deque
from fractions import Fraction
from typing import Iterator, NamedTuple, Sequence

from .exceptions import (
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    InvalidParameterError,
    LoopEdgeError,
    ParseError,
)

Edge = tuple[int, int]


class Arc(NamedTuple):
    origin: int
    terminus: int

    def reverse(self) -> "Arc":
        return Arc(self.terminus, self.origin)


def _vertex_id(value, what: str) -> int:
    """value as an int through operator.index; bools and ints pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError("%s %r is not an integer" % (what, value)) from None


class Graph:
    """Simple connected graph with a fixed canonical edge order."""

    __slots__ = ("n", "edges", "adj", "degree")

    def __init__(self, n: int, edges: Sequence[tuple[int, int]]):
        n = _vertex_id(n, "vertex count")
        if n < 1:
            raise EmptyGraphError("graph needs at least one vertex, got n=%d" % n)
        seen: set[Edge] = set()
        norm: list[Edge] = []
        for pair in edges:
            try:
                u, v = pair
            except (TypeError, ValueError):
                raise InvalidParameterError("edge %r is not a pair" % (pair,)) from None
            u, v = _vertex_id(u, "vertex id"), _vertex_id(v, "vertex id")
            if not (0 <= u < n and 0 <= v < n):
                raise InvalidParameterError(
                    "edge (%r, %r) references a vertex outside 0..%d" % (u, v, n - 1)
                )
            if u == v:
                raise LoopEdgeError("loop at vertex %d" % u)
            e = (u, v) if u < v else (v, u)
            if e in seen:
                raise DuplicateEdgeError("edge %r listed twice" % (e,))
            seen.add(e)
            norm.append(e)
        if len(norm) < n - 1:
            # checked before any per-vertex allocation, so a huge declared n
            # with few edges is rejected at once
            raise DisconnectedError(
                "graph is not connected (%d vertices need at least %d edges, got %d)"
                % (n, n - 1, len(norm))
            )
        norm.sort()
        self.n = n
        self.edges = tuple(norm)
        adj: list[set[int]] = [set() for _ in range(n)]
        for u, v in norm:
            adj[u].add(v)
            adj[v].add(u)
        self.adj = tuple(frozenset(s) for s in adj)
        self.degree = tuple(len(s) for s in adj)
        self._check_connected()

    def _check_connected(self) -> None:
        seen = {0}
        queue = deque([0])
        while queue:
            u = queue.popleft()
            for v in self.adj[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        if len(seen) != self.n:
            raise DisconnectedError(
                "graph is not connected (%d of %d vertices reachable from 0)"
                % (len(seen), self.n)
            )

    @property
    def m(self) -> int:
        return len(self.edges)

    def arcs(self) -> tuple[Arc, ...]:
        out: list[Arc] = []
        for u, v in self.edges:
            out.append(Arc(u, v))
            out.append(Arc(v, u))
        return tuple(out)

    def has_edge(self, u: int, v: int) -> bool:
        return v in self.adj[u]

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex i renamed perm[i]."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __repr__(self) -> str:
        return "Graph(n=%d, edges=%r)" % (self.n, list(self.edges))


def build_graph(n: int, edges: Sequence[tuple[int, int]]) -> Graph:
    """Validate and build a simple connected graph.

    Raises EmptyGraphError, LoopEdgeError, DuplicateEdgeError,
    DisconnectedError, or InvalidParameterError as appropriate. The single
    vertex graph (n=1, no edges) is accepted; it is the only graph allowed
    to carry a degree-zero vertex.
    """
    return Graph(n, edges)


class UnicycleDecomposition(NamedTuple):
    """The unique cycle of a unicyclic graph plus the off-cycle edges.

    The cycle starts at its smallest vertex id and proceeds toward that
    vertex's smaller-id cycle neighbour, which makes the tuple canonical.
    """

    cycle: tuple[int, ...]
    girth: int
    forest_edges: tuple[Edge, ...]

    def cycle_edges(self) -> tuple[Edge, ...]:
        k = len(self.cycle)
        out = []
        for i in range(k):
            u, v = self.cycle[i], self.cycle[(i + 1) % k]
            out.append((u, v) if u < v else (v, u))
        return tuple(sorted(out))


class Classification(NamedTuple):
    kind: str  # "tree" | "bipartite" | "odd_unicycle" | "other"
    decomposition: UnicycleDecomposition | None = None


def _two_colorable(g: Graph) -> bool:
    color = [-1] * g.n
    color[0] = 0
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in g.adj[u]:
            if color[v] == -1:
                color[v] = 1 - color[u]
                queue.append(v)
            elif color[v] == color[u]:
                return False
    return True


@functools.lru_cache(maxsize=256)
def peel_leaves(g: Graph) -> tuple[tuple[Edge, ...], tuple[int, ...]]:
    """Remove degree-one vertices until none is left, then walk what remains.

    g must be connected with m <= n. Returns the removals, each a
    (leaf, neighbour) pair taken off with its last edge, in order, and the
    cycle that is left: it starts at its smallest vertex id and proceeds
    toward that vertex's smaller-id cycle neighbour. A tree peels down to
    one vertex, the neighbour of the last removal, and leaves no cycle.
    Cached, like walk.transition_charpoly; the result is immutable.
    """
    if g.m > g.n:
        raise InvalidParameterError(
            "leaf peeling needs m <= n, got m=%d n=%d" % (g.m, g.n)
        )
    left = list(g.degree)  # degree among the vertices not yet peeled
    removals: list[Edge] = []
    leaves = [v for v in range(g.n) if left[v] == 1]
    while leaves:
        u = leaves.pop()
        if left[u] != 1:
            continue  # the last vertex of a tree, left with degree 0
        left[u] = 0
        v = next(w for w in g.adj[u] if left[w])
        removals.append((u, v))
        left[v] -= 1
        if left[v] == 1:
            leaves.append(v)
    rest = [w for w in range(g.n) if left[w]]
    if not rest:
        return tuple(removals), ()
    start = rest[0]
    cycle = [start, min(w for w in g.adj[start] if left[w])]
    while True:
        nxt = next(w for w in g.adj[cycle[-1]] if left[w] and w != cycle[-2])
        if nxt == start:
            return tuple(removals), tuple(cycle)
        cycle.append(nxt)


def unicycle_decomposition(g: Graph) -> UnicycleDecomposition:
    """The cycle of a unicyclic graph, as peel_leaves finds it, and the peeled edges."""
    if g.m != g.n:
        raise InvalidParameterError(
            "a unicyclic graph has m = n, got m=%d n=%d" % (g.m, g.n)
        )
    removals, cycle = peel_leaves(g)
    forest = tuple(sorted((u, v) if u < v else (v, u) for u, v in removals))
    return UnicycleDecomposition(cycle=cycle, girth=len(cycle), forest_edges=forest)


def classify(g: Graph) -> Classification:
    """Sort a graph into tree / bipartite / odd unicycle / other.

    With |E| = |V| the graph has one cycle, and it is bipartite exactly
    when that cycle is even, so the girth decides; odd_unicycle carries
    the decomposition. Denser graphs are 2-coloured.
    """
    if g.m == g.n - 1:
        return Classification("tree")
    if g.m == g.n:
        dec = unicycle_decomposition(g)
        if dec.girth % 2 == 0:
            return Classification("bipartite")
        return Classification("odd_unicycle", dec)
    if _two_colorable(g):
        return Classification("bipartite")
    return Classification("other")


def enumerate_matchings(
    g: Graph, t: int, allowed_edges: Sequence[Edge] | None = None
) -> Iterator[tuple[Edge, ...]]:
    """Yield every t-matching once, in canonical edge order.

    A t-matching is a set of t pairwise vertex-disjoint edges drawn from
    allowed_edges (default: all edges). t=0 yields the single empty
    matching.
    """
    if t < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % t)
    if allowed_edges is None:
        pool = g.edges
    else:
        allowed = {(u, v) if u < v else (v, u) for u, v in allowed_edges}
        pool = [e for e in g.edges if e in allowed]

    chosen: list[Edge] = []
    used: set[int] = set()

    def rec(start: int) -> Iterator[tuple[Edge, ...]]:
        if len(chosen) == t:
            yield tuple(chosen)
            return
        # not enough edges left to finish
        if len(pool) - start < t - len(chosen):
            return
        for i in range(start, len(pool)):
            u, v = pool[i]
            if u in used or v in used:
                continue
            chosen.append(pool[i])
            used.update((u, v))
            yield from rec(i + 1)
            chosen.pop()
            used.difference_update((u, v))

    yield from rec(0)


def read_graph_file(text: str) -> Graph:
    """Parse the plain edge-list format.

    First non-comment line is "n m"; the next m non-comment lines are
    "u v" pairs. '#' starts a comment, blank lines are skipped, tokens are
    whitespace separated. Malformed input raises ParseError with the line
    number; graph validation errors propagate from build_graph.
    """
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError("expected two integers, got %r" % raw.strip(), lineno)
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError:
            raise ParseError("non-integer token in %r" % raw.strip(), lineno) from None
        if header is None:
            header = (a, b)
        else:
            if len(edges) >= header[1]:
                raise ParseError("more edges than the declared m=%d" % header[1], lineno)
            edges.append((a, b))
    if header is None:
        raise ParseError("no header line found", None)
    n, m = header
    if len(edges) != m:
        raise ParseError("declared m=%d but found %d edges" % (m, len(edges)), None)
    return build_graph(n, edges)


def write_graph_file(g: Graph) -> str:
    """Render a graph in the edge-list format, edges in canonical order."""
    lines = ["%d %d" % (g.n, g.m)]
    lines.extend("%d %d" % e for e in g.edges)
    return "\n".join(lines) + "\n"


def edge_weight(g: Graph, e: tuple[int, int]) -> Fraction:
    """Reciprocal degree product of the endpoints, as an exact fraction."""
    u, v = e
    if not g.has_edge(u, v):
        raise InvalidParameterError("(%d, %d) is not an edge" % (u, v))
    return Fraction(1, g.degree[u]) * Fraction(1, g.degree[v])
