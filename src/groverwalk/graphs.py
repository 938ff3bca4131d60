"""Finite simple connected graphs and their combinatorial structure.

Vertices are 0..n-1. Edges are stored as sorted pairs (u, v) with u < v, and
the edge list itself is kept sorted, which fixes a canonical order for
everything downstream (the arcs of walk, file output).

peel_leaves is the one leaf peel, of any pool of edges. The peel of the
whole graph is memoised on it (_whole_peel), so classify and the
structural charpoly in walk share it. Nothing is kept between graphs.
"""

from __future__ import annotations

import functools
import math
import operator
from collections import deque
from typing import TYPE_CHECKING, NamedTuple, Sequence, TextIO

from .exceptions import (
    CapExceededError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    InvalidParameterError,
    LoopEdgeError,
    ParseError,
)

if TYPE_CHECKING:
    from fractions import Fraction

Edge = tuple[int, int]

# Most edges a graph file may declare; the arc operator is 2m x 2m, and at
# this size one analyze takes seconds.
MAX_FILE_EDGES = 64

# Most characters a graph file may hold. A file of MAX_FILE_EDGES edges fits
# many times over, comments included; a longer one is refused after one
# bounded read, however its lines are broken.
MAX_FILE_CHARS = 1 << 16

# Most characters of a malformed line that a ParseError quotes.
_QUOTE_CHARS = 60


def _read_int(token: str) -> int:
    """One reader for the integers of a graph file, a family string and a
    CLI value: an optional sign and ASCII digits, once stripped. Anything
    else raises ValueError, "1_0" and "\u0663" too, which int() reads as 10
    and 3. At 2^63 or more in absolute value, far beyond any valid input,
    OverflowError keeps the error short; int() never reads past 19 digits.
    """
    text = token.strip()
    digits = text[1:] if text[:1] in ("+", "-") else text
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError("not an integer")
    digits = digits.lstrip("0") or "0"
    if len(digits) > 19 or int(digits) >= 1 << 63:
        raise OverflowError("integer out of range")
    return -int(digits) if text[0] == "-" else int(digits)


def _two_colour(adj: Sequence[frozenset[int]]) -> tuple[int, bool]:
    """Breadth-first 2-colouring from vertex 0: how many vertices it
    reaches, and whether no edge among them joins two of one colour."""
    colour = [-1] * len(adj)
    colour[0] = 0
    queue = deque([0])
    reached, proper = 1, True
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if colour[v] < 0:
                colour[v] = 1 - colour[u]
                reached += 1
                queue.append(v)
            elif colour[v] == colour[u]:
                proper = False
    return reached, proper


def _memoised(fn):
    """fn(g, *args), computed once per Graph object g and args: the value is
    kept in g._memo under (fn, args) and freed with g. A miss runs the
    wrapper's __wrapped__; fn never returns None."""

    @functools.wraps(fn)
    def memoised(g, *args):
        key = (fn, args)
        value = g._memo.get(key)
        if value is None:
            value = g._memo[key] = memoised.__wrapped__(g, *args)
        return value

    return memoised


def _vertex_id(value, what: str) -> int:
    """value as an int through operator.index; bools and ints pass."""
    try:
        return operator.index(value)
    except TypeError:
        raise InvalidParameterError("%s %r is not an integer" % (what, value)) from None


class Graph:
    """Simple connected graph with a fixed canonical edge order."""

    __slots__ = ("n", "edges", "adj", "degree", "_memo")

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
        self._memo = {}  # the values of the _memoised functions of this graph
        reached, _ = _two_colour(self.adj)
        if reached != n:
            raise DisconnectedError(
                "graph is not connected (%d of %d vertices reachable from 0)"
                % (reached, n)
            )

    @property
    def m(self) -> int:
        return len(self.edges)

    @property
    def degree_lcm(self) -> int:
        """L, the lcm of the degrees (1 for the single vertex): the walk
        matrices are L*U and L*T, and edge uv weighs (L/deg u)(L/deg v) / L^2."""
        return math.lcm(*self.degree) or 1

    def relabel(self, perm: Sequence[int]) -> "Graph":
        """New graph with vertex i renamed perm[i]."""
        return Graph(self.n, [(perm[u], perm[v]) for u, v in self.edges])

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Graph) and self.n == other.n and self.edges == other.edges
        )

    def __hash__(self) -> int:
        return hash((self.n, self.edges))

    def __reduce__(self):
        # a copy is rebuilt from the edges, with an empty memo
        return Graph, (self.n, self.edges)

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
    """The unique cycle of a unicyclic graph and its length.

    The cycle starts at its smallest vertex id and proceeds toward that
    vertex's smaller-id cycle neighbour, which makes the tuple canonical.
    """

    cycle: tuple[int, ...]
    girth: int


class Classification(NamedTuple):
    kind: str  # "tree" | "bipartite" | "odd_unicycle" | "other"
    decomposition: UnicycleDecomposition | None = None


def peel_leaves(n: int, pool: Sequence[Edge]) -> tuple[tuple, tuple, tuple, tuple]:
    """The one leaf peel: remove degree-one vertices from the graph of pool,
    on 0..n-1, until none is left, in time linear in n + len(pool). The
    result holds the removals, each a (leaf, neighbour) pair taken off with
    its last edge, in order; the roots, the vertices of pool left with no
    edge and never peeled, one per tree; the cycle, when what is left is
    one cycle, from its smallest vertex toward its smaller cycle neighbour,
    else (); and the core, the edges of pool left, in order.
    """
    left = [0] * n  # degree among the vertices not yet peeled
    link = [0] * n  # the xor of those neighbours: the last one, at degree 1
    for u, v in pool:
        left[u] += 1
        left[v] += 1
        link[u] ^= v
        link[v] ^= u
    removals, roots = [], []
    leaves = [v for e in pool for v in e if left[v] == 1]  # each once: one edge
    while leaves:
        u = leaves.pop()
        if left[u] != 1:
            roots.append(u)  # the last vertex of a tree, left with degree 0
            continue
        left[u] = 0
        v = link[u]
        removals.append((u, v))
        left[v] -= 1
        link[v] ^= u
        if left[v] == 1:
            leaves.append(v)
    core = tuple(e for e in pool if left[e[0]] and left[e[1]])
    rest, cycle = set().union(*core), []
    if core and len(rest) == len(core):
        # as many edges as vertices, each of degree 2: every part is a cycle,
        # and the walk from one neighbour of start reads the next off a link
        start = min(rest)
        x, y = next(e for e in core if start in e)
        cycle, cur = [start], min(x ^ y ^ start, link[start] ^ x ^ y ^ start)
        while cur != start:
            cycle.append(cur)
            cur = link[cur] ^ cycle[-2]
    cycle = tuple(cycle) if len(cycle) == len(rest) else ()
    return tuple(removals), tuple(roots), cycle, core


@_memoised
def _whole_peel(g: Graph) -> tuple[tuple, tuple, tuple, tuple]:
    """peel_leaves of all of g, memoised on g for classify and walk."""
    return peel_leaves(g.n, g.edges)


def unicycle_decomposition(g: Graph) -> UnicycleDecomposition:
    """The cycle of a unicyclic graph, as peel_leaves finds it."""
    if g.m != g.n:
        raise InvalidParameterError(
            "a unicyclic graph has m = n, got m=%d n=%d" % (g.m, g.n)
        )
    cycle = _whole_peel(g)[2]
    return UnicycleDecomposition(cycle=cycle, girth=len(cycle))


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
    if _two_colour(g.adj)[1]:
        return Classification("bipartite")
    return Classification("other")


def _quote(raw: str) -> str:
    """repr of the stripped text, cut after _QUOTE_CHARS characters of it and
    its escapes, so that an error on a huge or unprintable line stays short."""
    quoted = repr(raw.strip())
    if len(quoted) <= _QUOTE_CHARS + 2:
        return quoted
    return quoted[: _QUOTE_CHARS + 1] + "..."


def read_graph_file(source: str | TextIO) -> Graph:
    """Parse the plain edge-list format from a str or a text stream.

    A stream is read once, for at most MAX_FILE_CHARS + 1 characters, and
    text longer than MAX_FILE_CHARS raises CapExceededError. A lone
    surrogate, which errors="surrogateescape" makes of a byte that is not
    UTF-8, raises ParseError with its byte offset; a leading byte-order
    mark is dropped. The text is split by str.splitlines. First
    non-comment line is "n m"; the next m non-comment lines are "u v"
    pairs. '#' starts a comment, blank lines are skipped, tokens are
    whitespace separated. A header declaring more than MAX_FILE_EDGES
    edges raises CapExceededError before any later line is parsed.
    Malformed input, a token that _read_int refuses included, raises
    ParseError with the line number and at most 60 characters of the
    line; graph validation errors propagate from build_graph.
    """
    text = source if isinstance(source, str) else source.read(MAX_FILE_CHARS + 1)
    if len(text) > MAX_FILE_CHARS:
        raise CapExceededError(
            "graph file exceeds %d characters, the most accepted" % MAX_FILE_CHARS
        )
    if not text.isascii():
        try:
            text.encode("utf-8")
        except UnicodeEncodeError as err:
            offset = len(text[: err.start].encode("utf-8"))
            raise ParseError("not UTF-8 text at byte offset %d" % offset) from None
        text = text.removeprefix("\ufeff")
    header: tuple[int, int] | None = None
    edges: list[tuple[int, int]] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split(None, 2)  # a third part is already an error
        if len(parts) != 2:
            raise ParseError("expected two integers, got %s" % _quote(raw), lineno)
        try:
            a, b = _read_int(parts[0]), _read_int(parts[1])
        except ValueError:
            raise ParseError("non-integer token in %s" % _quote(raw), lineno) from None
        except OverflowError:
            raise ParseError("integer out of range in %s" % _quote(raw), lineno) from None
        if header is None:
            if b > MAX_FILE_EDGES:
                msg = "header m=%d gives %d arcs; at most %d are accepted"
                raise CapExceededError(msg % (b, 2 * b, 2 * MAX_FILE_EDGES))
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
    from fractions import Fraction

    u, v = e
    if v not in g.adj[u]:
        raise InvalidParameterError("(%d, %d) is not an edge" % (u, v))
    return Fraction(1, g.degree[u]) * Fraction(1, g.degree[v])
