"""Named graph families, canonical forms, and isomorph-free enumeration.

Families: cycle:k, path:r (r vertices), kbipartite:m,n, twotail:k,r.
twotail:k,r is an odd cycle of length k with two pendant paths of r edges
each hanging from a shared vertex; it has k + 2r vertices. Labels are
fixed: the shared vertex is 0, the remaining cycle vertices are 1..k-1 in
cycle order, then the first tail outward, then the second.

The canonical form of a graph is the lexicographically smallest adjacency
encoding over all vertex orderings that sort degrees ascending. The degree
sequence is an isomorphism invariant, so restricting to degree-sorted
orders keeps the form complete while pruning most of the n! search.

Each enumerator has one fixed size limit: CONNECTED_CAP = 8, the last
connected level that takes seconds, and HARD_CAP = 12 for odd-unicyclic
graphs. A larger n raises CapExceededError before anything is built.
"""

from __future__ import annotations

from typing import NamedTuple

from .exceptions import CapExceededError, InvalidParameterError
from .graphs import Graph, build_graph

CONNECTED_CAP = 8
HARD_CAP = 12


class FamilySpec(NamedTuple):
    kind: str  # "cycle" | "path" | "kbipartite" | "twotail"
    params: tuple[int, ...]

    def __str__(self) -> str:
        return "%s:%s" % (self.kind, ",".join(str(p) for p in self.params))


def parse_family(text: str) -> FamilySpec:
    """Parse strings like "cycle:5" or "twotail:3,2"."""
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidParameterError("family string %r needs kind:params" % text)
    try:
        params = tuple(int(p) for p in rest.split(","))
    except ValueError:
        raise InvalidParameterError("non-integer parameter in %r" % text) from None
    return FamilySpec(kind=kind.strip().lower(), params=params)


def _arity(spec: FamilySpec, want: int) -> tuple[int, ...]:
    if len(spec.params) != want:
        raise InvalidParameterError(
            "%s takes %d parameter(s), got %r" % (spec.kind, want, spec.params)
        )
    return spec.params


def family_arcs(spec: FamilySpec) -> int:
    """Arc count 2m of the family member, from its closed form.

    Raises InvalidParameterError for an unknown kind or a parameter out
    of range, and builds nothing, so a size cap can be applied before any
    allocation. make_family validates its spec through this function.
    """
    kind = spec.kind
    if kind == "cycle":
        (k,) = _arity(spec, 1)
        if k < 3:
            raise InvalidParameterError("cycle needs k >= 3, got %d" % k)
        return 2 * k
    if kind == "path":
        (r,) = _arity(spec, 1)
        if r < 2:
            raise InvalidParameterError("path needs >= 2 vertices, got %d" % r)
        return 2 * (r - 1)
    if kind == "kbipartite":
        m, n = _arity(spec, 2)
        if m < 1 or n < 1:
            raise InvalidParameterError("kbipartite needs m, n >= 1")
        return 2 * m * n
    if kind == "twotail":
        k, r = _arity(spec, 2)
        if k < 3 or k % 2 == 0:
            raise InvalidParameterError("twotail needs odd k >= 3, got %d" % k)
        if r < 1:
            raise InvalidParameterError("twotail needs r >= 1, got %d" % r)
        return 2 * (k + 2 * r)
    raise InvalidParameterError("unknown family kind %r" % spec.kind)


def make_family(spec: FamilySpec) -> Graph:
    family_arcs(spec)  # validates the kind and the parameters
    kind = spec.kind
    if kind == "cycle":
        (k,) = spec.params
        return build_graph(k, [(i, (i + 1) % k) for i in range(k)])
    if kind == "path":
        (r,) = spec.params
        return build_graph(r, [(i, i + 1) for i in range(r - 1)])
    if kind == "kbipartite":
        m, n = spec.params
        return build_graph(m + n, [(i, m + j) for i in range(m) for j in range(n)])
    k, r = spec.params  # twotail
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    for base in (k, k + r):  # two tails of r edges each
        edges.append((0, base))
        edges.extend((base + i, base + i + 1) for i in range(r - 1))
    return build_graph(k + 2 * r, edges)


def cycle_graph(k: int) -> Graph:
    return make_family(FamilySpec("cycle", (k,)))


def path_graph(r: int) -> Graph:
    return make_family(FamilySpec("path", (r,)))


def complete_bipartite(m: int, n: int) -> Graph:
    return make_family(FamilySpec("kbipartite", (m, n)))


def two_tail_graph(k: int, r: int) -> Graph:
    return make_family(FamilySpec("twotail", (k, r)))


def canonical_form(g: Graph) -> tuple[int, ...]:
    """Smallest degree-sorted adjacency encoding of g.

    Entry i-1 of the encoding is an integer whose bit j records adjacency
    between the vertices placed at positions i and j. Branch and bound:
    while the current prefix ties the incumbent, a candidate row larger
    than the incumbent's kills the whole branch (candidates are visited in
    ascending row order, so the first failure ends the level).
    """
    n = g.n
    if n == 1:
        return ()
    targets = sorted(g.degree)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(g.degree[v], []).append(v)
    adjbits = [0] * n
    for u in range(n):
        for v in g.adj[u]:
            adjbits[u] |= 1 << v

    best: list[int] | None = None
    perm: list[int] = []
    rows: list[int] = []
    placed = 0

    def rec(i: int, tight: bool) -> None:
        nonlocal best, placed
        if i == n:
            if best is None or rows < best:
                best = rows.copy()
            return
        scored = []
        for v in by_degree[targets[i]]:
            if (placed >> v) & 1:
                continue
            ab = adjbits[v]
            row = 0
            for j in range(i):
                if (ab >> perm[j]) & 1:
                    row |= 1 << j
            scored.append((row, v))
        scored.sort()
        for row, v in scored:
            if i > 0:
                if tight and best is not None:
                    if row > best[i - 1]:
                        break
                    child_tight = row == best[i - 1]
                else:
                    child_tight = tight and best is None
                rows.append(row)
            else:
                child_tight = tight
            perm.append(v)
            placed |= 1 << v
            rec(i + 1, child_tight)
            placed &= ~(1 << v)
            perm.pop()
            if i > 0:
                rows.pop()

    rec(0, True)
    assert best is not None
    return tuple(best)


def _check_size(n: int, limit: int, what: str) -> None:
    if n < 1:
        raise InvalidParameterError("%s needs n >= 1, got %d" % (what, n))
    if n > limit:
        raise CapExceededError("%s size %d exceeds the limit %d" % (what, n, limit))


_CONNECTED_CACHE: dict[int, tuple[Graph, ...]] = {}


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Level n graphs come from level n-1 graphs by joining a fresh vertex to
    every non-empty subset of old vertices; every connected graph has a
    non-cut vertex, so each class is reached. Duplicates fall to the
    canonical form. Results are cached per n and returned sorted by edge
    count then canonical form. n is at most CONNECTED_CAP.
    """
    _check_size(n, CONNECTED_CAP, "connected enumeration")
    if n in _CONNECTED_CACHE:
        return _CONNECTED_CACHE[n]
    if n == 1:
        reps = (build_graph(1, []),)
    else:
        smaller = enumerate_connected(n - 1)
        seen: dict[tuple[int, ...], Graph] = {}
        new = n - 1
        for h in smaller:
            base = list(h.edges)
            for mask in range(1, 1 << new):
                edges = base + [(v, new) for v in range(new) if (mask >> v) & 1]
                g = build_graph(n, edges)
                key = canonical_form(g)
                if key not in seen:
                    seen[key] = g
        reps = tuple(
            g for _, g in sorted(seen.items(), key=lambda kv: (kv[1].m, kv[0]))
        )
    _CONNECTED_CACHE[n] = reps
    return reps


_ODD_UNICYCLIC_CACHE: dict[int, tuple[Graph, ...]] = {}


def _rooted_trees(max_size: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Every rooted tree with at most max_size vertices, once each, numbered.

    A rooted tree is the multiset of the subtrees on its root's children
    (the AHU code of Aho, Hopcroft and Ullman), so tree t is stored as the
    numbers of those subtrees in non-increasing order, children[t]. Trees
    are numbered by size, then by that tuple; tree 0 is the lone vertex.
    first[s] is the number of the first tree with s vertices, and
    first[max_size + 1] is the count of all of them.
    """
    children: list[tuple[int, ...]] = [()]
    first = [0, 0, 1]

    def forests(total: int, top: int):
        # non-increasing tuples of tree numbers <= top whose sizes sum to total
        if total == 0:
            yield ()
            return
        for s in range(min(total, len(first) - 2), 0, -1):
            for t in range(min(top, first[s + 1] - 1), first[s] - 1, -1):
                for rest in forests(total - s, t):
                    yield (t,) + rest

    for size in range(2, max_size + 1):
        children.extend(sorted(forests(size - 1, len(children) - 1)))
        first.append(len(children))
    return children, first


def _cyclic_codes(k: int, n: int, first: list[int], size: list[int]):
    """Sequences of k tree numbers with sizes summing to n, in ascending
    order, each the least of its k rotations and k reflections.
    """
    seq = [0] * k

    def fill(i: int, budget: int):
        left = k - i  # positions still open, this one included
        if left == 1:
            lo, hi = first[budget], first[budget + 1]
        else:
            lo, hi = 0, first[budget - left + 2]
        for t in range(max(lo, seq[0] if i else 0), hi):
            seq[i] = t
            if left == 1:
                code = tuple(seq)
                mirror = code[::-1]
                if all(
                    code <= turn[j:] + turn[:j]
                    for turn in (code, mirror)
                    for j in range(k)
                ):
                    yield code
            else:
                yield from fill(i + 1, budget - size[t])

    yield from fill(0, n)


def enumerate_odd_unicyclic(n_max: int) -> tuple[Graph, ...]:
    """All connected graphs with |E| = |V| <= n_max whose cycle is odd.

    Built structurally, one graph per class: an odd-unicyclic graph is an
    odd cycle with a rooted tree hanging from each cycle vertex, and two
    such graphs are isomorphic exactly when their cyclic sequences of
    rooted trees agree up to rotation and reflection. So each class is
    the cyclic sequence of tree numbers (see _rooted_trees) that is the
    least of its 2k images. Cycle vertices are 0..k-1 in order, so the
    bare cycle is cycle_graph(k); each tree's vertices follow in preorder,
    trees in cycle order. Ordered by vertex count, girth, then the
    sequence of tree numbers. n_max is at most HARD_CAP.
    """
    _check_size(n_max, HARD_CAP, "odd unicyclic enumeration")
    if n_max in _ODD_UNICYCLIC_CACHE:
        return _ODD_UNICYCLIC_CACHE[n_max]
    children, first = _rooted_trees(max(n_max - 2, 1))
    size = [s for s in range(1, len(first) - 1) for _ in range(first[s], first[s + 1])]

    def hang(t: int, root: int, edges: list, free: int) -> int:
        for c in children[t]:
            edges.append((root, free))
            free = hang(c, free, edges, free + 1)
        return free

    ordered: list[Graph] = []
    for n in range(3, n_max + 1):
        for k in range(3, n + 1, 2):
            for code in _cyclic_codes(k, n, first, size):
                edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
                free = k
                for i, t in enumerate(code):
                    free = hang(t, i, edges, free)
                ordered.append(build_graph(n, edges))
    reps = tuple(ordered)
    _ODD_UNICYCLIC_CACHE[n_max] = reps
    return reps
