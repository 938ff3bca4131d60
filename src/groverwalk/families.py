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
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

from .exceptions import CapExceededError, InvalidParameterError
from .graphs import Graph, build_graph

ENUMERATION_CAP = 9
HARD_CAP = 12


@dataclass(frozen=True)
class FamilySpec:
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


def _check_cap(n: int, cap: int, what: str) -> None:
    if cap > HARD_CAP:
        raise CapExceededError(
            "%s cap %d exceeds the hard limit %d" % (what, cap, HARD_CAP)
        )
    if cap > ENUMERATION_CAP:
        warnings.warn(
            "%s cap raised to %d; expect long enumerations" % (what, cap),
            RuntimeWarning,
            stacklevel=3,
        )
    if n < 1:
        raise InvalidParameterError("%s needs n >= 1, got %d" % (what, n))
    if n > cap:
        raise CapExceededError("%s size %d exceeds cap %d" % (what, n, cap))


_CONNECTED_CACHE: dict[int, tuple[Graph, ...]] = {}


def enumerate_connected(n: int, cap: int = ENUMERATION_CAP) -> tuple[Graph, ...]:
    """All connected graphs on n vertices, one per isomorphism class.

    Level n graphs come from level n-1 graphs by joining a fresh vertex to
    every non-empty subset of old vertices; every connected graph has a
    non-cut vertex, so each class is reached. Duplicates fall to the
    canonical form. Results are cached per n and returned sorted by edge
    count then canonical form.
    """
    _check_cap(n, cap, "connected enumeration")
    if n in _CONNECTED_CACHE:
        return _CONNECTED_CACHE[n]
    if n == 1:
        reps = (build_graph(1, []),)
    else:
        smaller = enumerate_connected(n - 1, cap)
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


def enumerate_odd_unicyclic(n_max: int, cap: int = ENUMERATION_CAP) -> tuple[Graph, ...]:
    """All connected graphs with |E| = |V| <= n_max whose cycle is odd.

    Grown constructively: every odd cycle up to n_max, then pendant
    vertices attached in all positions, deduplicated canonically. Ordered
    by vertex count, then girth, then canonical form.
    """
    _check_cap(n_max, cap, "odd unicyclic enumeration")
    if n_max in _ODD_UNICYCLIC_CACHE:
        return _ODD_UNICYCLIC_CACHE[n_max]
    from .graphs import unicycle_decomposition

    by_size: dict[int, dict[tuple[int, ...], Graph]] = {
        s: {} for s in range(3, n_max + 1)
    }
    for k in range(3, n_max + 1, 2):
        g = cycle_graph(k)
        by_size[k][canonical_form(g)] = g
    for s in range(3, n_max):
        for g in list(by_size[s].values()):
            base = list(g.edges)
            for v in range(s):
                bigger = build_graph(s + 1, base + [(v, s)])
                key = canonical_form(bigger)
                if key not in by_size[s + 1]:
                    by_size[s + 1][key] = bigger
    ordered: list[Graph] = []
    for s in range(3, n_max + 1):
        items = [
            (unicycle_decomposition(g).girth, key, g)
            for key, g in by_size[s].items()
        ]
        items.sort(key=lambda it: (it[0], it[1]))
        ordered.extend(g for _, _, g in items)
    reps = tuple(ordered)
    _ODD_UNICYCLIC_CACHE[n_max] = reps
    return reps
