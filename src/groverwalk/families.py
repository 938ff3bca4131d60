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
Twins, v and w with N(v) - {w} = N(w) - {v}, can be swapped by an
automorphism that fixes every other vertex; the canonical search places
only the least of a set of unplaced twins, and the connected enumeration
skips each join that such a swap maps onto a smaller one.

Both enumerators stream one Graph per class and keep none; the connected
one keeps a level as adjacency bitmasks. Each has one fixed size limit:
CONNECTED_CAP = 8, the last connected level that takes seconds, and
HARD_CAP = 12 for odd-unicyclic graphs. A larger n raises
CapExceededError before anything is built.
"""

from __future__ import annotations

from typing import Iterator, NamedTuple

from .exceptions import CapExceededError, InvalidParameterError
from .graphs import _QUOTE_CHARS, Graph, _quote, _read_int, build_graph

CONNECTED_CAP = 8
HARD_CAP = 12


class FamilySpec(NamedTuple):
    kind: str  # "cycle" | "path" | "kbipartite" | "twotail"
    params: tuple[int, ...]

    def __str__(self) -> str:
        return "%s:%s" % (self.kind, ",".join(str(p) for p in self.params))


def parse_family(text: str) -> FamilySpec:
    """Parse strings like "cycle:5" or "twotail:3,2", of at most 60 characters."""
    if len(text) > _QUOTE_CHARS:
        msg = "family string %s is longer than %d characters"
        raise InvalidParameterError(msg % (_quote(text), _QUOTE_CHARS))
    kind, sep, rest = text.partition(":")
    if not sep or not rest:
        raise InvalidParameterError("family string %s needs kind:params" % _quote(text))
    try:
        params = tuple(_read_int(p) for p in rest.split(","))
    except ValueError:
        msg = "non-integer parameter in %s" % _quote(text)
        raise InvalidParameterError(msg) from None
    except OverflowError:
        msg = "parameter out of range in %s" % _quote(text)
        raise InvalidParameterError(msg) from None
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
    raise InvalidParameterError("unknown family kind %s" % _quote(spec.kind))


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
    at each position only the candidates with the least row are placed,
    since the encoding is compared entry by entry; while the current
    prefix ties the incumbent, a candidate row larger than the
    incumbent's kills the whole branch (candidates are visited in
    ascending row order, so the first failure ends the level).

    Twins are placed once. Vertices v and w are twins when
    N(v) - {w} = N(w) - {v}; then swapping them is an automorphism that
    fixes every other vertex. At a position where v and a twin w < v are
    both unplaced, they have the same degree and the same row, and every
    order that places v there is the swap-image of one that places w
    there, with the same encoding; so v is skipped, and the least
    encoding is still found below w (or below w's least unplaced twin,
    which the same swaps reach).
    """
    return _canonical_bits([sum(1 << v for v in nbrs) for nbrs in g.adj])


def _lower_twins(adjbits: list[int]) -> list[int]:
    """Bit w of entry v is set when w < v and v, w are twins.

    Twins have N(v) - {w} = N(w) - {v}, which on bitmasks reads as equal
    rows once each row's bit for the other vertex is cleared.
    """
    twins = []
    for v, ab in enumerate(adjbits):
        low = 0
        for w in range(v):
            if ab & ~(1 << w) == adjbits[w] & ~(1 << v):
                low |= 1 << w
        twins.append(low)
    return twins


def _canonical_bits(
    adjbits: list[int], lower_twins: list[int] | None = None
) -> tuple[int, ...]:
    """canonical_form of the graph whose adjacency bitmasks are adjbits.

    lower_twins, when given, is _lower_twins(adjbits), which the
    connected enumeration derives from the parent's twins.
    """
    n = len(adjbits)
    if n == 1:
        return ()
    degree = [ab.bit_count() for ab in adjbits]
    targets = sorted(degree)
    by_degree: dict[int, list[int]] = {}
    for v in range(n):
        by_degree.setdefault(degree[v], []).append(v)
    if lower_twins is None:
        lower_twins = _lower_twins(adjbits)

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
            if (placed >> v) & 1 or lower_twins[v] & ~placed:
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
                if row > scored[0][0]:
                    break
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


def iter_connected(n_max: int) -> Iterator[Graph]:
    """All connected graphs with at most n_max vertices, one per class, streamed.

    Ordered by vertex count, edge count, then canonical form. n_max is at
    most CONNECTED_CAP, checked here, before the generator is returned;
    the generator keeps no graph it has yielded.
    """
    _check_size(n_max, CONNECTED_CAP, "connected enumeration")
    return _connected_classes(n_max)


def enumerate_connected(n: int) -> tuple[Graph, ...]:
    """Level n of iter_connected(n) as a tuple: the connected graphs on n
    vertices, one per class."""
    return tuple(g for g in iter_connected(n) if g.n == n)


def _connected_classes(n_max: int) -> Iterator[Graph]:
    """Level n comes from level n-1 by joining a fresh vertex to every
    non-empty subset of old vertices; every connected graph has a non-cut
    vertex, so each class is reached. Duplicates fall to the canonical
    form, taken on adjacency bitmasks; a level is kept only as its
    representatives' bitmasks, and a Graph is built only to hand one out.

    A join mask is tried only when it holds the lower twins (see
    canonical_form) of each vertex it holds. If it holds v and not a twin
    w < v, the swap of v and w is an automorphism of the parent that maps
    the mask to the smaller one holding w in place of v, and joins to
    the two are isomorphic. Masks run upward for each parent, so the
    first candidate of a class is never skipped, and each class keeps
    the representative that joining every subset gives.

    A candidate's twins follow from the parent's: old vertices v and w
    stay twins exactly when the mask holds both or neither, and the new
    vertex is a twin of v exactly when the mask less v is N(v).
    """
    yield build_graph(1, [])
    level = [[0]]
    for size in range(2, n_max + 1):
        seen: dict[tuple[int, ...], list[int]] = {}
        new = size - 1
        for base in level:
            # (v, bit of v, v's lower twins) for each v that has one
            lower = _lower_twins(base)
            twinned = [(v, 1 << v, low) for v, low in enumerate(lower) if low]
            # the new vertex's lower twins by mask: v when the mask less v is N(v)
            new_twins: dict[int, int] = {}
            for v, ab in enumerate(base):
                for m in (ab, ab | 1 << v):
                    new_twins[m] = new_twins.get(m, 0) | 1 << v
            for mask in range(1, 1 << new):
                if any(mask & bit and low & ~mask for _, bit, low in twinned):
                    continue
                adjbits = [ab | ((mask >> v) & 1) << new for v, ab in enumerate(base)]
                adjbits.append(mask)
                twins = lower.copy()
                for v, bit, low in twinned:
                    twins[v] = low & mask if mask & bit else low & ~mask
                twins.append(new_twins.get(mask, 0))
                key = _canonical_bits(adjbits, twins)
                if key not in seen:
                    seen[key] = adjbits
        # a canonical form holds each edge once, so its bit count is the edge count
        order = sorted(seen, key=lambda form: (sum(map(int.bit_count, form)), form))
        level = [seen[key] for key in order]
        del seen, order  # only the bitmasks are kept while the level is handed out
        for adjbits in level:
            yield build_graph(
                size, [(u, v) for v in range(size) for u in range(v) if adjbits[v] >> u & 1]
            )


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


def iter_odd_unicyclic(n_max: int) -> Iterator[Graph]:
    """All connected graphs with |E| = |V| <= n_max whose cycle is odd, streamed.

    Built structurally, one graph per class: an odd-unicyclic graph is an
    odd cycle with a rooted tree hanging from each cycle vertex, and two
    such graphs are isomorphic exactly when their cyclic sequences of
    rooted trees agree up to rotation and reflection. So each class is
    the cyclic sequence of tree numbers (see _rooted_trees) that is the
    least of its 2k images. Cycle vertices are 0..k-1 in order, so the
    bare cycle is cycle_graph(k); each tree's vertices follow in preorder,
    trees in cycle order. Ordered by vertex count, girth, then the
    sequence of tree numbers. n_max is at most HARD_CAP, checked here,
    before the generator is returned; the generator keeps no graph it
    has yielded, so a consumer that drops each class holds one at a time.
    """
    _check_size(n_max, HARD_CAP, "odd unicyclic enumeration")
    return _odd_unicyclic_classes(n_max)


def _odd_unicyclic_classes(n_max: int) -> Iterator[Graph]:
    children, first = _rooted_trees(max(n_max - 2, 1))
    size = [s for s in range(1, len(first) - 1) for _ in range(first[s], first[s + 1])]

    def hang(t: int, root: int, edges: list, free: int) -> int:
        for c in children[t]:
            edges.append((root, free))
            free = hang(c, free, edges, free + 1)
        return free

    for n in range(3, n_max + 1):
        for k in range(3, n + 1, 2):
            for code in _cyclic_codes(k, n, first, size):
                edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
                free = k
                for i, t in enumerate(code):
                    free = hang(t, i, edges, free)
                yield build_graph(n, edges)


def enumerate_odd_unicyclic(n_max: int) -> tuple[Graph, ...]:
    """iter_odd_unicyclic(n_max) as a tuple."""
    return tuple(iter_odd_unicyclic(n_max))
