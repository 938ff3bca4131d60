"""Independent reference implementations used only by the tests.

Everything here recomputes results by a different method than the package:
Bareiss elimination instead of Faddeev-LeVerrier, brute-force subset scans
instead of recursive enumeration, permutation minima instead of pruned
search, a floating-point Jacobi eigensolver instead of exact polynomial
identities, the vertex-side Psi_d factorization instead of the arc-side
Phi_d one, Fraction sums, Horner deflation and the Fraction integrality
filter instead of integer coefficients over one denominator, listed
matchings and cycles instead of a leaf peel and Schwenk's edge formula,
pendant extensions deduplicated by canonical form instead of odd cycles
with rooted trees, a BFS leaf queue instead of the package's leaf stack,
2-colouring instead of the parity of the girth. Agreement between the two
is the point.
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import deque
from fractions import Fraction


def bareiss_det(matrix) -> Fraction:
    """Determinant by fraction-free Gaussian elimination with pivoting."""
    a = [[Fraction(x) for x in row] for row in matrix]
    n = len(a)
    sign = 1
    prev = Fraction(1)
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return Fraction(0)
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) / prev
            a[i][k] = Fraction(0)
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def char_value(matrix, x: Fraction) -> Fraction:
    """det(xI - M) at one exact point."""
    n = len(matrix)
    shifted = [
        [(x if i == j else Fraction(0)) - Fraction(matrix[i][j]) for j in range(n)]
        for i in range(n)
    ]
    return bareiss_det(shifted)


def brute_matchings(edges, t: int):
    """All t-subsets of pairwise disjoint edges, by combination scan."""
    out = []
    for combo in itertools.combinations(edges, t):
        used = set()
        ok = True
        for u, v in combo:
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if ok:
            out.append(combo)
    return out


def fraction_matching_sum(n: int, edges, t: int, allowed_edges=None) -> Fraction:
    """Sum over t-matchings of prod 1/(deg u deg v), in Fractions.

    The matchings come from the subset scan over the edges that are
    allowed (all when allowed_edges is None).
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    pool = list(edges)
    if allowed_edges is not None:
        allowed = {tuple(sorted(e)) for e in allowed_edges}
        pool = [e for e in pool if e in allowed]
    total = Fraction(0)
    for matching in brute_matchings(pool, t):
        prod = Fraction(1)
        for u, v in matching:
            prod *= Fraction(1, deg[u]) * Fraction(1, deg[v])
        total += prod
    return total


def brute_matching_poly(edges, a, w, cycle_weight: int = 0) -> int:
    """The weighted matching polynomial of a pool of edges, by listing.

    Every set M of pairwise disjoint edges, from brute_matchings, adds
    prod w[e] over M times prod a[v] over the vertices of the pool that M
    leaves unmatched. When brute_cycles finds exactly one cycle C,
    cycle_weight times the same sum over the pool less C's vertices is
    added; a nonzero cycle_weight on a pool with more cycles raises
    ValueError. a is indexed by vertex and w by the edge tuples as given;
    any integers serve.
    """

    def listed(pool, vertices) -> int:
        total = 0
        for t in range(len(vertices) // 2 + 1):
            for matching in brute_matchings(pool, t):
                matched = {v for e in matching for v in e}
                free = math.prod(a[v] for v in vertices if v not in matched)
                total += math.prod(w[e] for e in matching) * free
        return total

    vertices = sorted({v for e in edges for v in e})
    total = listed(list(edges), vertices)
    cycles = brute_cycles(max(vertices, default=0) + 1, edges) if cycle_weight else ()
    if len(cycles) > 1:
        raise ValueError("a cycle weight on %d cycles" % len(cycles))
    for cycle in cycles:
        rest = [e for e in edges if cycle.isdisjoint(e)]
        total += cycle_weight * listed(rest, [v for v in vertices if v not in cycle])
    return total


def iso_key(n: int, edges) -> tuple:
    """Minimum adjacency bitstring over all vertex permutations.

    Complete isomorphism invariant; exponential, so keep n small.
    """
    present = {(min(u, v), max(u, v)) for u, v in edges}
    best = None
    for perm in itertools.permutations(range(n)):
        bits = tuple(
            1 if (min(perm[i], perm[j]), max(perm[i], perm[j])) in present else 0
            for i in range(n)
            for j in range(i + 1, n)
        )
        if best is None or bits < best:
            best = bits
    return best


def degree_sorted_min_encoding(n: int, edges) -> tuple:
    """The least encoding over every vertex order that sorts degrees ascending.

    Entry i-1 has bit j set when the vertices at positions i and j are
    adjacent, for j < i; every such order is tried, with no pruning.
    """
    adjacent = {(min(u, v), max(u, v)) for u, v in edges}
    deg = [0] * n
    for u, v in adjacent:
        deg[u] += 1
        deg[v] += 1
    best = None
    for perm in itertools.permutations(range(n)):
        if any(deg[perm[i]] > deg[perm[i + 1]] for i in range(n - 1)):
            continue
        code = tuple(
            sum(
                1 << j
                for j in range(i)
                if (min(perm[i], perm[j]), max(perm[i], perm[j])) in adjacent
            )
            for i in range(1, n)
        )
        if best is None or code < best:
            best = code
    return best


@functools.cache
def pendant_extension_classes(n_max: int) -> dict:
    """Odd-unicyclic classes with at most n_max vertices, by canonical form.

    Grown the way the package once enumerated them: every odd cycle, then
    a pendant vertex joined to every vertex of every class so far, keeping
    the first graph of each canonical form. Returns {form: graph}.
    """
    from groverwalk.families import canonical_form, cycle_graph
    from groverwalk.graphs import build_graph

    by_size = {s: {} for s in range(3, n_max + 1)}
    for k in range(3, n_max + 1, 2):
        g = cycle_graph(k)
        by_size[k][canonical_form(g)] = g
    for s in range(3, n_max):
        for g in list(by_size[s].values()):
            for v in range(s):
                bigger = build_graph(s + 1, list(g.edges) + [(v, s)])
                by_size[s + 1].setdefault(canonical_form(bigger), bigger)
    return {key: g for level in by_size.values() for key, g in level.items()}


def is_connected(n: int, edges) -> bool:
    if n == 1:
        return True
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    seen = {0}
    stack = [0]
    while stack:
        for w in adj[stack.pop()]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == n


def brute_connected_classes(n: int) -> set:
    """One iso_key per isomorphism class of connected graphs on n vertices."""
    slots = list(itertools.combinations(range(n), 2))
    keys = set()
    for mask in range(2 ** len(slots)):
        edges = [e for i, e in enumerate(slots) if mask >> i & 1]
        if is_connected(n, edges):
            keys.add(iso_key(n, edges))
    return keys


def brute_cycles(n: int, edges) -> set:
    """Vertex sets of all simple cycles, found by path search per edge."""
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    cycles = set()

    def extend(path, target, banned):
        tip = path[-1]
        for w in adj[tip]:
            if w == target and len(path) >= 2:
                cycles.add(frozenset(path + [w]))
            elif w not in path and {tip, w} != banned:
                extend(path + [w], target, banned)

    for u, v in edges:
        extend([u], v, {u, v})
    return cycles


def oracle_unicycle_decomposition(n: int, edges) -> tuple[tuple[int, ...], tuple]:
    """(cycle, forest edges) of a unicyclic graph, by a BFS leaf queue.

    The cycle starts at its smallest vertex and proceeds toward that
    vertex's smaller cycle neighbour; the forest is every other edge, in
    sorted order.
    """
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    alive = set(range(n))
    deg = {v: len(adj[v]) for v in range(n)}
    queue = deque(v for v in range(n) if deg[v] == 1)
    while queue:
        u = queue.popleft()
        alive.discard(u)
        for v in adj[u]:
            if v in alive:
                deg[v] -= 1
                if deg[v] == 1:
                    queue.append(v)
    start = min(alive)
    cycle = [start, min(v for v in adj[start] if v in alive)]
    while True:
        prev, cur = cycle[-2], cycle[-1]
        nxt = next(v for v in adj[cur] if v in alive and v != prev)
        if nxt == start:
            break
        cycle.append(nxt)
    ring = {frozenset((cycle[i], cycle[i - 1])) for i in range(len(cycle))}
    forest = tuple(sorted(tuple(sorted(e)) for e in edges if frozenset(e) not in ring))
    return tuple(cycle), forest


def walked_lockstep_length(branch_a, branch_b, degree) -> int:
    """Largest t with the first t vertices of both branches of degree 2.

    Walks the degrees position by position, as the package once did.
    """
    t = 0
    while (
        t < len(branch_a)
        and t < len(branch_b)
        and degree[branch_a[t]] == 2
        and degree[branch_b[t]] == 2
    ):
        t += 1
    return t


def walked_tail_guard_fails(branch_a, branch_b, degree, r: int) -> bool:
    """True when the tail recurrence's premise fails at exclusion depth r >= 2.

    The premise is that each branch has more than r vertices and its first
    r are of degree 2, checked vertex by vertex as the package once did.
    """
    return any(
        len(chain) <= r or any(degree[chain[j]] != 2 for j in range(r))
        for chain in (branch_a, branch_b)
    )


def two_colouring_kind(n: int, edges) -> str:
    """tree / bipartite / odd_unicycle / other, bipartiteness by 2-colouring."""
    if len(edges) == n - 1:
        return "tree"
    adj = {v: set() for v in range(n)}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    colour = {0: 0}
    queue = deque([0])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in colour:
                colour[v] = 1 - colour[u]
                queue.append(v)
            elif colour[v] == colour[u]:
                return "odd_unicycle" if len(edges) == n else "other"
    return "bipartite"


def oracle_grover_matrix(n: int, edges):
    """The arc evolution matrix built directly from its entry rule."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    arcs = []
    for u, v in sorted((min(e), max(e)) for e in edges):
        arcs.append((u, v))
        arcs.append((v, u))
    size = len(arcs)
    rows = []
    for e in range(size):
        row = []
        for f in range(size):
            o_e = arcs[e][0]
            t_f = arcs[f][1]
            if t_f != o_e:
                row.append(Fraction(0))
            elif arcs[e] == (arcs[f][1], arcs[f][0]):
                row.append(Fraction(2, deg[t_f]) - 1)
            else:
                row.append(Fraction(2, deg[t_f]))
        rows.append(tuple(row))
    return tuple(rows)


def brute_period(matrix, k_max: int):
    """Least k <= k_max with matrix^k = I, by literal multiplication."""
    size = len(matrix)
    ident = tuple(
        tuple(Fraction(1 if i == j else 0) for j in range(size)) for i in range(size)
    )

    def mul(a, b):
        return tuple(
            tuple(sum(a[i][k] * b[k][j] for k in range(size)) for j in range(size))
            for i in range(size)
        )

    acc = matrix
    for d in range(1, k_max + 1):
        if acc == ident:
            return d
        acc = mul(acc, matrix)
    return None


def prime_divisors(p: int) -> list[int]:
    """The primes dividing p, in increasing order, by trial division."""
    return [q for q in range(2, p + 1) if p % q == 0 and all(q % r for r in range(2, q))]


def int_mat_mul(x, y):
    """Integer matrix product, one plain sum per entry."""
    return [[sum(s * t for s, t in zip(row, col)) for col in zip(*y)] for row in x]


def square_and_multiply_certificate(n: int, edges, p: int) -> bool:
    """The period certificate on A = L*U, every power built from scratch.

    L is the lcm of the degrees. The verdict is A^p = L^p I and then
    A^(p/q) != L^(p/q) I for each prime q dividing p. Each power is made
    by dense square-and-multiply from the identity.
    """
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    scale = math.lcm(*deg)
    a = [[int(x * scale) for x in row] for row in oracle_grover_matrix(n, edges)]
    size = len(a)

    def is_period(k):
        want = [[scale**k if i == j else 0 for j in range(size)] for i in range(size)]
        result = [[int(i == j) for j in range(size)] for i in range(size)]
        base = a
        while k:
            if k & 1:
                result = int_mat_mul(result, base)
            k >>= 1
            if k:
                base = int_mat_mul(base, base)
        return result == want

    return is_period(p) and not any(is_period(p // q) for q in prime_divisors(p))


def _monic_quotient(a, b):
    """a / b for integer lists low to high and a monic b, or None if inexact."""
    a = list(a)
    db = len(b) - 1
    if len(a) <= db:
        return None
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        quot[i] = c = a[i + db]
        for j, bj in enumerate(b):
            a[i + j] -= c * bj
    return None if any(a) else quot


def poly_mul(a, b):
    """Product of two integer coefficient lists, low to high."""
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def _times_x2_minus_1(poly, times: int):
    for _ in range(times):
        poly = poly_mul(poly, [-1, 0, 1])
    return poly


def _fraction_multiplicity(coeffs, r: Fraction) -> int:
    """How often x - r divides, by synthetic division in Fractions."""
    poly = [Fraction(c) for c in coeffs]
    mult = 0
    while len(poly) > 1:
        # Horner from the top: the running values are the quotient's
        # coefficients and the last one is poly(r)
        quot = [poly[-1]]
        for c in reversed(poly[1:-1]):
            quot.append(quot[-1] * r + c)
        if quot[-1] * r + poly[0] != 0:
            break
        poly = quot[::-1]
        mult += 1
    return mult


def fraction_spectral_map(cp_t, p_u, m: int) -> tuple:
    """The Konno-Sato comparison of two charpolys, in Fractions.

    cp_t and p_u are the transition and arc charpolys, low to high, of a
    graph with m edges. The right side (2x)^n cp_t((x^2 + 1) / (2x)) is
    summed term by term as c_k (2x)^(n-k) (x^2 + 1)^k. Returns the fields
    of walk.SpectralMapReport in order: matched, max_residual, predicted,
    unexplained, plus_one_extra, minus_one_extra.
    """
    n = len(cp_t) - 1
    rhs = [Fraction(0)] * (2 * n + 1)
    square_plus_1 = [1]
    for k, c in enumerate(cp_t):
        for i, x in enumerate(square_plus_1):
            rhs[n - k + i] += Fraction(c) * 2 ** (n - k) * x
        square_plus_1 = poly_mul(square_plus_1, [1, 0, 1])
    rhs = _times_x2_minus_1(rhs, max(m - n, 0))
    lhs = _times_x2_minus_1([Fraction(c) for c in p_u], max(n - m, 0))
    diff = [a - b for a, b in zip(lhs, rhs, strict=True)]
    t_plus = _fraction_multiplicity(cp_t, Fraction(1))
    t_minus = _fraction_multiplicity(cp_t, Fraction(-1))
    predicted = 2 * n - t_plus - t_minus
    plus_extra = _fraction_multiplicity(p_u, Fraction(1)) - t_plus
    minus_extra = _fraction_multiplicity(p_u, Fraction(-1)) - t_minus
    unexplained = len(p_u) - 1 - predicted
    matched = (
        not any(diff)
        and plus_extra >= 0
        and minus_extra >= 0
        and unexplained == plus_extra + minus_extra
    )
    residual = float(max(abs(d) for d in diff))
    return matched, residual, predicted, unexplained, plus_extra, minus_extra


def _mobius(k: int) -> int:
    primes = prime_divisors(k)
    for q in primes:
        if k % (q * q) == 0:
            return 0
    return (-1) ** len(primes)


def cyclotomic(d: int) -> list[int]:
    """Phi_d = prod over e | d of (x^e - 1)^mu(d/e), low to high."""
    num, den = [1], [1]
    for e in range(1, d + 1):
        if d % e == 0 and _mobius(d // e):
            factor = [-1] + [0] * (e - 1) + [1]
            if _mobius(d // e) == 1:
                num = poly_mul(num, factor)
            else:
                den = poly_mul(den, factor)
    return _monic_quotient(num, den)


@functools.cache
def real_cyclotomic(d: int) -> tuple[int, ...]:
    """Psi_d, the minimal polynomial of 2cos(2 pi/d), low to high.

    Psi_1 = y - 2 and Psi_2 = y + 2. For d >= 3, Phi_d is palindromic of
    degree 2k = phi(d), and x^(-k) Phi_d(x) = Psi_d(x + 1/x) (Watkins and
    Zeitlin 1993): each x^j + x^(-j) is C_j(x + 1/x) with C_0 = 2,
    C_1 = y and C_(j+1) = y C_j - C_(j-1).
    """
    if d <= 2:
        return (-2 if d == 1 else 2, 1)
    phi = cyclotomic(d)
    k = (len(phi) - 1) // 2
    psi = [phi[k]] + [0] * k
    prev, cur = [2], [0, 1]
    for j in range(1, k + 1):
        for i, c in enumerate(cur):
            psi[i] += phi[k + j] * c
        nxt = [0] + cur
        for i, c in enumerate(prev):
            nxt[i] -= c
        prev, cur = cur, nxt
    return tuple(psi)


def fraction_integrality_filter(coeffs) -> tuple[int, ...]:
    """The integrality filter as first defined, on Fraction coefficients.

    coeffs is cp low to high; the result lists the j where 2^j times the
    coefficient of x^(n-j) is not an integer.
    """
    n = len(coeffs) - 1
    return tuple(
        j for j in range(n + 1) if (Fraction(coeffs[n - j]) * 2**j).denominator != 1
    )


def psi_period(coeffs, m: int):
    """The period by the vertex-side route, or None when it is refuted.

    coeffs is the transition charpoly cp of a graph with n vertices and m
    edges, low to high. None when P(y) = 2^n cp(y/2) is not an integer
    polynomial. Otherwise P splits into Psi_d by Kronecker's theorem, and
    the period is the lcm of the d found, with 2 added when m > n for the
    -1 arc eigenvalues outside the image of the vertex spectrum.
    """
    n = len(coeffs) - 1
    scaled = [Fraction(c) * 2 ** (n - k) for k, c in enumerate(coeffs)]
    if any(x.denominator != 1 for x in scaled):
        return None
    poly = [int(x) for x in scaled]
    orders = []
    d = 0
    while len(poly) > 1:
        d += 1
        assert d <= 8 * n * n, "leftover factor %r" % (poly,)
        while (quot := _monic_quotient(poly, real_cyclotomic(d))) is not None:
            poly = quot
            orders.append(d)
    return math.lcm(*orders, 2 if m > n else 1)


def symmetrized_adjacency(n: int, edges):
    """Entry A_uv / sqrt(deg u * deg v): symmetric, and similar to the
    transition matrix, so it has the same spectrum."""
    deg = [0] * n
    for u, v in edges:
        deg[u] += 1
        deg[v] += 1
    out = [[0.0] * n for _ in range(n)]
    for u, v in edges:
        out[u][v] = out[v][u] = 1.0 / math.sqrt(deg[u] * deg[v])
    return out


def _off_norm(a) -> float:
    return math.sqrt(
        sum(2.0 * a[i][j] ** 2 for i in range(len(a)) for j in range(i + 1, len(a)))
    )


def jacobi_eigen(s, off_tol: float = 1e-14, max_sweeps: int = 100):
    """(values, vectors) of a real symmetric matrix by cyclic Jacobi sweeps.

    Values ascend and vectors[i] belongs to values[i]. Each sweep rotates
    away every off-diagonal pair in row order until the off-diagonal
    Frobenius norm is at most off_tol. Raises ValueError on asymmetric
    input and ArithmeticError after max_sweeps.
    """
    n = len(s)
    if any(len(row) != n for row in s):
        raise ValueError("eigensolver needs a square matrix")
    for i in range(n):
        for j in range(i + 1, n):
            if abs(s[i][j] - s[j][i]) > 1e-12:
                raise ValueError("entry (%d,%d) differs from (%d,%d)" % (i, j, j, i))
    a = [[float(x) for x in row] for row in s]
    v = [[1.0 if i == j else 0.0 for j in range(n)] for i in range(n)]
    sweeps = 0
    while _off_norm(a) > off_tol:
        if sweeps == max_sweeps:
            raise ArithmeticError("no convergence after %d sweeps" % max_sweeps)
        sweeps += 1
        for p in range(n - 1):
            for q in range(p + 1, n):
                apq = a[p][q]
                if abs(apq) < 1e-300:
                    a[p][q] = a[q][p] = 0.0
                    continue
                theta = (a[q][q] - a[p][p]) / (2.0 * apq)
                t = 1.0 / (abs(theta) + math.sqrt(theta * theta + 1.0))
                if theta < 0.0:
                    t = -t
                c = 1.0 / math.sqrt(t * t + 1.0)
                sn = t * c
                tau = sn / (1.0 + c)
                a[p][p] -= t * apq
                a[q][q] += t * apq
                a[p][q] = a[q][p] = 0.0
                for i in range(n):
                    if i != p and i != q:
                        aip, aiq = a[i][p], a[i][q]
                        a[i][p] = a[p][i] = aip - sn * (aiq + tau * aip)
                        a[i][q] = a[q][i] = aiq + sn * (aip - tau * aiq)
                for row in v:
                    vip, viq = row[p], row[q]
                    row[p] = vip - sn * (viq + tau * vip)
                    row[q] = viq + sn * (vip - tau * viq)
    order = sorted(range(n), key=lambda i: a[i][i])
    return (
        tuple(a[i][i] for i in order),
        tuple(tuple(v[j][i] for j in range(n)) for i in order),
    )


def transition_eigenvalues(n: int, edges) -> tuple[float, ...]:
    """Numeric spectrum of the transition matrix, ascending."""
    return jacobi_eigen(symmetrized_adjacency(n, edges))[0]


def exact_rank(matrix) -> int:
    """Rank over the rationals by fraction-free row reduction on integers."""
    den = 1
    for row in matrix:
        for x in row:
            den = math.lcm(den, Fraction(x).denominator)
    rows = [[int(Fraction(x) * den) for x in row] for row in matrix]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                factor = rows[i][col]
                row = [x * top[col] - y * factor for x, y in zip(rows[i], top)]
                g = math.gcd(*row)
                rows[i] = [x // g for x in row] if g else row
        rank += 1
    return rank


def eigenvalue_multiplicity(matrix, value) -> int:
    """Geometric multiplicity of an exact eigenvalue: size - rank(M - value I).

    For a diagonalizable matrix such as the orthogonal walk operator this
    is also the algebraic multiplicity.
    """
    size = len(matrix)
    shifted = [
        [Fraction(matrix[i][j]) - (value if i == j else 0) for j in range(size)]
        for i in range(size)
    ]
    return size - exact_rank(shifted)
