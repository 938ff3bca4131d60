"""Reference computations and output checks, written apart from groverwalk.

Nothing here imports the program. Each check takes a command's raw output
and raises CheckError on the first disagreement with an independent
computation:

- class counts from a Polya count over the dihedral action on cycles of
  rooted trees, and connected-graph counts from the cycle index of the
  pair action of S_n followed by an inverse Euler transform
- a canonical code for odd-unicyclic graphs: AHU codes of the hanging
  trees under the least rotation or reflection of the cycle
- the transition charpoly from fraction-free Bareiss determinants of
  x*D - A at n + 1 integer points, interpolated exactly
- a prime-descent period certificate on the integer arc matrix L*U
- closed-form periods: P_r -> 2(r-1), C_k -> k, K_{m,n} -> 4

The checks read only the graph, the charpoly, the integrality verdict, the
period verdict and period, and the census summary.
"""

from __future__ import annotations

import json
import math
import re
from fractions import Fraction
from itertools import combinations


class CheckError(Exception):
    """An output disagrees with the reference computation."""


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckError(message)


# ---------------------------------------------------------------------------
# Counting.


def _mul_trunc(a: list[int], b: list[int], top: int) -> list[int]:
    out = [0] * (top + 1)
    for i, x in enumerate(a):
        if x:
            for j in range(top + 1 - i):
                out[i + j] += x * b[j]
    return out


def rooted_tree_counts(top: int) -> list[int]:
    """r[n] = number of unlabelled rooted trees on n vertices (r[0] = 0)."""
    r = [0, 1] + [0] * max(0, top - 1)
    for n in range(1, top):
        total = 0
        for k in range(1, n + 1):
            s = sum(d * r[d] for d in range(1, k + 1) if k % d == 0)
            total += s * r[n - k + 1]
        r[n + 1] = total // n
    return r[: top + 1]


def odd_unicyclic_counts(top: int) -> dict[tuple[int, int], int]:
    """{(n, k): classes with n vertices and odd girth k}, by Polya counting.

    A class is a k-cycle carrying a rooted tree on each vertex, up to the
    dihedral group D_k. Its cycle index, with each x_i replaced by
    R(x^i), gives the classes by vertex count.
    """
    r = rooted_tree_counts(top)

    def series_at_power(i: int) -> list[int]:
        s = [0] * (top + 1)
        for n in range(1, top // i + 1):
            s[n * i] = r[n]
        return s

    def power(series: list[int], e: int) -> list[int]:
        out = [1] + [0] * top
        for _ in range(e):
            out = _mul_trunc(out, series, top)
        return out

    counts = {}
    for k in range(3, top + 1, 2):
        acc = [0] * (top + 1)
        for d in range(1, k + 1):
            if k % d == 0:
                phi = sum(1 for j in range(1, d + 1) if math.gcd(j, d) == 1)
                term = power(series_at_power(d), k // d)
                for n in range(top + 1):
                    acc[n] += phi * term[n]
        # reflections of an odd cycle fix one vertex and swap the others in pairs
        refl = _mul_trunc(series_at_power(1), power(series_at_power(2), (k - 1) // 2), top)
        for n in range(top + 1):
            acc[n] += k * refl[n]
            if acc[n]:
                require(acc[n] % (2 * k) == 0, "Polya sum not divisible at n=%d" % n)
                counts[(n, k)] = acc[n] // (2 * k)
    return counts


def _partitions(n: int, most: int | None = None):
    most = n if most is None else most
    if n == 0:
        yield ()
        return
    for part in range(min(n, most), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part,) + rest


def connected_graph_counts(top: int) -> list[int]:
    """c[n] = number of connected unlabelled graphs on n vertices (c[0] = 0).

    All graphs come from the cycle index of S_n acting on vertex pairs;
    the connected ones from the inverse Euler transform.
    """
    g = [1]
    for n in range(1, top + 1):
        total = Fraction(0)
        for lam in _partitions(n):
            cycles = sum(p // 2 for p in lam)
            cycles += sum(math.gcd(a, b) for a, b in combinations(lam, 2))
            z = 1
            for p in set(lam):
                mult = lam.count(p)
                z *= p**mult * math.factorial(mult)
            total += Fraction(2**cycles, z)
        g.append(int(total))
    s = [0] * (top + 1)
    c = [0] * (top + 1)
    for n in range(1, top + 1):
        s[n] = n * g[n] - sum(s[k] * g[n - k] for k in range(1, n))
        c[n] = (s[n] - sum(d * c[d] for d in range(1, n) if n % d == 0)) // n
    return c


# ---------------------------------------------------------------------------
# Graphs as (n, edge list); adjacency built here.


def adjacency(n: int, edges) -> list[list[int]]:
    adj = [[] for _ in range(n)]
    for u, v in edges:
        require(0 <= u < n and 0 <= v < n and u != v, "bad edge %r" % ((u, v),))
        adj[u].append(v)
        adj[v].append(u)
    return adj


def _connected(adj: list[list[int]]) -> bool:
    seen = {0}
    stack = [0]
    while stack:
        for v in adj[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(adj)


def _ahu(adj, root: int, parent: int, on_cycle: set) -> str:
    kids = sorted(
        _ahu(adj, c, root, on_cycle)
        for c in adj[root]
        if c != parent and c not in on_cycle
    )
    return "(" + "".join(kids) + ")"


def odd_unicyclic_code(n: int, edges) -> tuple:
    """Canonical code of a connected graph with one odd cycle.

    The code is (girth, least rotation or reflection of the cyclic
    sequence of AHU codes of the trees hanging from the cycle vertices).
    Two such graphs are isomorphic exactly when their codes are equal.
    """
    edges = [tuple(e) for e in edges]
    require(len(set(map(frozenset, edges))) == len(edges) == n, "not |E| = |V|")
    adj = adjacency(n, edges)
    require(_connected(adj), "graph is disconnected")
    deg = [len(a) for a in adj]
    alive = set(range(n))
    leaves = [v for v in range(n) if deg[v] == 1]
    while leaves:
        u = leaves.pop()
        alive.discard(u)
        for v in adj[u]:
            if v in alive:
                deg[v] -= 1
                if deg[v] == 1:
                    leaves.append(v)
    start = min(alive)
    cycle = [start]
    prev = None
    cur = start
    while True:
        nxt = next(v for v in adj[cur] if v in alive and v != prev)
        if nxt == start:
            break
        cycle.append(nxt)
        prev, cur = cur, nxt
    k = len(cycle)
    require(k == len(alive) and k % 2 == 1, "cycle is not a single odd cycle")
    on_cycle = set(cycle)
    seq = [_ahu(adj, v, -1, on_cycle) for v in cycle]
    variants = []
    for s in (seq, seq[::-1]):
        for i in range(k):
            variants.append(tuple(s[i:] + s[:i]))
    return (k, min(variants))


# ---------------------------------------------------------------------------
# Exact linear algebra on integers.


def bareiss_det(m: list[list[int]]) -> int:
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [row[:] for row in m]
    n = len(a)
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k]), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        pivot = a[k][k]
        for i in range(k + 1, n):
            ai = a[i]
            aik = ai[k]
            ak = a[k]
            for j in range(k + 1, n):
                ai[j] = (ai[j] * pivot - aik * ak[j]) // prev
        prev = pivot
    return sign * a[n - 1][n - 1]


def transition_charpoly(n: int, edges) -> list[Fraction]:
    """det(x I - T), ascending, for the simple random walk matrix T.

    det(x I - T) = det(x D - A) / det(D); the numerator is an integer
    polynomial of degree n, found from its values at x = 0..n.
    """
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    xs = list(range(n + 1))
    ys = []
    for x in xs:
        mat = [[0] * n for _ in range(n)]
        for u in range(n):
            mat[u][u] = x * deg[u]
            for v in adj[u]:
                mat[u][v] -= 1
        ys.append(bareiss_det(mat))
    # Newton divided differences, then expand to monomials
    coef = [Fraction(y) for y in ys]
    for level in range(1, n + 1):
        for i in range(n, level - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - level])
    poly = [Fraction(0)] * (n + 1)
    for i in range(n, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    scale = math.prod(deg)
    return [c / scale for c in poly]


def integrality_failures(cp: list[Fraction]) -> list[int]:
    """Indices j where 2^j times the coefficient of x^(n-j) is not integral."""
    n = len(cp) - 1
    return [j for j in range(n + 1) if (cp[n - j] * 2**j).denominator != 1]


def _int_mat_mul(a, b):
    bt = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def _int_mat_pow(a, k: int):
    size = len(a)
    result = [[int(i == j) for j in range(size)] for i in range(size)]
    base = a
    while k:
        if k & 1:
            result = _int_mat_mul(result, base)
        k >>= 1
        if k:
            base = _int_mat_mul(base, base)
    return result


def _is_scalar(m, c: int) -> bool:
    return all(
        x == (c if i == j else 0) for i, row in enumerate(m) for j, x in enumerate(row)
    )


def _prime_factors(p: int) -> list[int]:
    out = []
    q = 2
    while q * q <= p:
        if p % q == 0:
            out.append(q)
            while p % q == 0:
                p //= q
        q += 1
    if p > 1:
        out.append(p)
    return out


def certify_period(n: int, edges, p: int) -> None:
    """Prove that p is the least k with U^k = I, U the Grover arc operator.

    U moves amplitude from arc (a, b) to arc (b, c) with weight
    2/deg(b) - [c == a]. With L the lcm of the degrees, A = L*U is an
    integer matrix, and U^k = I exactly when A^k = L^k * I.
    """
    require(isinstance(p, int) and p >= 1, "period %r is not a positive integer" % (p,))
    adj = adjacency(n, edges)
    deg = [len(a) for a in adj]
    arcs = [(u, v) for u in range(n) for v in adj[u]]
    index = {arc: i for i, arc in enumerate(arcs)}
    big_l = math.lcm(*deg)
    a = [[0] * len(arcs) for _ in arcs]
    for fi, (_, b) in enumerate(arcs):
        for c in adj[b]:
            a[index[(b, c)]][fi] = big_l * 2 // deg[b] - (big_l if c == arcs[fi][0] else 0)
    require(
        _is_scalar(_int_mat_pow(a, p), big_l**p),
        "U^%d is not the identity" % p,
    )
    for q in _prime_factors(p):
        require(
            not _is_scalar(_int_mat_pow(a, p // q), big_l ** (p // q)),
            "U^%d is already the identity, so %d is not minimal" % (p // q, p),
        )


# ---------------------------------------------------------------------------
# Family graphs, built from the documented labelling.


def family_graph(spec: str) -> tuple[int, list[tuple[int, int]], int | None]:
    """(n, edges, closed-form period or None) for a family spec."""
    kind, _, rest = spec.partition(":")
    params = [int(x) for x in rest.split(",")]
    if kind == "path":
        (r,) = params
        return r, [(i, i + 1) for i in range(r - 1)], 2 * (r - 1)
    if kind == "cycle":
        (k,) = params
        return k, sorted(tuple(sorted((i, (i + 1) % k))) for i in range(k)), k
    if kind == "kbipartite":
        m, n = params
        period = 2 if (m, n) == (1, 1) else 4
        return m + n, [(i, m + j) for i in range(m) for j in range(n)], period
    if kind == "twotail":
        k, r = params
        edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
        for base in (k, k + r):
            edges.append((0, base))
            edges.extend((base + i, base + i + 1) for i in range(r - 1))
        return k + 2 * r, sorted(edges), None
    raise ValueError("unknown family %r" % spec)


# ---------------------------------------------------------------------------
# Output checks.


def _fractions(values) -> list[Fraction]:
    return [Fraction(str(v)) for v in values]


def check_graph_block(block: dict) -> tuple[int, list[tuple[int, int]]]:
    n = block["graph"]["n"]
    edges = [tuple(e) for e in block["graph"]["edges"]]
    require(block["graph"]["m"] == len(edges), "graph m disagrees with its edges")
    return n, edges


def check_verdicts(block: dict, n: int, edges, where: str) -> int | None:
    """Check charpoly, integrality and period of one report; return the period.

    A graph that passes the integrality filter must be periodic with a
    certified period; one that fails must be refuted.
    """
    cp = transition_charpoly(n, edges)
    require(
        _fractions(block["charpoly"]["ascending"]) == cp,
        "%s: charpoly differs from the Bareiss charpoly" % where,
    )
    failing = integrality_failures(cp)
    integ = block["integrality"]
    require(
        list(integ["failing_indices"]) == failing and integ["passed"] == (not failing),
        "%s: integrality passed=%r at %r, reference fails at %r"
        % (where, integ["passed"], integ["failing_indices"], failing),
    )
    period = block["period"]
    if failing:
        require(
            period["verdict"] == "refuted_by_integrality" and period["period"] is None,
            "%s: filter fails but verdict is %r" % (where, period["verdict"]),
        )
        return None
    require(
        period["verdict"] == "periodic",
        "%s: filter passes but verdict is %r" % (where, period["verdict"]),
    )
    try:
        certify_period(n, edges, period["period"])
    except CheckError as err:
        raise CheckError("%s: %s" % (where, err)) from None
    return period["period"]


def check_analyze(text: str, spec: str) -> None:
    """Check one `analyze --family spec --json` report."""
    report = json.loads(text)
    n, edges = check_graph_block(report)
    want_n, want_edges, closed = family_graph(spec)
    require(
        (n, sorted(edges)) == (want_n, want_edges),
        "%s: graph is not the documented family member" % spec,
    )
    period = check_verdicts(report, n, edges, spec)
    if closed is not None:
        require(period == closed, "%s: period %r, closed form %d" % (spec, period, closed))


def check_census(text: str, max_n: int) -> None:
    """Check a `census --json` report against the reference census."""
    report = json.loads(text)
    records = report["records"]
    want = odd_unicyclic_counts(max_n)
    per_n: dict[int, int] = {}
    codes = set()
    odd = []
    for i, rec in enumerate(records):
        n, edges = check_graph_block(rec)
        where = "record %d (n=%d)" % (i, n)
        try:
            code = odd_unicyclic_code(n, edges)
        except CheckError as err:
            raise CheckError("%s: %s" % (where, err)) from None
        require(code not in codes, "%s: isomorphic to an earlier record" % where)
        codes.add(code)
        per_n[n] = per_n.get(n, 0) + 1
        period = check_verdicts(rec, n, edges, where)
        if period is not None and period % 2 == 1:
            odd.append((n, period, sorted(edges)))
    want_per_n = {}
    for (n, _), c in want.items():
        want_per_n[n] = want_per_n.get(n, 0) + c
    require(per_n == want_per_n, "classes per n %r, Polya count %r" % (per_n, want_per_n))
    cycles = [
        (k, k, family_graph("cycle:%d" % k)[1]) for k in range(3, max_n + 1, 2)
    ]
    require(sorted(odd) == cycles, "odd-periodic records are not exactly the odd cycles")
    summary = report["summary"]
    require(summary["total_records"] == len(records), "summary total_records is wrong")
    require(summary["budget_hits"] == 0, "census hit the bit budget")
    listed = sorted(
        (e["n"], e["period"], sorted(tuple(x) for x in e["edges"]))
        for e in summary["odd_periodic"]
    )
    require(listed == cycles, "summary odd_periodic is not exactly the odd cycles")


def _suite_lines(text: str, suite: str) -> list[str]:
    lines = text.splitlines()
    require(bool(lines) and lines[-1] == "suite %s: pass" % suite, "suite %s did not pass" % suite)
    require(not any(line.startswith("FAIL") for line in lines), "suite %s has FAIL lines" % suite)
    return lines


def _reported_count(lines: list[str], pattern: str) -> int:
    for line in lines:
        match = re.search(pattern, line)
        if match:
            return int(match.group(1))
    raise CheckError("no line matches %r" % pattern)


TWOTAIL_GRID = [(k, r) for k in (3, 5) for r in range(1, 6)]


def check_verify(text: str, suite: str, k_list=(), r_list=()) -> None:
    """Check a `verify --suite` transcript for a pass over its full span."""
    lines = _suite_lines(text, suite)
    if suite == "spectral-map":
        want = sum(connected_graph_counts(6)[2:7])
        got = _reported_count(lines, r"spectral map matched on (\d+) connected graphs")
        require(got == want, "spectral map covered %d graphs, reference %d" % (got, want))
        return
    if suite == "identities":
        classes = odd_unicyclic_counts(8)
        want = {
            "cycle-matching identity": sum(
                c * ((n - k) // 2 + 1) for (n, k), c in classes.items()
            ),
            "tail recurrence": sum(((k + 2 * r) // 2 + 1) * (r - 1) for k, r in TWOTAIL_GRID),
            "matching split": sum((k + 2 * r) // 2 + 1 for k, r in TWOTAIL_GRID),
            "branch integrality": sum(r - 1 for _, r in TWOTAIL_GRID),
        }
        for label, count in want.items():
            got = _reported_count(lines, re.escape(label) + r", (\d+) instances")
            require(got == count, "%s: %d instances, reference %d" % (label, got, count))
        return
    if suite == "chebyshev":
        got = sorted(
            (int(m.group(1)), int(m.group(2)))
            for m in (re.match(r"ok   chebyshev k=(\d+) r=(\d+):", line) for line in lines)
            if m
        )
        want = sorted((k, r) for k in k_list for r in r_list)
        require(got == want, "chebyshev grid covered %d of %d cases" % (len(got), len(want)))
        return
    raise ValueError("unknown suite %r" % suite)
