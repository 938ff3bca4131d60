"""Period detection and the matching-sum identities that certify it.

A graph is periodic when some power of its arc evolution operator is the
identity; the period is the least such exponent. Detection is one exact
route from the transition characteristic polynomial cp. The integrality
filter refutes most graphs outright. For a graph that passes it,
P(y) = 2^n cp(y/2) is a monic integer polynomial whose roots are real and
lie in [-2, 2], so by Kronecker's theorem it factors completely into the
minimal polynomials Psi_d of 2cos(2 pi/d). The d that occur are the orders
of the arc eigenvalues, their lcm is the period, and the period is
certified exactly, minimality included, before it is reported.

The second half of the module verifies combinatorial identities between
characteristic-polynomial coefficients and weighted matching sums on
odd-unicyclic graphs, plus the Chebyshev eigenvector construction on the
two-tailed family. These back the structural argument for why odd periods
force the graph to be a bare odd cycle.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import (
    BudgetExceededError,
    IndexOutOfRangeError,
    InvalidParameterError,
    ResidualExceededError,
    ShapeMismatchError,
)
from .families import two_tail_graph
from .graphs import (
    Edge,
    Graph,
    UnicycleDecomposition,
    classify,
    edge_weight,
    enumerate_matchings,
    write_graph_file,
)
from .linalg import CharPoly, is_integer
from .walk import build_grover_operator, transition_charpoly

DEFAULT_BIT_BUDGET = 10**6


def graph_hash(g: Graph) -> str:
    """Stable short digest of the canonical graph file text."""
    return hashlib.sha256(write_graph_file(g).encode()).hexdigest()[:16]


def matching_sum(
    g: Graph,
    t: int,
    allowed_edges=None,
    forbidden_vertices=None,
) -> Fraction:
    """Sum over t-matchings of the product of reciprocal-degree weights.

    The empty matching contributes 1, so t=0 always returns 1.
    """
    total = Fraction(0)
    for matching in enumerate_matchings(g, t, allowed_edges, forbidden_vertices):
        prod = Fraction(1)
        for e in matching:
            prod *= edge_weight(g, e)
        total += prod
    return total


def integrality_filter(cp: CharPoly) -> tuple[int, ...]:
    """Indices j where 2^j times the coefficient of x^(n-j) is not integral.

    An empty result means the necessary condition for periodicity holds.
    """
    n = cp.degree
    failing = []
    for j in range(n + 1):
        if not is_integer(cp[n - j] * 2**j):
            failing.append(j)
    return tuple(failing)


@dataclass(frozen=True)
class DegreeConditionVerdict:
    kind: str  # "all_degree_two" | "one_degree_four" | "violates"
    vertex: int | None = None  # the degree-4 cycle vertex when applicable


def degree_condition_filter(
    d: UnicycleDecomposition, g: Graph
) -> DegreeConditionVerdict:
    """Classify cycle degrees: all 2, exactly one 4 (rest 2), or neither.

    Periodic odd-unicyclic graphs can only fall in the first two classes.
    """
    degs = [g.degree[v] for v in d.cycle]
    if all(x == 2 for x in degs):
        return DegreeConditionVerdict("all_degree_two")
    fours = [v for v, x in zip(d.cycle, degs) if x == 4]
    rest_two = sum(1 for x in degs if x == 2) == len(degs) - 1
    if len(fours) == 1 and rest_two:
        return DegreeConditionVerdict("one_degree_four", vertex=fours[0])
    return DegreeConditionVerdict("violates")


# ---------------------------------------------------------------------------
# Period detection. Polynomials are integer coefficient lists, low to high.


def _prime_factors(k: int) -> list[int]:
    primes = []
    p = 2
    while p * p <= k:
        if k % p == 0:
            primes.append(p)
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        primes.append(k)
    return primes


def _totient(d: int) -> int:
    phi = d
    for p in _prime_factors(d):
        phi -= phi // p
    return phi


def _divide_monic(a: list, b: tuple) -> list | None:
    """Exact quotient a / b for a monic b, or None when b does not divide a.

    Works on int or Fraction coefficients; the zero polynomial divides out.
    """
    if len(a) < len(b):
        return None if any(a) else [0]
    db = len(b) - 1
    rest = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c = quot[i] = rest[i + db]
        if c:
            for j, bj in enumerate(b):
                rest[i + j] -= c * bj
    return None if any(rest[:db]) else quot


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d: x^d - 1 divided by Phi_e for every proper divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _divide_monic(poly, _cyclotomic(e))
    return tuple(poly)


def real_cyclotomic(d: int) -> tuple[int, ...]:
    """Psi_d, the minimal polynomial of 2cos(2 pi/d), low to high.

    Psi_1 = y - 2 and Psi_2 = y + 2. For d >= 3, Phi_d is palindromic of
    degree 2k = phi(d), and x^(-k) Phi_d(x) = Psi_d(x + 1/x) (Watkins and
    Zeitlin 1993): each x^j + x^(-j) is C_j(x + 1/x) with C_0 = 2,
    C_1 = y and C_(j+1) = y C_j - C_(j-1).
    """
    if d < 1:
        raise InvalidParameterError("order must be >= 1, got %d" % d)
    if d <= 2:
        return (-2 if d == 1 else 2, 1)
    phi = _cyclotomic(d)
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


def _cyclotomic_orders(poly: list[int]) -> list[int]:
    """Each d whose Psi_d divides poly, once per factor; poly must split.

    A factor of degree at most n = deg poly has phi(d) <= 2n, and
    phi(d) >= sqrt(d/2) for every d, so d <= 8n^2 covers them all.
    """
    orders = []
    for d in range(1, 8 * len(poly) ** 2):
        if len(poly) == 1:
            break
        if _totient(d) > 2 * (len(poly) - 1):
            continue
        psi = real_cyclotomic(d)
        while (quot := _divide_monic(poly, psi)) is not None:
            poly = quot
            orders.append(d)
    if len(poly) > 1:
        # Kronecker's theorem rules this out for a polynomial that passed
        # the integrality filter, so it is a defect, never a verdict
        raise RuntimeError("factor %r is not a product of Psi_d" % (poly,))
    return orders


def _budget_check(m: list[list[int]], bit_budget: int) -> None:
    bits = sum(x.bit_length() for row in m for x in row)
    if bits > bit_budget:
        raise BudgetExceededError(
            "certificate: matrix entries reached %d bits (budget %d)"
            % (bits, bit_budget),
            bits=bits,
        )


def _int_mat_pow(a: list[list[int]], k: int, bit_budget: int) -> list[list[int]]:
    """a**k by repeated squaring, every product held to the bit budget."""

    def mul(x, y):
        cols = list(zip(*y))
        out = [[sum(s * t for s, t in zip(row, col)) for col in cols] for row in x]
        _budget_check(out, bit_budget)
        return out

    result = [[int(i == j) for j in range(len(a))] for i in range(len(a))]
    while k:
        if k & 1:
            result = mul(result, a)
        k >>= 1
        if k:
            a = mul(a, a)
    return result


def certify_period(g: Graph, p: int, bit_budget: int = DEFAULT_BIT_BUDGET) -> bool:
    """True iff p is the least k >= 1 with U^k = I, decided exactly.

    Runs on the integer matrix A = L*U, L the lcm of the degrees, so no
    Fraction is involved: p is a period when A^p = L^p I, and the least
    one when A^(p/q) != L^(p/q) I for every prime q dividing p.
    """
    if p < 1:
        raise InvalidParameterError("period must be >= 1, got %d" % p)
    scale = math.lcm(*g.degree)
    u = build_grover_operator(g).matrix
    a = [[int(x * scale) for x in row] for row in u.entries]

    def is_period(k: int) -> bool:
        power = _int_mat_pow(a, k, bit_budget)
        return all(
            x == (scale**k if i == j else 0)
            for i, row in enumerate(power)
            for j, x in enumerate(row)
        )

    return is_period(p) and not any(is_period(p // q) for q in _prime_factors(p))


@dataclass(frozen=True)
class PeriodReport:
    """Outcome of period detection.

    verdict is "periodic" or "refuted_by_integrality". period is set only
    for "periodic". failing_indices lists the integrality violations for
    the refuted case. candidate_source names the route that found the
    certified period: "cyclotomic", or None when refuted.
    """

    verdict: str
    period: int | None
    failing_indices: tuple[int, ...]
    candidate_source: str | None
    graph_hash: str


def find_period(g: Graph, bit_budget: int = DEFAULT_BIT_BUDGET) -> PeriodReport:
    """Decide periodicity of the arc evolution operator exactly.

    A graph that fails the integrality filter is refuted. Otherwise the
    period is the lcm of the d whose Psi_d divides P(y) = 2^n cp(y/2),
    with 2 added when m > n: the arc operator then has -1 eigenvalues
    outside the image of the vertex spectrum (on a bipartite graph Psi_2
    divides P anyway). The period is certified by certify_period before
    it is reported; bit_budget caps the entry size of its matrix powers.

    Cached like transition_charpoly: a PeriodReport is immutable, and a
    BudgetExceededError is raised again on every call, never cached.
    """
    return _find_period(g, bit_budget)


# find_period stays a plain function so that a wrapper installed around it
# (bench/traced_cli.py) still sees and times every call
@functools.lru_cache(maxsize=256)
def _find_period(g: Graph, bit_budget: int) -> PeriodReport:
    digest = graph_hash(g)
    cp = transition_charpoly(g)
    failing = integrality_filter(cp)
    if failing:
        return PeriodReport("refuted_by_integrality", None, failing, None, digest)
    n = cp.degree
    scaled = [int(cp[k] * 2 ** (n - k)) for k in range(n + 1)]
    period = math.lcm(*_cyclotomic_orders(scaled), 2 if g.m > g.n else 1)
    if not certify_period(g, period, bit_budget):
        raise RuntimeError("period %d failed its exact certificate" % period)
    return PeriodReport("periodic", period, (), "cyclotomic", digest)


def odd_period_query(g: Graph) -> bool:
    """True iff the graph is periodic with an odd period."""
    report = find_period(g)
    return report.verdict == "periodic" and report.period % 2 == 1


# ---------------------------------------------------------------------------
# Matching-sum identities on odd-unicyclic graphs.


def cycle_matching_identity_check(
    g: Graph, d: UnicycleDecomposition, t: int
) -> bool:
    """Cross-check a charpoly coefficient against cycle-avoiding matchings.

    For an odd-unicyclic graph with girth k, the coefficient of x^(n-k-2t)
    must equal (-1)^(t+1) * 2 * prod(1/deg over cycle vertices) times the
    weighted sum of t-matchings that avoid the cycle entirely. Exact
    rational comparison on both sides.
    """
    if t < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % t)
    n = g.n
    index = n - d.girth - 2 * t
    if index < 0:
        raise IndexOutOfRangeError(
            "coefficient index %d out of range for t=%d" % (index, t)
        )
    cp = transition_charpoly(g)
    cycle_set = set(d.cycle)
    off_cycle = [
        e for e in g.edges if e[0] not in cycle_set and e[1] not in cycle_set
    ]
    cycle_weight = Fraction(1)
    for v in d.cycle:
        cycle_weight /= g.degree[v]
    rhs = (
        Fraction((-1) ** (t + 1))
        * 2
        * cycle_weight
        * matching_sum(g, t, off_cycle, d.cycle)
    )
    return cp[index] == rhs


@dataclass(frozen=True)
class BranchFrame:
    """The split of an odd-unicyclic graph at its degree-4 cycle vertex.

    hub is the cycle vertex of degree 4; its two off-cycle neighbours head
    the two branches. core_edges holds the cycle plus the two first branch
    edges; outer_edges is everything else. branch_a/branch_b list each
    lockstep chain of vertices walked from the hub while degrees stay 2,
    plus the first vertex that breaks the pattern.
    """

    hub: int
    core_edges: tuple[Edge, ...]
    outer_edges: tuple[Edge, ...]
    branch_a: tuple[int, ...]
    branch_b: tuple[int, ...]


def _chain_from(g: Graph, hub: int, first: int) -> tuple[int, ...]:
    # follow the unique path while interior degrees equal 2
    chain = [first]
    prev, cur = hub, first
    while g.degree[cur] == 2:
        nxt = next(x for x in g.adj[cur] if x != prev)
        chain.append(nxt)
        prev, cur = cur, nxt
    return tuple(chain)


def branch_frame(g: Graph) -> BranchFrame:
    """Build the degree-4 split, or raise ShapeMismatch if it does not exist."""
    cls = classify(g)
    if cls.kind != "odd_unicycle":
        raise ShapeMismatchError("graph is not odd-unicyclic")
    d = cls.decomposition
    verdict = degree_condition_filter(d, g)
    if verdict.kind != "one_degree_four":
        raise ShapeMismatchError(
            "cycle degrees are %s, need exactly one degree-4 vertex"
            % verdict.kind
        )
    hub = verdict.vertex
    cycle_set = set(d.cycle)
    heads = sorted(x for x in g.adj[hub] if x not in cycle_set)
    assert len(heads) == 2
    first_edges = [tuple(sorted((hub, h))) for h in heads]
    core = tuple(sorted(set(d.cycle_edges()) | set(first_edges)))
    core_set = set(core)
    outer = tuple(e for e in g.edges if e not in core_set)
    return BranchFrame(
        hub=hub,
        core_edges=core,
        outer_edges=outer,
        branch_a=_chain_from(g, hub, heads[0]),
        branch_b=_chain_from(g, hub, heads[1]),
    )


def lockstep_chain_length(frame: BranchFrame, g: Graph) -> int:
    """Largest t with the first t vertices of both branches of degree 2."""
    t = 0
    while (
        t < len(frame.branch_a)
        and t < len(frame.branch_b)
        and g.degree[frame.branch_a[t]] == 2
        and g.degree[frame.branch_b[t]] == 2
    ):
        t += 1
    return t


def _branch_edges(frame: BranchFrame, which: str) -> list[Edge]:
    chain = frame.branch_a if which == "a" else frame.branch_b
    verts = (frame.hub,) + chain
    return [
        tuple(sorted((verts[i], verts[i + 1]))) for i in range(len(chain))
    ]


def _outer_sum_excluding(
    g: Graph, frame: BranchFrame, i: int, which: str, upto: int
) -> Fraction:
    """i-matching sum over outer edges minus branch edges 2..upto."""
    drop = set(_branch_edges(frame, which)[1:upto])
    allowed = [e for e in frame.outer_edges if e not in drop]
    return matching_sum(g, i, allowed)


def _paired_sum(g: Graph, frame: BranchFrame, i: int, upto: int) -> Fraction:
    return _outer_sum_excluding(g, frame, i, "a", upto) + _outer_sum_excluding(
        g, frame, i, "b", upto
    )


def tail_recurrence_check(g: Graph, i: int, r: int) -> bool:
    """Verify the peel-one-edge recurrence for paired branch matching sums.

    With S(i, r) denoting the sum of the two i-matching totals over outer
    edges that exclude branch edges 2..r, the identity is

        S(i, r) = 2 * sum over outer i-matchings
                  - sum_{j=2..r} (1/4) * S(i-1, j+1).

    It holds when the first r vertices of both branches have degree 2,
    which makes every excluded edge weight exactly 1/4 and pins the edge
    after the last excluded one. Outside that shape the premise fails and
    ShapeMismatch is raised. i=0 reduces to 2 = 2.
    """
    if i < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % i)
    if r < 1:
        raise InvalidParameterError("exclusion depth must be >= 1, got %d" % r)
    frame = branch_frame(g)
    if i == 0:
        return _paired_sum(g, frame, 0, r) == 2
    if r >= 2:
        for chain in (frame.branch_a, frame.branch_b):
            if len(chain) <= r or any(g.degree[chain[j]] != 2 for j in range(r)):
                raise ShapeMismatchError(
                    "branch lacks %d degree-2 chain vertices" % r
                )
    lhs = _paired_sum(g, frame, i, r)
    base = matching_sum(g, i, frame.outer_edges)
    rhs = 2 * base
    for j in range(2, r + 1):
        rhs -= Fraction(1, 4) * _paired_sum(g, frame, i - 1, j + 1)
    return lhs == rhs


def matching_split_check(g: Graph, t: int) -> bool:
    """Split all t-matchings at the core edge set and compare with charpoly.

    The weighted t-matching total over the whole graph equals the
    coefficient of x^(n-2t) up to sign (-1)^t; subtracting the directly
    enumerated matchings that touch the core must leave exactly the
    outer-edge total. Exact comparison.
    """
    if t < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % t)
    frame = branch_frame(g)
    if 2 * t > g.n:
        raise IndexOutOfRangeError(
            "coefficient index %d out of range" % (g.n - 2 * t)
        )
    cp = transition_charpoly(g)
    outer_total = matching_sum(g, t, frame.outer_edges)
    core = set(frame.core_edges)
    touching = Fraction(0)
    for matching in enumerate_matchings(g, t):
        if any(e in core for e in matching):
            prod = Fraction(1)
            for e in matching:
                prod *= edge_weight(g, e)
            touching += prod
    lhs_rho = Fraction((-1) ** t) * cp[g.n - 2 * t]
    return outer_total == lhs_rho - touching


@dataclass(frozen=True)
class IntegralityInstance:
    i: int
    scaled_outer: Fraction  # 4^i times the outer i-matching sum
    scaled_paired: Fraction  # 2^(2(i-1)-1) times S(i-1, 2)

    @property
    def holds(self) -> bool:
        return is_integer(self.scaled_outer) and is_integer(self.scaled_paired)


def branch_integrality_instances(g: Graph) -> tuple[IntegralityInstance, ...]:
    """Scaled matching sums that must be integers along the lockstep chains.

    For i = 1..t (t the lockstep degree-2 chain length), checks that
    4^i * (outer i-matching sum) and 2^(2(i-1)-1) * S(i-1, 2) are integers.
    """
    frame = branch_frame(g)
    t = lockstep_chain_length(frame, g)
    out = []
    for i in range(1, t + 1):
        k_scaled = Fraction(4) ** i * matching_sum(g, i, frame.outer_edges)
        l_scaled = Fraction(2) ** (2 * (i - 1) - 1) * _paired_sum(
            g, frame, i - 1, 2
        )
        out.append(IntegralityInstance(i, k_scaled, l_scaled))
    return tuple(out)


# ---------------------------------------------------------------------------
# Chebyshev eigenvector construction on the two-tailed family.


def chebyshev_table(max_index: int) -> tuple[tuple[int, ...], ...]:
    """Integer coefficients of the second-kind Chebyshev polynomials.

    Row j holds the coefficients of U_j, low to high. U_0 = 1, U_1 = 2x,
    U_{j+1} = 2x U_j - U_{j-1}.
    """
    if max_index < 0:
        raise InvalidParameterError("max_index must be >= 0")
    rows: list[tuple[int, ...]] = [(1,)]
    if max_index >= 1:
        rows.append((0, 2))
    for j in range(1, max_index):
        prev, cur = rows[j - 1], rows[j]
        nxt = [0] * (len(cur) + 1)
        for a, c in enumerate(cur):
            nxt[a + 1] += 2 * c
        for a, c in enumerate(prev):
            nxt[a] -= c
        rows.append(tuple(nxt))
    return tuple(rows)


@dataclass(frozen=True)
class ChebyshevReport:
    eigenvalues: tuple[float, ...]
    max_residual: float
    tail_edges: int


def chebyshev_eigen_check(k: int, r: int, tol: float = 1e-10) -> ChebyshevReport:
    """Verify the closed-form tail eigenvectors on the two-tailed graph.

    The graph is the odd cycle C_k with two pendant paths of m = r-1 edges
    each sharing one cycle vertex. For each root lambda_l =
    cos((2l-1) pi / (2m)) of the first-kind Chebyshev polynomial T_m, the
    vector that vanishes on the cycle and carries U_(j-1)(lambda_l) on one
    tail and its negative on the other is an eigenvector for lambda_l.
    Both claims are checked exactly, for all l at once, as polynomial
    identities modulo T_m, whose roots are simple: T_m divides the
    transition charpoly, and at every vertex v the eigen-residual
    sum_(u~v) f_u(x) - deg(v) x f_v(x) vanishes modulo T_m. Raises
    ResidualExceeded naming the failed divisibility or the first offending
    vertex. The reported eigenvalues are the closed-form cosines and
    max_residual is 0.0; tol is accepted for compatibility and unused.
    """
    if r < 2:
        raise InvalidParameterError("need r >= 2, got %d" % r)
    m = r - 1
    g = two_tail_graph(k, m)
    u = chebyshev_table(m)
    # T_1 = x and T_m = (U_m - U_(m-2)) / 2
    t_m = (0, 1) if m == 1 else tuple(
        (a - b) // 2 for a, b in zip(u[m], u[m - 2] + (0, 0))
    )
    monic = tuple(Fraction(c, t_m[-1]) for c in t_m)
    if _divide_monic(list(transition_charpoly(g).coeffs), monic) is None:
        raise ResidualExceededError(
            "T_%d does not divide the transition charpoly of twotail:%d,%d"
            % (m, k, m)
        )
    f: list[tuple[int, ...]] = [()] * g.n
    for j in range(1, m + 1):
        f[k + j - 1] = u[j - 1]
        f[k + m + j - 1] = tuple(-c for c in u[j - 1])
    for v in range(g.n):
        residual = [0] * (m + 1)
        for x in g.adj[v]:
            for i, c in enumerate(f[x]):
                residual[i] += c
        for i, c in enumerate(f[v]):
            residual[i + 1] -= g.degree[v] * c
        if _divide_monic(residual, monic) is None:
            raise ResidualExceededError(
                "eigen-residual at vertex %d is not 0 modulo T_%d" % (v, m)
            )
    lambdas = tuple(
        math.cos((2 * l - 1) * math.pi / (2 * m)) for l in range(1, m + 1)
    )
    return ChebyshevReport(eigenvalues=lambdas, max_residual=0.0, tail_edges=m)
