"""Period detection and the matching-sum identities that certify it.

A graph is periodic when some power of its arc evolution operator is the
identity; the period is the least such exponent. Detection is one exact
route from the transition characteristic polynomial cp. The integrality
filter refutes most graphs outright. For a graph that passes it,
P(y) = 2^n cp(y/2) is a monic integer polynomial whose roots are real and
lie in [-2, 2]. Its Konno-Sato lift, x^n P(x + 1/x) (x^2 - 1)^(m - n)
when m > n, is the arc characteristic polynomial, a monic integer
polynomial whose roots lie on the unit circle, so by Kronecker's theorem
it factors completely into cyclotomic polynomials Phi_d. The d that occur
are the orders of the arc eigenvalues, their lcm is the period, and the
period is certified exactly, minimality included, before it is reported:
on the arc characteristic polynomial computed from the arc operator,
independently of the transition side. The report holds the verdict, the
period and the indices that failed the filter.

The second half of the module verifies combinatorial identities between
characteristic-polynomial coefficients and weighted matching sums on
odd-unicyclic graphs, plus the Chebyshev eigenvector construction on the
two-tailed family. These back the structural argument for why odd periods
force the graph to be a bare odd cycle. branch_frame is memoised and
walks each branch chain once per graph; the lockstep length and the tail
recurrence's premise are read from the chain lengths.
"""

from __future__ import annotations

import functools
import math
import operator
from collections.abc import Iterable
from fractions import Fraction
from typing import NamedTuple

from .exceptions import (
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
    enumerate_matchings,
)
from .linalg import CharPoly, _divide_exact, is_integer
from .walk import arc_charpoly, konno_sato_lift, transition_charpoly


def _scaled_weight_sum(
    g: Graph, matchings: Iterable[tuple[Edge, ...]], t: int
) -> Fraction:
    """Sum of prod 1/(deg u deg v) over the given t-matchings.

    With L the lcm of the degrees, each edge weight is
    (L/deg u)(L/deg v) / L^2, so the products are summed as integers and
    divided by L^(2t) once.
    """
    deg = g.degree
    scale = math.lcm(*(d for d in deg if d))
    total = 0
    for matching in matchings:
        prod = 1
        for u, v in matching:
            prod *= (scale // deg[u]) * (scale // deg[v])
        total += prod
    return Fraction(total, scale ** (2 * t))


def matching_sum(g: Graph, t: int, allowed_edges=None) -> Fraction:
    """Sum over t-matchings of the product of reciprocal-degree weights.

    The matchings are drawn from allowed_edges (default: all edges). The
    empty matching contributes 1, so t=0 always returns 1.
    """
    return _scaled_weight_sum(g, enumerate_matchings(g, t, allowed_edges), t)


def integrality_filter(cp: CharPoly) -> tuple[int, ...]:
    """Indices j where 2^j times the coefficient of x^(n-j) is not integral.

    With cp = ints / D, that is where D does not divide 2^j ints[n-j].
    An empty result means the necessary condition for periodicity holds.
    """
    ints, d, n = cp.integer_coeffs, cp.denominator, cp.degree
    return tuple(j for j in range(n + 1) if (ints[n - j] << j) % d)


class DegreeConditionVerdict(NamedTuple):
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


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d: x^d - 1 divided by Phi_e for every proper divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _divide_exact(poly, _cyclotomic(e))
    return tuple(poly)


def _cyclotomic_orders(
    poly: list[int], candidates: Iterable[int]
) -> tuple[list[int], list[int]]:
    """Divide Phi_d out of poly as often as it goes, for each d in candidates.

    A d with phi(d) above what is left of poly's degree is skipped before
    Phi_d is built. Returns the d found, once per factor, and the quotient
    left over.
    """
    orders = []
    for d in candidates:
        if len(poly) == 1:
            break
        if _totient(d) > len(poly) - 1:
            continue
        while (quot := _divide_exact(poly, _cyclotomic(d))) is not None:
            poly = quot
            orders.append(d)
    return orders, poly


def certify_period(g: Graph, p: int) -> bool:
    """True iff p is the least k >= 1 with U^k = I, decided exactly.

    Three exact checks, none of which raises U to a power:

    1. A = L*U from grover_arc_rows has A A^T = L^2 I, which
       walk.arc_charpoly checks before it returns, raising
       ResidualExceededError otherwise. So U is orthogonal, hence
       diagonalizable, and U^k = I exactly when every eigenvalue is a
       k-th root of unity.
    2. charpoly_U has integer coefficients and is used up by dividing
       out cyclotomic polynomials Phi_d with d | p. The d found are the
       orders of the eigenvalues, so U^k = I exactly when every d
       divides k.
    3. The lcm of the d found is p, so p is the least such k.

    A factor of the degree-N charpoly has phi(d) <= N, and
    phi(d) >= sqrt(d/2) for every d, so d <= 2N^2 bounds the search
    whatever the size of p, and p itself is never factored.
    """
    try:
        p = operator.index(p)
    except TypeError:
        raise InvalidParameterError("period %r is not an integer" % (p,)) from None
    if p < 1:
        raise InvalidParameterError("period must be >= 1, got %d" % p)
    cp = arc_charpoly(g)
    if cp.denominator != 1:
        return False
    divisors = (d for d in range(1, min(p, 2 * cp.degree**2) + 1) if p % d == 0)
    orders, rest = _cyclotomic_orders(list(cp.integer_coeffs), divisors)
    return len(rest) == 1 and math.lcm(*orders) == p


class PeriodReport(NamedTuple):
    """Outcome of period detection.

    verdict is "periodic" or "refuted_by_integrality". period is set only
    for "periodic". failing_indices lists the integrality violations for
    the refuted case.
    """

    verdict: str
    period: int | None
    failing_indices: tuple[int, ...]


def find_period(g: Graph) -> PeriodReport:
    """Decide periodicity of the arc evolution operator exactly.

    A graph that fails the integrality filter is refuted. Otherwise the
    period is the lcm of the d whose Phi_d divides the Konno-Sato lift of
    P(y) = 2^n cp(y/2) (walk.konno_sato_lift with excess m - n). Each
    vertex eigenvalue cos(theta) lifts to exp(+-i theta), and the factor
    (x^2 - 1)^(m - n) adds the arc eigenvalues +1 and -1 outside that
    image; for a tree the lift has one spare Phi_1 Phi_2, which the
    bipartite spectrum holds already, so the lcm is the same. The period
    is certified by certify_period before it is reported.
    """
    cp = transition_charpoly(g)
    failing = integrality_filter(cp)
    if failing:
        return PeriodReport("refuted_by_integrality", None, failing)
    # cp = ints / D; the filter passed, so D divides 2^(n-k) ints[k] for
    # every k and P(y) is an integer polynomial
    n, d = cp.degree, cp.denominator
    scaled = [(c << (n - k)) // d for k, c in enumerate(cp.integer_coeffs)]
    lift = konno_sato_lift(scaled, g.m - n)
    # a factor of degree at most N = deg lift has phi(d) <= N, and
    # phi(d) >= sqrt(d/2) for every d, so d <= 2N^2 covers them all
    orders, rest = _cyclotomic_orders(lift, range(1, 2 * (len(lift) - 1) ** 2 + 1))
    if len(rest) > 1:
        # Kronecker's theorem rules this out for a polynomial that passed
        # the integrality filter, so it is a defect, never a verdict
        raise RuntimeError("factor %r is not a product of Phi_d" % (rest,))
    period = math.lcm(*orders)
    if not certify_period(g, period):
        raise RuntimeError("period %d failed its exact certificate" % period)
    return PeriodReport("periodic", period, ())


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
        * matching_sum(g, t, off_cycle)
    )
    return cp[index] == rhs


class BranchFrame(NamedTuple):
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


@functools.lru_cache(maxsize=256)
def branch_frame(g: Graph) -> BranchFrame:
    """Build the degree-4 split, or raise ShapeMismatch if it does not exist.

    Cached, like graphs.peel_leaves, because every identity instance on a
    graph reads the same frame; the frame is immutable.
    """
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


def lockstep_chain_length(frame: BranchFrame) -> int:
    """Largest t with the first t vertices of both branches of degree 2.

    Each branch ends at its first vertex whose degree is not 2, so that
    is one less than the shorter branch's length.
    """
    return min(len(frame.branch_a), len(frame.branch_b)) - 1


def _paired_sum(g: Graph, frame: BranchFrame, i: int, upto: int) -> Fraction:
    """S(i, upto) of tail_recurrence_check, summed branch by branch.

    Each branch adds the i-matching sum over the outer edges less its own
    edges 2..upto.
    """
    total = Fraction(0)
    for chain in (frame.branch_a, frame.branch_b):
        verts = (frame.hub,) + chain
        drop = {
            tuple(sorted(verts[j : j + 2])) for j in range(1, min(upto, len(chain)))
        }
        total += matching_sum(g, i, [e for e in frame.outer_edges if e not in drop])
    return total


def tail_recurrence_check(g: Graph, i: int, r: int) -> bool:
    """Verify the peel-one-edge recurrence for paired branch matching sums.

    With S(i, r) denoting the sum of the two i-matching totals over outer
    edges that exclude branch edges 2..r, the identity is

        S(i, r) = 2 * sum over outer i-matchings
                  - sum_{j=2..r} (1/4) * S(i-1, j+1).

    It holds when the first r vertices of both branches have degree 2,
    which makes every excluded edge weight exactly 1/4 and pins the edge
    after the last excluded one. Outside that shape, when r >= 2 exceeds
    lockstep_chain_length, the premise fails and ShapeMismatch is raised.
    i=0 reduces to 2 = 2.
    """
    if i < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % i)
    if r < 1:
        raise InvalidParameterError("exclusion depth must be >= 1, got %d" % r)
    frame = branch_frame(g)
    if i == 0:
        return _paired_sum(g, frame, 0, r) == 2
    if r >= 2 and lockstep_chain_length(frame) < r:
        raise ShapeMismatchError("branch lacks %d degree-2 chain vertices" % r)
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
    touching = _scaled_weight_sum(
        g, (mt for mt in enumerate_matchings(g, t) if any(e in core for e in mt)), t
    )
    lhs_rho = Fraction((-1) ** t) * cp[g.n - 2 * t]
    return outer_total == lhs_rho - touching


class IntegralityInstance(NamedTuple):
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
    t = lockstep_chain_length(frame)
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


class ChebyshevReport(NamedTuple):
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
    # T_m is primitive (its coefficients sum to T_m(1) = 1), so it divides
    # cp exactly when it divides the integer coefficients of cp
    if _divide_exact(transition_charpoly(g).integer_coeffs, t_m) is None:
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
        if _divide_exact(residual, t_m) is None:
            raise ResidualExceededError(
                "eigen-residual at vertex %d is not 0 modulo T_%d" % (v, m)
            )
    lambdas = tuple(
        math.cos((2 * l - 1) * math.pi / (2 * m)) for l in range(1, m + 1)
    )
    return ChebyshevReport(eigenvalues=lambdas, max_residual=0.0, tail_edges=m)
