"""Period detection and the matching-sum identities that certify it.

A graph is periodic when some power of its arc evolution operator is the
identity; the period is the least such exponent. Detection is one exact
route. The integrality filter on the transition characteristic
polynomial cp refutes most graphs outright. For a graph that passes it,
P(y) = 2^n cp(y/2) is a monic integer polynomial whose roots are real and
lie in [-2, 2]. The arc characteristic polynomial u, computed from the
arc operator once that operator is checked to be orthogonal, is then
checked coefficient by coefficient against the Konno-Sato lift of P. So
u is a monic integer polynomial whose roots lie on the unit circle, and
by Kronecker's theorem it factors completely into cyclotomic polynomials
Phi_d. The d that occur are the orders of the arc eigenvalues, and their
lcm is the period, exact and least. The report holds the verdict, the
period and the indices that failed the filter.

The second half of the module verifies combinatorial identities between
characteristic-polynomial coefficients and weighted matching sums on
odd-unicyclic graphs, plus the Chebyshev eigenvector construction on the
two-tailed family. These back the structural argument for why odd periods
force the graph to be a bare odd cycle. branch_frame is memoised and
walks each branch chain once per graph; the lockstep length and the tail
recurrence's premise are read from the chain lengths. No matching is
listed: every weighted matching sum is an entry of one integer matching
polynomial per graph and edge pool, memoised like the transition
charpoly and computed by the same function of linalg. The
identities compare integers: each side is cleared of its denominators,
L^(2t) for a t-matching sum and the CharPoly denominator for a
coefficient, and the two are cross-multiplied. Only matching_sum, and an
integrality instance that fails, build a Fraction.
"""

from __future__ import annotations

import functools
import math
from typing import TYPE_CHECKING, NamedTuple

from .exceptions import (
    IndexOutOfRangeError,
    InvalidParameterError,
    ResidualExceededError,
    ShapeMismatchError,
)
from .families import two_tail_graph
from .graphs import Edge, Graph, UnicycleDecomposition, _memoised, classify, peel_leaves
from .linalg import CharPoly, _divide_exact, _packed_matching_poly, _signed_digits
from .walk import arc_charpoly, konno_sato_residual, transition_charpoly

if TYPE_CHECKING:
    from fractions import Fraction


@_memoised
def _matching_poly(g: Graph, pool: tuple[Edge, ...]) -> tuple[int, ...]:
    """Entry t is the sum over t-matchings of pool of prod (L/deg u)(L/deg v).

    pool is a sorted tuple of edges of g and L = g.degree_lcm, so the
    t-matching sum is entry t over L^(2t); entries past the largest
    matching are 0 and left off. It is linalg._packed_matching_poly on the
    pool's peel with a_v = 1 and w_e = (L/deg u)(L/deg v) x, at x = 2^s.
    The coefficients are nonnegative and sum to at most prod (1 + w_e), at
    most 2^(s-2), so linalg._signed_digits reads them back unchanged.
    Memoised on g per pool: every t of an identity reads the same pool.
    """
    deg, scale = g.degree, g.degree_lcm
    weight = [(scale // deg[u]) * (scale // deg[v]) for u, v in pool]
    s = 2 + sum((1 + w).bit_length() for w in weight)
    packed, peel = {e: w << s for e, w in zip(pool, weight)}, peel_leaves(g.n, pool)
    return _signed_digits(_packed_matching_poly([1] * g.n, packed, peel), s)


def _matching_count(g: Graph, pool: tuple[Edge, ...], t: int) -> int:
    """The t-matching sum of pool times L^(2t): entry t of _matching_poly."""
    coeffs = _matching_poly(g, pool)
    return coeffs[t] if t < len(coeffs) else 0


def matching_sum(g: Graph, t: int, allowed_edges=None) -> Fraction:
    """Sum over t-matchings of the product of reciprocal-degree weights.

    The matchings are drawn from allowed_edges (default: all edges). The
    empty matching contributes 1, so t=0 returns 1. No matching is listed:
    the sum is entry t of the integer matching polynomial of the pool,
    _matching_poly, over L^(2t), one Fraction. A pool with two or more
    cycles raises InvalidParameterError: the identity suites pass only
    forests and unicyclic pools, and no command needs more.
    """
    from fractions import Fraction

    if t < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % t)
    if allowed_edges is None:
        pool = g.edges
    else:
        allowed = {(u, v) if u < v else (v, u) for u, v in allowed_edges}
        pool = tuple(e for e in g.edges if e in allowed)
    return Fraction(_matching_count(g, pool, t), g.degree_lcm ** (2 * t))


def _touching_sum(g: Graph, core: tuple[Edge, ...], t: int) -> int:
    """Sum over the t-matchings of g that hold a core edge, by the first one,
    times L^(2t).

    A matching whose first core edge is e_i = u_i v_i holds e_i and a
    (t-1)-matching of g less e_1..e_(i-1) and the vertices u_i, v_i, so
    the sum is that of w_(e_i) m_(t-1)(G - {e_1..e_(i-1)} - u_i - v_i),
    computed apart from the sum over the other edges.
    """
    if t == 0:
        return 0
    deg, scale = g.degree, g.degree_lcm
    total = 0
    for i, (u, v) in enumerate(core):
        earlier = core[:i]
        pool = tuple(
            e for e in g.edges if u not in e and v not in e and e not in earlier
        )
        total += (scale // deg[u]) * (scale // deg[v]) * _matching_count(g, pool, t - 1)
    return total


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


def _totient(d: int) -> int:
    phi, k, p = d, d, 2
    while p * p <= k:
        if k % p == 0:
            phi -= phi // p
            while k % p == 0:
                k //= p
        p += 1
    if k > 1:
        phi -= phi // k
    return phi


@functools.cache
def _cyclotomic(d: int) -> tuple[int, ...]:
    """Phi_d: x^d - 1 divided by Phi_e for every proper divisor e of d."""
    poly = [-1] + [0] * (d - 1) + [1]
    for e in range(1, d):
        if d % e == 0:
            poly = _divide_exact(poly, _cyclotomic(e))
    return tuple(poly)


def _cyclotomic_orders(poly: list[int]) -> tuple[list[int], list[int]]:
    """Divide Phi_d out of poly as often as it goes, for d = 1, 2, ...

    On a poly of degree N a factor Phi_d has phi(d) <= N, and
    phi(d) >= sqrt(d/2) for every d, so d <= 2N^2 covers them all. A d
    with phi(d) above what is left of poly's degree is skipped before Phi_d
    is built. Returns the d found, once per factor, and the quotient left
    over.
    """
    orders = []
    for d in range(1, 2 * (len(poly) - 1) ** 2 + 1):
        if len(poly) == 1:
            break
        if _totient(d) > len(poly) - 1:
            continue
        while (quot := _divide_exact(poly, _cyclotomic(d))) is not None:
            poly = quot
            orders.append(d)
    return orders, poly


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
    arc charpoly u = walk.arc_charpoly(g), whose rows have passed
    A A^T = L^2 I, so that U is orthogonal and diagonalizable, is checked
    against the transition charpoly by walk.konno_sato_residual, and that
    same u is factored into Phi_d. U^k = I exactly when every d found
    divides k, so the period is their lcm. The identity is a theorem, and
    once it holds on a graph that passed the filter Kronecker's theorem
    rules out a leftover factor, so either failure is a defect and raises
    RuntimeError, never a verdict.
    """
    cp = transition_charpoly(g)
    failing = integrality_filter(cp)
    if failing:
        return PeriodReport("refuted_by_integrality", None, failing)
    u = arc_charpoly(g)
    if konno_sato_residual(cp, u):
        raise RuntimeError("the arc charpoly fails the Konno-Sato identity")
    orders, rest = _cyclotomic_orders(list(u.integer_coeffs))
    if len(rest) > 1:
        raise RuntimeError("factor %r is not a product of Phi_d" % (rest,))
    return PeriodReport("periodic", math.lcm(*orders), ())


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
    weighted sum of t-matchings that avoid the cycle entirely. Both sides
    are cleared of their denominators, the charpoly's and
    prod(deg) L^(2t), and compared in integers.
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
    off_cycle = tuple(e for e in g.edges if cycle_set.isdisjoint(e))
    cycle_degrees = math.prod(g.degree[v] for v in d.cycle)
    lhs = cp.integer_coeffs[index] * cycle_degrees * g.degree_lcm ** (2 * t)
    rhs = (-1) ** (t + 1) * 2 * _matching_count(g, off_cycle, t) * cp.denominator
    return lhs == rhs


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


@_memoised
def branch_frame(g: Graph) -> BranchFrame:
    """Build the degree-4 split, or raise ShapeMismatch if it does not exist.

    Memoised on g, like graphs.peel_leaves, because every identity
    instance on a graph reads the same frame; the frame is immutable.
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
    ring = zip(d.cycle, d.cycle[1:] + d.cycle[:1])
    core = tuple(sorted({tuple(sorted(e)) for e in ring}.union(first_edges)))
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


def _paired_sum(g: Graph, frame: BranchFrame, i: int, upto: int) -> int:
    """S(i, upto) of tail_recurrence_check times L^(2i), branch by branch.

    Each branch adds the i-matching sum over the outer edges less its own
    edges 2..upto.
    """
    total = 0
    for chain in (frame.branch_a, frame.branch_b):
        verts = (frame.hub,) + chain
        drop = {
            tuple(sorted(verts[j : j + 2])) for j in range(1, min(upto, len(chain)))
        }
        pool = tuple(e for e in frame.outer_edges if e not in drop)
        total += _matching_count(g, pool, i)
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
    i=0 reduces to 2 = 2. With every i-matching sum taken times L^(2i),
    the identity is compared in integers as
    4 S(i, r) = 8 (outer sum) - L^2 sum_j S(i-1, j+1).
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
    lhs = 4 * _paired_sum(g, frame, i, r)
    rhs = 8 * _matching_count(g, frame.outer_edges, i) - g.degree_lcm ** 2 * sum(
        _paired_sum(g, frame, i - 1, j + 1) for j in range(2, r + 1)
    )
    return lhs == rhs


def matching_split_check(g: Graph, t: int) -> bool:
    """Split all t-matchings at the core edge set and compare with charpoly.

    The weighted t-matching total over the whole graph equals the
    coefficient of x^(n-2t) up to sign (-1)^t; subtracting the matchings
    that touch the core, summed by their first core edge in
    _touching_sum and never as what the outer sum leaves, must leave
    exactly the outer-edge total. The sums are taken times L^(2t) and the
    coefficient as its integer over the charpoly's denominator D, so the
    comparison is (outer + touching) D = (-1)^t (D cp_(n-2t)) L^(2t), in
    integers.
    """
    if t < 0:
        raise InvalidParameterError("matching size must be >= 0, got %d" % t)
    frame = branch_frame(g)
    if 2 * t > g.n:
        raise IndexOutOfRangeError(
            "coefficient index %d out of range" % (g.n - 2 * t)
        )
    cp = transition_charpoly(g)
    outer_total = _matching_count(g, frame.outer_edges, t)
    touching = _touching_sum(g, frame.core_edges, t)
    rho = (-1) ** t * cp.integer_coeffs[g.n - 2 * t] * g.degree_lcm ** (2 * t)
    return (outer_total + touching) * cp.denominator == rho


def _quotient(num: int, den: int) -> int | Fraction:
    """num / den as an int when den divides num, else as a Fraction."""
    q, r = divmod(num, den)
    if not r:
        return q
    from fractions import Fraction

    return Fraction(num, den)


class IntegralityInstance(NamedTuple):
    """One step i of the lockstep chains and its two scaled sums.

    Each field is an int when the scaled sum is an integer and a Fraction
    otherwise, so holds reads the two denominators.
    """

    i: int
    scaled_outer: int | Fraction  # 4^i times the outer i-matching sum
    scaled_paired: int | Fraction  # 2^(2(i-1)-1) times S(i-1, 2)

    @property
    def holds(self) -> bool:
        return self.scaled_outer.denominator == 1 and self.scaled_paired.denominator == 1


def branch_integrality_instances(g: Graph) -> tuple[IntegralityInstance, ...]:
    """Scaled matching sums that must be integers along the lockstep chains.

    For i = 1..t (t the lockstep degree-2 chain length), checks that
    4^i * (outer i-matching sum) and 2^(2(i-1)-1) * S(i-1, 2) are integers.
    With the sums taken times L^(2i) and L^(2(i-1)), and 2^(2(i-1)-1) as
    4^i / 8, each is a divisibility test of integers.
    """
    frame = branch_frame(g)
    t = lockstep_chain_length(frame)
    scale = g.degree_lcm
    out = []
    for i in range(1, t + 1):
        k_scaled = _quotient(
            _matching_count(g, frame.outer_edges, i) << 2 * i, scale ** (2 * i)
        )
        l_scaled = _quotient(
            _paired_sum(g, frame, i - 1, 2) << 2 * i, scale ** (2 * i - 2) << 3
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


def chebyshev_eigen_check(k: int, r: int) -> ChebyshevReport:
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
    ResidualExceededError naming the failed divisibility or the first
    offending vertex. The reported eigenvalues are the closed-form
    cosines and max_residual is 0.0.
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
