"""Grover walk operator on arcs, vertex transition matrix, spectral map.

The walk moves on arcs. Incoming amplitude at a vertex of degree d is
redistributed by the Grover coin: weight 2/d onto every outgoing arc, minus
1 on the reversal of the arc it arrived on. The vertex-level shadow of the
walk is the simple random walk matrix, and the spectrum of the arc operator
is the image of the vertex spectrum under x -> exp(+-i arccos x), with any
leftover eigenvalues sitting at +1 or -1.

Each characteristic polynomial takes the shortest exact route the walk's
structure allows. On a tree or a unicyclic graph the transition charpoly
is det(xD - A) / prod(deg), built by peeling leaves and closing the one
cycle; on a denser graph it comes from the linalg kernel. The arc
operator is orthogonal, so its charpoly is palindromic up to the sign
det U, and the kernel runs only the first half of its steps. Both come
out as one linalg.CharPoly, integer coefficients over one denominator,
and the spectral map compares them in integers.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from typing import NamedTuple

from .exceptions import InvalidParameterError, ResidualExceededError
from .graphs import Arc, Graph, peel_leaves
from .linalg import (
    CharPoly,
    RationalMatrix,
    charpoly_from_scaled,
    charpoly_rows,
    is_scaled_orthogonal,
    sparse_rows,
)


class GroverOperator(NamedTuple):
    """Arc-space walk operator with its arc order."""

    matrix: RationalMatrix
    arcs: tuple[Arc, ...]

    def arc_index(self, arc: Arc) -> int:
        return self.arcs.index(arc)


class TransitionMatrix(NamedTuple):
    """Row-stochastic simple random walk matrix."""

    matrix: RationalMatrix


def _require_walkable(g: Graph) -> None:
    if g.m == 0:
        raise InvalidParameterError(
            "walk operators need at least one edge; the single-vertex graph has none"
        )


def grover_arc_rows(g: Graph) -> tuple[int, list[list[int]]]:
    """L, the lcm of the degrees, and the rows of the integer operator A = L*U.

    Rows and columns follow g.arcs(). Entry (e, f) is 2L/deg(t(f)) when f
    feeds into e (t(f) = o(e)) and e is not the reversal of f; the
    reversal gets 2L/deg(t(f)) - L; everything else is 0. Every entry is
    an integer because deg(t(f)) divides L.
    """
    _require_walkable(g)
    arcs = g.arcs()
    index = {arc: i for i, arc in enumerate(arcs)}
    scale = math.lcm(*g.degree)
    rows = [[0] * len(arcs) for _ in arcs]
    for fi, f in enumerate(arcs):
        w = 2 * scale // g.degree[f.terminus]
        for nbr in g.adj[f.terminus]:
            rows[index[Arc(f.terminus, nbr)]][fi] = w - scale if nbr == f.origin else w
    return scale, rows


def _over_scale(scale: int, rows: list[list[int]]) -> RationalMatrix:
    """The integer rows divided by scale, as a RationalMatrix."""
    # one Fraction per distinct entry; Fractions are immutable
    values = {x: Fraction(x, scale) for x in {x for row in rows for x in row}}
    return RationalMatrix([[values[x] for x in row] for row in rows])


def build_grover_operator(g: Graph) -> GroverOperator:
    """Exact arc-space operator U = A/L, the rows of grover_arc_rows over L.

    Entry (e, f) is 2/deg(t(f)) when f feeds into e and e is not the
    reversal of f, and 2/deg(t(f)) - 1 on the reversal. The result is
    orthogonal with row sums 1.
    """
    return GroverOperator(matrix=_over_scale(*grover_arc_rows(g)), arcs=g.arcs())


def transition_rows(g: Graph) -> tuple[int, list[list[int]]]:
    """L, the lcm of the degrees, and the rows of the integer matrix L*T.

    Entry (u, v) is L/deg(u) for each neighbour v of u and 0 otherwise, an
    integer because deg(u) divides L. Every row sums to L.
    """
    _require_walkable(g)
    scale = math.lcm(*g.degree)
    rows = []
    for u in range(g.n):
        w = scale // g.degree[u]
        rows.append([w if v in g.adj[u] else 0 for v in range(g.n)])
    return scale, rows


def build_transition_matrix(g: Graph) -> TransitionMatrix:
    """T, the rows of transition_rows over L: entry (u, v) is 1/deg(u)."""
    return TransitionMatrix(matrix=_over_scale(*transition_rows(g)))


def _continuant(a: list[int], b: list[int]) -> int:
    """det M on a path of peeled vertices, each vertex i given by (a_i, b_i).

    F_j = a_j F_(j-1) - b_j b_(j-1) F_(j-2) with F_(-1) = 1: either vertex
    j stands alone, or it pairs with vertex j - 1 across their edge, and
    removing j - 1 leaves its trees, whose determinant is b_(j-1).
    """
    f_prev, f = 1, a[0]
    for j in range(1, len(a)):
        f_prev, f = f, a[j] * f - b[j] * b[j - 1] * f_prev
    return f


def _structural_det(g: Graph) -> tuple[int, ...]:
    """det(xD - A) of a connected graph with m <= n, low to high.

    The leaves come off in the order graphs.peel_leaves gives. Each
    vertex v keeps (P_v, Q_v): det M on the subtree v has absorbed so far,
    and the same without v, from (x deg v, 1). Merging a peeled leaf u
    into its neighbour v joins two blocks across the edge uv, whose
    entries are -1, so (P_v, Q_v) <- (P_v P_u - Q_v Q_u, Q_v P_u). A tree
    ends at one vertex, whose P is det M. A unicyclic graph ends at its
    cycle c_0..c_(k-1), with a_i = P and b_i = Q on c_i, and Schwenk's
    edge formula on the edge c_(k-1) c_0 closes it:

        det M = F(0..k-1) - b_0 b_(k-1) F(1..k-2) - 2 prod b_i,

    the terms without that edge, with it as a transposition, and with it
    in one of the two directed k-cycles, each of sign (-1)^(k-1) and
    weight (-1)^k times the trees hanging off the cycle.

    Every polynomial is held as its value at x = 2^s, one Python int, so
    that a product of polynomials is one integer product; evaluation is a
    ring map, so the value of det M comes out exact. Its coefficients are
    read back as signed s-bit digits, which is unique while each is below
    2^(s-1) in absolute value. Their absolute sum is at most the permanent
    of D + A, which is at most prod(2 deg), the product of its row sums;
    s = bitlen(prod deg) + n + 2 keeps that below 2^(s-2).
    """
    s = math.prod(g.degree).bit_length() + g.n + 2
    p = [d << s for d in g.degree]
    q = [1] * g.n
    removals, cycle = peel_leaves(g)
    for u, v in removals:
        p[v], q[v] = p[v] * p[u] - q[v] * q[u], q[v] * p[u]
    if not cycle:
        det = p[removals[-1][1]]  # a tree: the last vertex merged into is the root
    else:
        a = [p[c] for c in cycle]
        b = [q[c] for c in cycle]
        det = (
            _continuant(a, b)
            - b[0] * b[-1] * _continuant(a[1:-1], b[1:-1])
            - 2 * math.prod(b)
        )
    half, mask = 1 << (s - 1), (1 << s) - 1
    coeffs = []
    for _ in range(g.n + 1):
        c = ((det + half) & mask) - half  # the low slot as a signed digit
        coeffs.append(c)
        det = (det - c) >> s
    return tuple(coeffs)


@functools.lru_cache(maxsize=256)
def transition_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the transition matrix.

    When m <= n (a tree or a unicyclic graph), it is det(xD - A) from
    _structural_det over the product of the degrees, as
    det(xI - T) = det(D^-1 (xD - A)). Otherwise the kernel runs on the
    rows of L*T, which sum to L, so L is its bound. Cached, because every
    layer reads it; a CharPoly is immutable.
    """
    if g.m <= g.n:
        _require_walkable(g)
        return CharPoly(_structural_det(g), math.prod(g.degree))
    scale, rows = transition_rows(g)
    return charpoly_from_scaled(charpoly_rows(sparse_rows(rows), scale), scale)


@functools.lru_cache(maxsize=16)
def arc_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the arc operator U.

    Runs the integer kernel on the rows of A = L*U from grover_arc_rows.
    Once A A^T = L^2 I is checked, L is the kernel's bound and half of
    its N = 2m steps suffice: for a real orthogonal U of even size,
    x^N c(1/x) = det(I - xU) = det U c(x), so c_j = det U c_(N-j), and
    in the kernel's scaled coefficients q_j = L^(N-j) c_j that reads
    q_j = det U L^(N-2j) q_(N-j). det U = (-1)^(m+n): U is the arc
    reversal, m transpositions, times one coin block (2/d)J - I per
    vertex, of determinant (-1)^(d-1), and the d sum to 2m. When
    det U = -1 the middle coefficient q_(N/2) must be 0, which is
    checked; a nonzero one raises ResidualExceededError, and so does a
    failed orthogonality check. This is the one place the arc rows are
    built and checked. Cached so that the period certificate and
    spectral_map_check share one 2m x 2m charpoly per graph; the cache
    stays small because no caller returns to a graph after its analysis.
    """
    scale, rows = grover_arc_rows(g)
    sparse = sparse_rows(rows)
    if not is_scaled_orthogonal(scale, sparse):
        raise ResidualExceededError("the arc rows A fail A A^T = L^2 I")
    size = len(sparse)
    half = size // 2
    q = charpoly_rows(sparse, scale, half)
    sign = -1 if (g.m + g.n) % 2 else 1
    if sign < 0 and q[half]:
        raise ResidualExceededError(
            "det U = -1 but the middle arc charpoly coefficient is %d, not 0" % q[half]
        )
    for j in range(half):
        q[j] = sign * scale ** (size - 2 * j) * q[size - j]
    return charpoly_from_scaled(q, scale)


def _times_x2_minus_1(poly: list, times: int) -> list:
    """poly * (x^2 - 1)^times, coefficients low to high."""
    for _ in range(times):
        padded = [0, 0] + poly + [0, 0]
        poly = [padded[k] - padded[k + 2] for k in range(len(poly) + 2)]
    return poly


def konno_sato_lift(a: list, excess: int) -> list:
    """x^n P(x + 1/x) (x^2 - 1)^max(excess, 0) for P(y) = sum a_k y^k.

    a holds the integer coefficients of P, low to high, and n = deg P.
    With a_k = c_k 2^(n-k) for the transition charpoly cp_T = sum c_k x^k,
    P(y) = 2^n cp_T(y/2); find_period passes it once the integrality
    filter has made it integral, and spectral_map_check passes it times
    the denominator of cp_T. With excess = m - n the lift is the arc
    charpoly that the Konno-Sato identity predicts (times
    (x^2 - 1)^(n - m) for a tree). x^n (x + 1/x)^k = x^(n-k) (x^2 + 1)^k
    expands binomially, so ints stay ints.
    """
    n = len(a) - 1
    lift = [0] * (2 * n + 1)
    for k, c in enumerate(a):
        for i in range(k + 1):
            lift[n - k + 2 * i] += c * math.comb(k, i)
    return _times_x2_minus_1(lift, max(excess, 0))


class SpectralMapReport(NamedTuple):
    """Outcome of checking the vertex-to-arc spectral correspondence.

    predicted counts the arc eigenvalues that are images of vertex
    eigenvalues, one for each +-1 and two for every other one. unexplained
    counts the arc eigenvalues beyond those; they must be absorbed by the
    surplus multiplicities of +1 and -1. max_residual is the largest
    coefficient of the difference of the two sides of the identity, 0.0
    when it holds.
    """

    matched: bool
    max_residual: float
    predicted: int
    unexplained: int
    plus_one_extra: int
    minus_one_extra: int


def spectral_map_check(g: Graph, tol: float = 1e-8) -> SpectralMapReport:
    """Verify Spec(U) against the image of Spec(T) plus {+1, -1} absorbers.

    Checks exactly the Konno-Sato identity (Quantum Inf. Process. 11, 2012)

        charpoly_U(x) = (x^2 - 1)^(m - n) (2x)^n charpoly_T((x^2 + 1) / (2x)),

    with (x^2 - 1)^(n - m) moved to the left side for a tree. Each vertex
    eigenvalue lambda maps to the roots of x^2 - 2 lambda x + 1, that is
    exp(+-i arccos lambda), and the identity accounts for the rest of the
    arc spectrum at +-1. Both sides are compared in integers, on the
    integer coefficients and denominators of the two charpolys, and the
    counts come from exact root multiplicities on the same integers; tol
    is accepted for compatibility and unused.
    """
    cp_t = transition_charpoly(g)
    p_u = arc_charpoly(g)
    n, arc_count = cp_t.degree, p_u.degree

    # the integer coefficients are D_T cp_t and D_U p_u, D each denominator.
    # (2x)^n cp_t((x^2 + 1) / (2x)) is the lift of P(y) = 2^n cp_t(y/2), so
    # the identity holds exactly when lhs * D_T equals rhs * D_U
    t_ints, u_ints = cp_t.integer_coeffs, p_u.integer_coeffs
    d_t, d_u = cp_t.denominator, p_u.denominator
    rhs = konno_sato_lift([c << (n - k) for k, c in enumerate(t_ints)], g.m - n)
    lhs = _times_x2_minus_1(list(u_ints), max(n - g.m, 0))
    worst = max(abs(a * d_t - b * d_u) for a, b in zip(lhs, rhs, strict=True))

    t_plus = cp_t.root_multiplicity(1)
    t_minus = cp_t.root_multiplicity(-1)
    predicted = 2 * n - t_plus - t_minus
    plus_extra = p_u.root_multiplicity(1) - t_plus
    minus_extra = p_u.root_multiplicity(-1) - t_minus
    unexplained = arc_count - predicted
    matched = (
        not worst
        and plus_extra >= 0
        and minus_extra >= 0
        and unexplained == plus_extra + minus_extra
    )
    return SpectralMapReport(
        matched=matched,
        max_residual=worst / (d_t * d_u),
        predicted=predicted,
        unexplained=unexplained,
        plus_one_extra=plus_extra,
        minus_one_extra=minus_extra,
    )
