"""Grover walk operator on arcs, vertex transition matrix, spectral map.

The walk moves on arcs. Incoming amplitude at a vertex of degree d is
redistributed by the Grover coin: weight 2/d onto every outgoing arc, minus
1 on the reversal of the arc it arrived on. The vertex-level shadow of the
walk is the simple random walk matrix, and the spectrum of the arc operator
is the image of the vertex spectrum under x -> exp(+-i arccos x), with any
leftover eigenvalues sitting at +1 or -1.

Both matrices exist only in integers scaled by L = g.degree_lcm: L*T as
sparse rows, A = L*U as its coin factorization, one entry per vertex.
Each characteristic polynomial takes the shortest exact route the
walk's structure allows. On a tree or a unicyclic graph the transition
charpoly is det(xD - A) / prod(deg), which Sachs' expansion makes one
weighted matching polynomial of linalg; on a denser graph the kernel
runs on the rows of L*T. The kernel steps on the arc operator through
its coin, which it checks orthogonal first, so the charpoly is
palindromic up to the sign det U and half of the steps suffice. Both
come out as one linalg.CharPoly, integer coefficients over one
denominator, and the spectral map compares them in integers.
"""

from __future__ import annotations

import math
from functools import partial
from typing import NamedTuple

from .exceptions import InvalidParameterError, ResidualExceededError
from .graphs import Graph, _memoised, _whole_peel
from .linalg import CharPoly, charpoly_from_scaled, charpoly_rows, faddeev_leverrier
from .linalg import _packed_matching_poly, _signed_digits, is_scaled_orthogonal


def _require_walkable(g: Graph) -> None:
    if g.m == 0:
        raise InvalidParameterError(
            "walk operators need at least one edge; the single-vertex graph has none"
        )


def _arc_plan(g: Graph) -> tuple[int, list]:
    """L, the lcm of the degrees, and A = L*U as the Grover coin factors it.

    Edge i, (u, v) in g.edges, gives arcs 2i from u to v and 2i + 1 back,
    so e ^ 1 reverses arc e. The plan holds one (w, ins, outs) per vertex
    v, one (e, f, c) in outs per arc e out of v: row e of A is w times the
    sum of the unit rows of ins, plus c e_f. At degree d >= 3, w = 2L/d,
    ins are the arcs into v, f = e ^ 1 and c = -L. At degree <= 2 the sum
    is left out and c e_f = L e_f, f the other arc into v (2L/2 - L = 0),
    or the reversal at a leaf.
    """
    _require_walkable(g)
    scale = g.degree_lcm
    into: list[list[int]] = [[] for _ in range(g.n)]  # arcs by head, ascending
    for i, (u, v) in enumerate(g.edges):
        into[v].append(2 * i)
        into[u].append(2 * i + 1)
    plan = []
    for ins in into:
        outs = []  # arc f ^ 1 leaves the vertex that f enters
        if len(ins) > 2:
            for f in ins:
                outs.append((f ^ 1, f, -scale))
            plan.append((2 * scale // len(ins), ins, outs))
        else:
            for f in ins:  # the other arc in, or f itself at a leaf
                outs.append((f ^ 1, ins[0] + ins[-1] - f, scale))
            plan.append((0, [], outs))
    return scale, plan


def _plan_rows(plan: list, size: int) -> list[list[tuple[int, int]]]:
    """The sparse rows, by ascending column, of the matrix _coin_product
    multiplies by: what the certificate checks."""
    rows: list = [[]] * size
    for w, ins, outs in plan:
        block: dict[int, int] = {}
        for f in ins:
            block[f] = block.get(f, 0) + w
        for e, f, c in outs:
            row = block.copy()
            row[f] = row.get(f, 0) + c
            rows[e] = sorted(row.items())
    return rows


def _coin_product(plan: list, size: int, work: list[int]) -> list[int]:
    """A M for the matrix A a plan describes, M's rows in work. A vertex of
    degree d >= 3 sums its in-arc rows once, then pays one multiple and one
    sum per row, where sparse rows pay d^2 multiply-adds."""
    prod = [0] * size
    for w, ins, outs in plan:
        if ins:
            block = 0
            for f in ins:
                block += work[f]
            block *= w
            for e, f, c in outs:
                prod[e] = block + c * work[f]
        else:
            for e, f, c in outs:
                prod[e] = c * work[f]
    return prod


def _sparse_transition_rows(g: Graph) -> tuple[int, list[list[tuple[int, int]]]]:
    """L, the lcm of the degrees, and row u of L*T as (v, L/deg(u)) pairs,
    one per neighbour v of u in ascending order."""
    _require_walkable(g)
    scale = g.degree_lcm
    return scale, [
        [(v, scale // d) for v in sorted(nbrs)] for nbrs, d in zip(g.adj, g.degree)
    ]


@_memoised
def transition_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the transition matrix.

    When m <= n (a tree or a unicyclic graph), it is det(xD - A) over the
    product of the degrees, as det(xI - T) = det(D^-1 (xD - A)). Sachs'
    expansion (H. Sachs, Publ. Math. Debrecen 11, 1964) makes that
    mu(G) - 2 mu(G - C) for a_v = x deg v, w_e = -1 and C the cycle (an
    edge is a transposition on two entries -1, the cycle has sign
    (-1)^(k-1) on k entries -1 in either direction): one
    linalg._packed_matching_poly on the peel classify reads, at x = 2^s.
    The absolute coefficients sum to at most the permanent of D + A, at
    most prod(2 deg), and s = bitlen(prod deg) + n + 2 keeps that below
    2^(s-2) for linalg._signed_digits. Otherwise the kernel runs on the
    rows of L*T, which sum to L, its bound. Memoised on g, because every
    layer reads it; a CharPoly is immutable.
    """
    if g.m > g.n:
        scale, rows = _sparse_transition_rows(g)
        return charpoly_from_scaled(charpoly_rows(rows, scale), scale)
    _require_walkable(g)
    scale = math.prod(g.degree)
    s = scale.bit_length() + g.n + 2
    det = _packed_matching_poly([d << s for d in g.degree], -1, _whole_peel(g), -2)
    return CharPoly(_signed_digits(det, s), scale)  # the top digit is prod(deg)


@_memoised
def arc_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the arc operator U.

    Checks the rows expanded from the coin plan of A = L*U against
    A A^T = L^2 I and steps the kernel on the same plan. Then L is the
    kernel's bound and half of its N = 2m steps suffice: for a real
    orthogonal U of even size, x^N c(1/x) = det(I - xU) = det U c(x), so
    c_j = det U c_(N-j), and c_j L^N = q_j L^j from the kernel's top
    half fills in the rest. det U = (-1)^(m+n): U is the arc
    reversal, m transpositions, times one coin block (2/d)J - I per
    vertex, of determinant (-1)^(d-1), and the d sum to 2m. When
    det U = -1 the middle coefficient q_(N/2) must be 0, which is
    checked; a nonzero one raises ResidualExceededError, and so does a
    failed orthogonality check. Memoised on g, so that find_period and
    spectral_map_check share one 2m x 2m charpoly per graph.
    """
    scale, plan = _arc_plan(g)
    size = 2 * g.m
    half = g.m
    if not is_scaled_orthogonal(scale, _plan_rows(plan, size)):
        raise ResidualExceededError("the arc rows A fail A A^T = L^2 I")
    q = faddeev_leverrier(size, partial(_coin_product, plan, size), scale, half)
    sign = -1 if (g.m + g.n) % 2 else 1
    if sign < 0 and q[half]:
        raise ResidualExceededError(
            "det U = -1 but the middle arc charpoly coefficient is %d, not 0" % q[half]
        )
    coeffs = [0] * (size + 1)  # c_j L^N = q_j L^j, c_(N-j) = det U c_j
    power = scale**half
    for j in range(half, size + 1):
        coeffs[size - j] = sign * q[j] * power
        coeffs[j] = q[j] * power  # at j = N/2 this one stands
        power *= scale
    return CharPoly(tuple(coeffs), scale**size)


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
    P(y) = 2^n cp_T(y/2); konno_sato_residual passes it times the
    denominator of cp_T. With excess = m - n the lift is the arc charpoly
    that the Konno-Sato identity predicts (times (x^2 - 1)^(n - m) for a
    tree). x^n (x + 1/x)^k = x^(n-k) (x^2 + 1)^k expands binomially, so
    ints stay ints.
    """
    n = len(a) - 1
    lift = [0] * (2 * n + 1)
    for k, c in enumerate(a):
        for i in range(k + 1):
            lift[n - k + 2 * i] += c * math.comb(k, i)
    return _times_x2_minus_1(lift, max(excess, 0))


def konno_sato_residual(cp_t: CharPoly, p_u: CharPoly) -> int:
    """Largest absolute coefficient of D_T D_U (lhs - rhs); 0 iff the identity

        charpoly_U(x) = (x^2 - 1)^(m - n) (2x)^n charpoly_T((x^2 + 1) / (2x))

    of Konno and Sato (Quantum Inf. Process. 11, 2012) holds, the factor
    moved to the left for a tree. D_T, D_U are the denominators of cp_t and
    p_u; the right side is the lift of P(y) = 2^n cp_t(y/2), all in ints.
    """
    n, m = cp_t.degree, p_u.degree // 2
    d_t, d_u = cp_t.denominator, p_u.denominator
    scaled = [c << (n - k) for k, c in enumerate(cp_t.integer_coeffs)]
    rhs = konno_sato_lift(scaled, m - n)
    lhs = _times_x2_minus_1(list(p_u.integer_coeffs), max(n - m, 0))
    return max(abs(a * d_t - b * d_u) for a, b in zip(lhs, rhs, strict=True))


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


def spectral_map_check(g: Graph) -> SpectralMapReport:
    """Verify Spec(U) against the image of Spec(T) plus {+1, -1} absorbers.

    Checks the Konno-Sato identity exactly, with konno_sato_residual. Each
    vertex eigenvalue lambda maps to the roots of x^2 - 2 lambda x + 1,
    that is exp(+-i arccos lambda), and the identity accounts for the rest
    of the arc spectrum at +-1. The counts come from exact root
    multiplicities on the integer coefficients of the two charpolys.
    """
    cp_t = transition_charpoly(g)
    p_u = arc_charpoly(g)
    n, arc_count = cp_t.degree, p_u.degree
    worst = konno_sato_residual(cp_t, p_u)

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
        max_residual=worst / (cp_t.denominator * p_u.denominator),
        predicted=predicted,
        unexplained=unexplained,
        plus_one_extra=plus_extra,
        minus_one_extra=minus_extra,
    )
