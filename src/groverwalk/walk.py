"""Grover walk operator on arcs, vertex transition matrix, spectral map.

The walk moves on arcs. Incoming amplitude at a vertex of degree d is
redistributed by the Grover coin: weight 2/d onto every outgoing arc, minus
1 on the reversal of the arc it arrived on. The vertex-level shadow of the
walk is the simple random walk matrix, and the spectrum of the arc operator
is the image of the vertex spectrum under x -> exp(+-i arccos x), with any
leftover eigenvalues sitting at +1 or -1.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import InvalidParameterError
from .graphs import Arc, Graph
from .linalg import (
    CharPoly,
    RationalMatrix,
    charpoly_from_scaled,
    charpoly_rows,
    is_scaled_orthogonal,
    row_sum_bound,
    sparse_rows,
)


@dataclass(frozen=True)
class GroverOperator:
    """Arc-space walk operator with its arc order."""

    matrix: RationalMatrix
    arcs: tuple[Arc, ...]

    def arc_index(self, arc: Arc) -> int:
        return self.arcs.index(arc)


@dataclass(frozen=True)
class TransitionMatrix:
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


@functools.lru_cache(maxsize=256)
def transition_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the transition matrix.

    Runs the integer kernel on the rows of L*T, which sum to L, so L is
    the kernel's bound. Cached, because every layer reads it; a CharPoly
    is immutable.
    """
    scale, rows = transition_rows(g)
    return charpoly_from_scaled(charpoly_rows(sparse_rows(rows), scale), scale)


@functools.lru_cache(maxsize=16)
def arc_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the arc operator U.

    Runs the integer kernel on the rows of A = L*U from grover_arc_rows.
    Once A A^T = L^2 I is checked, L is the kernel's bound; the row-sum
    bound stands in if the check ever fails. Cached so that the period
    certificate and spectral_map_check share one 2m x 2m charpoly per
    graph; the cache stays small because no caller returns to a graph
    after its analysis.
    """
    scale, rows = grover_arc_rows(g)
    sparse = sparse_rows(rows)
    bound = scale if is_scaled_orthogonal(scale, sparse) else row_sum_bound(sparse)
    return charpoly_from_scaled(charpoly_rows(sparse, bound), scale)


def _times_x2_minus_1(poly: list, times: int) -> list:
    """poly * (x^2 - 1)^times, coefficients low to high."""
    for _ in range(times):
        padded = [0, 0] + poly + [0, 0]
        poly = [padded[k] - padded[k + 2] for k in range(len(poly) + 2)]
    return poly


def konno_sato_lift(a: list, excess: int) -> list:
    """x^n P(x + 1/x) (x^2 - 1)^max(excess, 0) for P(y) = sum a_k y^k.

    a holds the coefficients of P, low to high, as ints or Fractions, and
    n = deg P. With a_k = c_k 2^(n-k) for the transition charpoly
    cp_T = sum c_k x^k, P(y) = 2^n cp_T(y/2), and with excess = m - n the
    lift is the arc charpoly that the Konno-Sato identity predicts (times
    (x^2 - 1)^(n - m) for a tree). x^n (x + 1/x)^k = x^(n-k) (x^2 + 1)^k
    expands binomially, so ints stay ints.
    """
    n = len(a) - 1
    lift = [0] * (2 * n + 1)
    for k, c in enumerate(a):
        for i in range(k + 1):
            lift[n - k + 2 * i] += c * math.comb(k, i)
    return _times_x2_minus_1(lift, max(excess, 0))


@dataclass(frozen=True)
class SpectralMapReport:
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
    integer views of the two charpolys, and the counts come from exact
    root multiplicities on the same views; tol is accepted for
    compatibility and unused.
    """
    cp_t = transition_charpoly(g)
    p_u = arc_charpoly(g)
    n, arc_count = cp_t.degree, p_u.degree

    # the integer views are D_T cp_t and D_U p_u, D the lcm of the
    # denominators, which leads each view since both polynomials are monic.
    # (2x)^n cp_t((x^2 + 1) / (2x)) is the lift of P(y) = 2^n cp_t(y/2), so
    # the identity holds exactly when lhs * D_T equals rhs * D_U
    t_ints, u_ints = cp_t.integer_coeffs, p_u.integer_coeffs
    d_t, d_u = t_ints[-1], u_ints[-1]
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
        max_residual=float(Fraction(worst, d_t * d_u)),
        predicted=predicted,
        unexplained=unexplained,
        plus_one_extra=plus_extra,
        minus_one_extra=minus_extra,
    )
