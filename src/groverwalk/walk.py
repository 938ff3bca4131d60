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
from .linalg import CharPoly, RationalMatrix, charpoly_exact


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


def build_grover_operator(g: Graph) -> GroverOperator:
    """Exact arc-space operator U = A/L, the rows of grover_arc_rows over L.

    Entry (e, f) is 2/deg(t(f)) when f feeds into e and e is not the
    reversal of f, and 2/deg(t(f)) - 1 on the reversal. The result is
    orthogonal with row sums 1.
    """
    scale, rows = grover_arc_rows(g)
    # one Fraction per distinct entry; Fractions are immutable
    values = {x: Fraction(x, scale) for x in {x for row in rows for x in row}}
    matrix = RationalMatrix([[values[x] for x in row] for row in rows])
    return GroverOperator(matrix=matrix, arcs=g.arcs())


def build_transition_matrix(g: Graph) -> TransitionMatrix:
    """Entry (u, v) is 1/deg(u) for each neighbour v."""
    _require_walkable(g)
    zero = Fraction(0)
    rows = []
    for u in range(g.n):
        w = Fraction(1, g.degree[u])
        rows.append([w if v in g.adj[u] else zero for v in range(g.n)])
    return TransitionMatrix(matrix=RationalMatrix(rows))


@functools.lru_cache(maxsize=256)
def transition_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the transition matrix.

    Cached, because every layer reads it; a CharPoly is immutable.
    """
    return charpoly_exact(build_transition_matrix(g).matrix)


@functools.lru_cache(maxsize=16)
def arc_charpoly(g: Graph) -> CharPoly:
    """Exact characteristic polynomial of the arc operator U.

    Cached so that the period certificate and spectral_map_check share
    one 2m x 2m charpoly per graph; the cache stays small because no
    caller returns to a graph after its analysis.
    """
    return charpoly_exact(build_grover_operator(g).matrix)


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
    arc spectrum at +-1. The counts come from exact root multiplicities;
    tol is accepted for compatibility and unused.
    """
    cp_t = transition_charpoly(g)
    p_u = arc_charpoly(g)
    n, arc_count = cp_t.degree, p_u.degree

    # (2x)^n cp_t((x^2 + 1) / (2x)) is the lift of P(y) = 2^n cp_t(y/2)
    scaled = [c * 2 ** (n - k) for k, c in enumerate(cp_t.coeffs)]
    rhs = konno_sato_lift(scaled, g.m - n)
    lhs = _times_x2_minus_1(list(p_u.coeffs), max(n - g.m, 0))
    diff = [a - b for a, b in zip(lhs, rhs, strict=True)]

    t_plus = cp_t.root_multiplicity(Fraction(1))
    t_minus = cp_t.root_multiplicity(Fraction(-1))
    predicted = 2 * n - t_plus - t_minus
    plus_extra = p_u.root_multiplicity(Fraction(1)) - t_plus
    minus_extra = p_u.root_multiplicity(Fraction(-1)) - t_minus
    unexplained = arc_count - predicted
    matched = (
        not any(diff)
        and plus_extra >= 0
        and minus_extra >= 0
        and unexplained == plus_extra + minus_extra
    )
    return SpectralMapReport(
        matched=matched,
        max_residual=float(max(abs(d) for d in diff)),
        predicted=predicted,
        unexplained=unexplained,
        plus_one_extra=plus_extra,
        minus_one_extra=minus_extra,
    )
