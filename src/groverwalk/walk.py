"""Grover walk operator on arcs, vertex transition matrix, spectral map.

The walk moves on arcs. Incoming amplitude at a vertex of degree d is
redistributed by the Grover coin: weight 2/d onto every outgoing arc, minus
1 on the reversal of the arc it arrived on. The vertex-level shadow of the
walk is the simple random walk matrix, and the spectrum of the arc operator
is the image of the vertex spectrum under x -> exp(+-i arccos x), with any
leftover eigenvalues sitting at +1 or -1.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import InvalidParameterError
from .graphs import Arc, Graph
from .linalg import (
    CharPoly,
    RationalMatrix,
    Spectrum,
    charpoly_exact,
    eigenvalues_symmetric,
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


def build_grover_operator(g: Graph) -> GroverOperator:
    """Exact arc-space operator.

    Entry (e, f) is 2/deg(t(f)) when f feeds into e (t(f) = o(e)) and e is
    not the reversal of f; the reversal gets 2/deg(t(f)) - 1; everything
    else is 0. The result is orthogonal with row sums 1.
    """
    _require_walkable(g)
    arcs = g.arcs()
    index = {arc: i for i, arc in enumerate(arcs)}
    size = len(arcs)
    zero = Fraction(0)
    rows = [[zero] * size for _ in range(size)]
    for fi, f in enumerate(arcs):
        w = Fraction(2, g.degree[f.terminus])
        for nbr in g.adj[f.terminus]:
            e = Arc(f.terminus, nbr)
            ei = index[e]
            rows[ei][fi] = w - 1 if e == f.reverse() else w
    return GroverOperator(matrix=RationalMatrix(rows), arcs=arcs)


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


def symmetrize(g: Graph) -> list[list[float]]:
    """Degree-symmetrized adjacency, entry A_uv / sqrt(deg u * deg v).

    Similar to the transition matrix, so it has the same spectrum, but
    symmetric, which is what the Jacobi solver wants.
    """
    _require_walkable(g)
    inv_sqrt = [1.0 / math.sqrt(d) if d else 0.0 for d in g.degree]
    out = [[0.0] * g.n for _ in range(g.n)]
    for u, v in g.edges:
        w = inv_sqrt[u] * inv_sqrt[v]
        out[u][v] = w
        out[v][u] = w
    return out


def transition_spectrum(g: Graph) -> Spectrum:
    """Numeric spectrum of the transition matrix via its symmetrization."""
    return eigenvalues_symmetric(symmetrize(g))


@dataclass(frozen=True)
class SpectralMapReport:
    """Outcome of checking the vertex-to-arc spectral correspondence.

    residual_pairs holds ((re, im), |charpoly_U(z)|) for every predicted
    arc eigenvalue z. unexplained counts arc eigenvalues beyond the mapped
    ones; they must be absorbed by the exact multiplicities of +1 and -1.
    """

    matched: bool
    residual_pairs: tuple[tuple[tuple[float, float], float], ...]
    max_residual: float
    predicted: int
    unexplained: int
    plus_one_extra: int
    minus_one_extra: int


def spectral_map_check(g: Graph, tol: float = 1e-8) -> SpectralMapReport:
    """Verify Spec(U) against the image of Spec(T) plus {+1, -1} absorbers.

    Predicted values are exp(+-i arccos lambda) over the numeric vertex
    spectrum, the pair collapsing to a single root when lambda is +-1. Each
    prediction must annihilate the exact arc characteristic polynomial
    within tol, and the leftover root count must equal the surplus exact
    multiplicity of +1 and -1 in that polynomial.
    """
    clamp = 1e-12
    spec = transition_spectrum(g)
    p_u = charpoly_exact(build_grover_operator(g).matrix)
    arc_count = p_u.degree

    predicted: list[complex] = []
    seen_plus = 0
    seen_minus = 0
    for lam in spec.values:
        if lam > 1.0 + clamp or lam < -1.0 - clamp:
            raise InvalidParameterError(
                "transition eigenvalue %r outside [-1, 1]" % lam
            )
        if lam >= 1.0 - clamp:
            predicted.append(1 + 0j)
            seen_plus += 1
        elif lam <= -1.0 + clamp:
            predicted.append(-1 + 0j)
            seen_minus += 1
        else:
            theta = math.acos(lam)
            z = cmath.exp(1j * theta)
            predicted.append(z)
            predicted.append(z.conjugate())

    residual_pairs = tuple(
        ((z.real, z.imag), abs(p_u.eval_complex(z))) for z in predicted
    )
    max_residual = max((r for _, r in residual_pairs), default=0.0)

    mult_plus = p_u.root_multiplicity(Fraction(1))
    mult_minus = p_u.root_multiplicity(Fraction(-1))
    plus_extra = mult_plus - seen_plus
    minus_extra = mult_minus - seen_minus
    unexplained = arc_count - len(predicted)
    matched = (
        max_residual <= tol
        and plus_extra >= 0
        and minus_extra >= 0
        and unexplained == plus_extra + minus_extra
    )
    return SpectralMapReport(
        matched=matched,
        residual_pairs=residual_pairs,
        max_residual=max_residual,
        predicted=len(predicted),
        unexplained=unexplained,
        plus_one_extra=plus_extra,
        minus_one_extra=minus_extra,
    )
