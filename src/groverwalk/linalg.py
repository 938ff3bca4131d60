"""Exact rational matrices and characteristic polynomials.

Entries are fractions.Fraction and nothing is ever rounded. The
characteristic polynomial uses the Faddeev-LeVerrier recurrence; to keep the
inner loop on machine integers the matrix is first scaled by the common
denominator, which is the same computation with the denominator factored out.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .exceptions import DimensionMismatchError, InvalidParameterError, NonSquareError


def is_integer(q: Fraction) -> bool:
    """True when the reduced denominator is 1."""
    return Fraction(q).denominator == 1


class RationalMatrix:
    """Immutable dense matrix of Fractions."""

    __slots__ = ("rows", "cols", "entries")

    def __init__(self, entries):
        rows = tuple(tuple(Fraction(x) for x in row) for row in entries)
        if not rows:
            raise InvalidParameterError("matrix needs at least one row")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatchError("ragged rows")
        self.rows = len(rows)
        self.cols = width
        self.entries = rows

    @staticmethod
    def identity(n: int) -> "RationalMatrix":
        one, zero = Fraction(1), Fraction(0)
        return RationalMatrix(
            [[one if i == j else zero for j in range(n)] for i in range(n)]
        )

    @staticmethod
    def zeros(rows: int, cols: int) -> "RationalMatrix":
        zero = Fraction(0)
        return RationalMatrix([[zero] * cols for _ in range(rows)])

    def __getitem__(self, ij) -> Fraction:
        i, j = ij
        return self.entries[i][j]

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, RationalMatrix)
            and self.rows == other.rows
            and self.cols == other.cols
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def transpose(self) -> "RationalMatrix":
        return RationalMatrix(list(zip(*self.entries)))

    def trace(self) -> Fraction:
        if self.rows != self.cols:
            raise NonSquareError("trace of a %dx%d matrix" % (self.rows, self.cols))
        return sum((self.entries[i][i] for i in range(self.rows)), Fraction(0))

    def is_identity(self) -> bool:
        if self.rows != self.cols:
            return False
        one, zero = Fraction(1), Fraction(0)
        for i, row in enumerate(self.entries):
            for j, x in enumerate(row):
                if x != (one if i == j else zero):
                    return False
        return True

    def row_sums(self) -> tuple[Fraction, ...]:
        return tuple(sum(row, Fraction(0)) for row in self.entries)

    def __repr__(self) -> str:
        return "RationalMatrix(%d x %d)" % (self.rows, self.cols)


def mat_mul(a: RationalMatrix, b: RationalMatrix) -> RationalMatrix:
    if a.cols != b.rows:
        raise DimensionMismatchError(
            "cannot multiply %dx%d by %dx%d" % (a.rows, a.cols, b.rows, b.cols)
        )
    bt = list(zip(*b.entries))
    out = []
    for arow in a.entries:
        out.append([sum(x * y for x, y in zip(arow, bcol)) for bcol in bt])
    return RationalMatrix(out)


def mat_pow(a: RationalMatrix, k: int) -> RationalMatrix:
    """a**k by repeated squaring; k = 0 gives the identity."""
    if a.rows != a.cols:
        raise NonSquareError("power of a %dx%d matrix" % (a.rows, a.cols))
    if k < 0:
        raise InvalidParameterError("negative power %d" % k)
    result = RationalMatrix.identity(a.rows)
    base = a
    while k:
        if k & 1:
            result = mat_mul(result, base)
        k >>= 1
        if k:
            base = mat_mul(base, base)
    return result


@dataclass(frozen=True)
class CharPoly:
    """det(x I - M) as coefficients low to high; coeffs[j] multiplies x**j."""

    coeffs: tuple[Fraction, ...]

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __getitem__(self, j: int) -> Fraction:
        return self.coeffs[j]

    def eval_exact(self, x: Fraction) -> Fraction:
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def root_multiplicity(self, r: Fraction) -> int:
        """Exact multiplicity of the rational root r (0 if not a root)."""
        coeffs = list(self.coeffs)
        mult = 0
        while len(coeffs) > 1:
            # synthetic division by (x - r)
            quot = [Fraction(0)] * (len(coeffs) - 1)
            acc = Fraction(0)
            for j in range(len(coeffs) - 1, 0, -1):
                acc = coeffs[j] + acc * r
                quot[j - 1] = acc
            rem = coeffs[0] + acc * r
            if rem != 0:
                break
            mult += 1
            coeffs = quot
        return mult


def charpoly_exact(m: RationalMatrix) -> CharPoly:
    """Characteristic polynomial by the Faddeev-LeVerrier recurrence.

    The recurrence runs on the integer matrix obtained by clearing the
    common denominator L; if q(y) = det(y I - L*M) then the coefficient of
    x**j in det(x I - M) is q_j * L**(j - n). Every division in the
    recurrence is exact, which the code asserts.
    """
    if m.rows != m.cols:
        raise NonSquareError("characteristic polynomial of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    L = 1
    for row in m.entries:
        for x in row:
            L = L * x.denominator // math.gcd(L, x.denominator)
    b = [[int(x * L) for x in row] for row in m.entries]

    c = [0] * (n + 1)
    c[n] = 1
    work = [[0] * n for _ in range(n)]  # M_k, starts at zero
    for k in range(1, n + 1):
        # work <- b @ work + c[n-k+1] * I
        prev = work
        work = [[0] * n for _ in range(n)]
        for i in range(n):
            bi = b[i]
            wi = work[i]
            for l in range(n):
                bil = bi[l]
                if bil:
                    pl = prev[l]
                    for j in range(n):
                        wi[j] += bil * pl[j]
            wi[i] += c[n - k + 1]
        tr = 0
        for i in range(n):
            bi = b[i]
            for l in range(n):
                tr += bi[l] * work[l][i]
        assert tr % k == 0
        c[n - k] = -(tr // k)

    coeffs = [Fraction(c[j], L ** (n - j)) for j in range(n + 1)]
    return CharPoly(tuple(coeffs))
