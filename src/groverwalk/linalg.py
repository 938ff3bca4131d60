"""Exact rational matrices and characteristic polynomials.

Entries are fractions.Fraction and nothing is ever rounded. The
characteristic polynomial uses the Faddeev-LeVerrier recurrence on the
integer matrix obtained by clearing the common denominator, which is the same
computation with the denominator factored out. The matrix is held as sparse
rows and the working matrix as packed rows, one Python int per row.
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
        rows = tuple(
            tuple(x if type(x) is Fraction else Fraction(x) for x in row)
            for row in entries
        )
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
        """Exact multiplicity of the rational root r (0 if not a root).

        With r = a/b in lowest terms, the polynomial is scaled to integer
        coefficients once and divided by the primitive factor b*x - a in
        integers. By Gauss's lemma a quotient by b*x - a of an integer
        polynomial has integer coefficients, so a step that b does not
        divide exactly means b*x - a is not a factor.
        """
        r = Fraction(r)
        a, b = r.numerator, r.denominator
        scale = math.lcm(*(c.denominator for c in self.coeffs))
        coeffs = [c.numerator * (scale // c.denominator) for c in self.coeffs]
        mult = 0
        while len(coeffs) > 1:
            # p = (b x - a) q, so q_(j-1) = (p_j + a q_j) / b and p_0 = -a q_0
            quot = [0] * (len(coeffs) - 1)
            acc = 0
            for j in range(len(coeffs) - 1, 0, -1):
                acc, rem = divmod(coeffs[j] + a * acc, b)
                if rem:
                    return mult
                quot[j - 1] = acc
            if coeffs[0] + a * acc:
                return mult
            mult += 1
            coeffs = quot
        return mult


def charpoly_exact(m: RationalMatrix) -> CharPoly:
    """Characteristic polynomial by a sparse, packed-integer Faddeev-LeVerrier.

    The recurrence runs on the integer matrix B = L*M, L the lcm of the
    denominators; if q(y) = det(y I - B) then the coefficient of x**j in
    det(x I - M) is q_j * L**(j - n). With M_1 = I it reads

        A_k = B M_k,   q_(n-k) = -tr(A_k) / k,   M_(k+1) = A_k + q_(n-k) I,

    and every division is exact, which the code asserts. B is kept as
    sparse rows of (column, value) pairs. Each row of M_k is one Python
    int holding n slots of s bits, entry j in slot j as a signed value, so
    row i of A_k is one big-int multiply-add per nonzero of row i of B.
    The trace reads the diagonal slots after adding 2^(s-1) to every slot,
    which turns each signed value into its unsigned slot digit.

    Slot width. Let r >= 1 be the largest absolute row sum of B (r = 0
    only for B = 0, where every entry is 0 or 1). Every entry of B^j is at
    most r^j, since r bounds the infinity norm. q_(n-i) is (-1)^i times the
    sum of the C(n, i) principal i x i minors of B, and by Hadamard each
    minor is at most the product of its rows' Euclidean norms, so at most
    r^i: |q_(n-i)| <= C(n, i) r^i. As A_k = sum_(i<k) q_(n-i) B^(k-i) and
    M_k = sum_(i<k) q_(n-i) B^(k-1-i), every entry of both is at most
    r^k sum_i C(n, i) <= 2^n r^n for k <= n. With s = n*bitlen(r) + n + 2
    that is below 2^(s-2), so each signed entry fits its slot with room.
    """
    if m.rows != m.cols:
        raise NonSquareError("characteristic polynomial of a %dx%d matrix" % (m.rows, m.cols))
    n = m.rows
    L = math.lcm(*(x.denominator for row in m.entries for x in row if x))
    b = [
        [(j, x.numerator * (L // x.denominator)) for j, x in enumerate(row) if x]
        for row in m.entries
    ]
    r = max(sum(abs(v) for _, v in row) for row in b)
    s = n * r.bit_length() + n + 2
    half = 1 << (s - 1)
    mask = (1 << s) - 1
    bias = half * (((1 << (s * n)) - 1) // mask)  # 2^(s-1) in every slot
    shifts = [s * i for i in range(n)]  # slot i of a row starts at bit s*i

    c = [0] * (n + 1)
    c[n] = 1
    work = [1 << sh for sh in shifts]  # M_1 = I
    for k in range(1, n + 1):
        prod = []  # A_k = B M_k
        for row in b:
            acc = 0
            for j, v in row:
                acc += v * work[j]
            prod.append(acc)
        tr = -n * half
        for p, sh in zip(prod, shifts):
            tr += ((p + bias) >> sh) & mask
        assert tr % k == 0
        c[n - k] = -(tr // k)
        work = [p + (c[n - k] << sh) for p, sh in zip(prod, shifts)]

    coeffs = [Fraction(c[j], L ** (n - j)) for j in range(n + 1)]
    return CharPoly(tuple(coeffs))
