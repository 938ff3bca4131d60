"""Exact rational matrices and characteristic polynomials.

Matrix entries are fractions.Fraction and nothing is ever rounded. The matrix
route to a characteristic polynomial is one Faddeev-LeVerrier kernel,
charpoly_rows, which runs on an integer matrix B held as sparse rows of
(column, value) pairs, with the working matrix packed one Python int per
row; it can stop after its first steps, which give the top coefficients.
charpoly_exact clears the denominators of a RationalMatrix and runs the
whole kernel. walk hands the kernel the integer rows of the arc
operator, for half of its steps, and those of the transition matrix of a
graph with m > n; a tree or a unicyclic graph takes a structural route
there. CharPoly holds one form: integer coefficients over one positive
denominator, with no common factor, which the exact divisions read
directly and the reports print from; its Fraction coefficients are made
only for comparison with a Fraction sum.
"""

from __future__ import annotations

import math
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


def _divide_exact(a: list[int], b: tuple[int, ...]) -> list[int] | None:
    """Exact quotient a / b in integers, or None when b does not divide a.

    Polynomials are integer coefficient lists, low to high. b must be
    primitive, its coefficients coprime, as every monic polynomial is. By
    Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so the division stops at the first
    step that the leading coefficient of b does not divide exactly. The
    zero polynomial divides out.
    """
    if len(a) < len(b):
        return None if any(a) else [0]
    db = len(b) - 1
    lead = b[db]
    rest = list(a)
    quot = [0] * (len(a) - db)
    for i in range(len(quot) - 1, -1, -1):
        c, r = divmod(rest[i + db], lead)
        if r:
            return None
        if c:
            quot[i] = c
            for j, bj in enumerate(b):
                rest[i + j] -= c * bj
    return None if any(rest[:db]) else quot


class CharPoly:
    """det(x I - M) as integer_coeffs / denominator, low to high.

    integer_coeffs[j] / denominator multiplies x**j. The denominator is
    positive and shares no factor with all of integer_coeffs, which is
    reduced on construction, so the form is unique: equality and the hash
    mean equality of polynomials. For a monic polynomial the denominator
    is the lcm of the reduced coefficients' denominators, and the last
    integer coefficient. coeffs and cp[j] build Fraction coefficients on
    each call, for comparison with Fraction sums; the exact routes and
    the printed reports read integer_coeffs and denominator. Instances
    are immutable, since the lru_cache routes in walk share them.
    """

    __slots__ = ("integer_coeffs", "denominator")

    def __init__(self, integer_coeffs: tuple[int, ...], denominator: int):
        if denominator < 1:
            raise InvalidParameterError(
                "denominator must be >= 1, got %d" % denominator
            )
        g = math.gcd(*integer_coeffs, denominator)
        if g > 1:
            integer_coeffs = tuple(c // g for c in integer_coeffs)
            denominator //= g
        object.__setattr__(self, "integer_coeffs", integer_coeffs)
        object.__setattr__(self, "denominator", denominator)

    def __setattr__(self, name, value):
        raise AttributeError("cannot assign to CharPoly.%s" % name)

    def __delattr__(self, name):
        raise AttributeError("cannot delete CharPoly.%s" % name)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.integer_coeffs, self.denominator) == (
            other.integer_coeffs,
            other.denominator,
        )

    def __hash__(self) -> int:
        return hash((self.integer_coeffs, self.denominator))

    def __repr__(self) -> str:
        return "CharPoly(integer_coeffs=%r, denominator=%r)" % (
            self.integer_coeffs,
            self.denominator,
        )

    def __reduce__(self):
        return CharPoly, (self.integer_coeffs, self.denominator)

    @property
    def degree(self) -> int:
        return len(self.integer_coeffs) - 1

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(c, self.denominator) for c in self.integer_coeffs)

    def __getitem__(self, j: int) -> Fraction:
        return Fraction(self.integer_coeffs[j], self.denominator)

    def eval_exact(self, x: Fraction) -> Fraction:
        # at x = a/b, b^n D p(x) is an integer sum
        x = Fraction(x)
        a, b, n = x.numerator, x.denominator, self.degree
        total = sum(c * a**j * b ** (n - j) for j, c in enumerate(self.integer_coeffs))
        return Fraction(total, b**n * self.denominator)

    def root_multiplicity(self, r: Fraction) -> int:
        """Exact multiplicity of the rational root r (0 if not a root).

        With r = a/b in lowest terms, integer_coeffs is divided by the
        primitive factor b*x - a with _divide_exact as often as it goes.
        """
        r = Fraction(r)
        factor = (-r.numerator, r.denominator)
        coeffs = self.integer_coeffs
        mult = 0
        while len(coeffs) > 1 and (quot := _divide_exact(coeffs, factor)) is not None:
            mult += 1
            coeffs = quot
        return mult


def sparse_rows(rows) -> list[list[tuple[int, int]]]:
    """The nonzero entries of each dense integer row as (column, value) pairs."""
    return [[(j, v) for j, v in enumerate(row) if v] for row in rows]


def row_sum_bound(rows: list[list[tuple[int, int]]]) -> int:
    """The largest absolute row sum of sparse rows, a bound for charpoly_rows."""
    return max(sum(abs(v) for _, v in row) for row in rows)


def is_scaled_orthogonal(scale: int, rows: list[list[tuple[int, int]]]) -> bool:
    """B B^T = scale^2 I for B given by sparse rows of (column, value) pairs.

    Two rows can have a nonzero dot product only when they share a column,
    so the nonzeros are grouped by column and only those pairs are summed;
    each row's own length is among them.
    """
    by_column: dict[int, list[tuple[int, int]]] = {}
    for i, row in enumerate(rows):
        for j, v in row:
            by_column.setdefault(j, []).append((i, v))
    square = scale * scale
    for i, row in enumerate(rows):
        dots: dict[int, int] = {}
        for j, v in row:
            for k, w in by_column[j]:
                dots[k] = dots.get(k, 0) + v * w
        if dots.pop(i, 0) != square or any(dots.values()):
            return False
    return True


def charpoly_rows(
    rows: list[list[tuple[int, int]]], bound: int, steps: int | None = None
) -> list[int]:
    """det(y I - B) as integer coefficients, low to high: packed Faddeev-LeVerrier.

    B is n x n, given by sparse rows of (column, value) pairs. The run
    stops after steps iterations, n when steps is None; step k gives
    q_(n-k), so the result holds q_(n-steps), ..., q_n and 0 below them.
    bound >= 0 must satisfy two conditions:

    (a) every entry of B^j is at most bound^j in absolute value, and
    (b) every principal i x i minor of B is at most bound^i.

    With M_1 = I the recurrence reads

        A_k = B M_k,   q_(n-k) = -tr(A_k) / k,   M_(k+1) = A_k + q_(n-k) I,

    and every division is exact, which the code asserts. Each row of M_k
    is one Python int holding n slots of s bits, entry j in slot j as a
    signed value, so row i of A_k is one big-int multiply-add per nonzero
    of row i of B. The trace reads the diagonal slots after adding
    2^(s-1) to every slot, which turns each signed value into its unsigned
    slot digit.

    Slot width. q_(n-i) is (-1)^i times the sum of the C(n, i) principal
    i x i minors of B, so |q_(n-i)| <= C(n, i) bound^i by (b). As
    A_k = sum_(i<k) q_(n-i) B^(k-i) and M_k = sum_(i<k) q_(n-i) B^(k-1-i),
    (a) puts every entry of both at most bound^k sum_i C(n, i) <=
    2^n bound^steps for k <= steps and bound >= 1. With
    s = bitlen(bound^steps) + n + 2 that is below 2^(s-2), so each signed
    entry fits its slot with a bit to spare. For bound = 0, B = 0 and
    every entry is 0 or 1.

    Two bounds satisfy (a) and (b):

    - r, the largest absolute row sum of B. It bounds the infinity norm,
      so every entry of B^j is at most r^j; by Hadamard a minor is at most
      the product of its rows' Euclidean norms, each at most its absolute
      row sum, so at most r^i. L*T, L the lcm of the degrees, has
      nonnegative rows summing to L, so r = L there.
    - L, when B B^T = L^2 I has been checked. Then B = L Q with Q
      orthogonal, every power Q^j is orthogonal, so its entries are at
      most 1 and those of B^j at most L^j; every row of B has Euclidean
      norm L, and the rows of a principal submatrix are parts of rows of
      B, so by Hadamard a minor is at most L^i. This is the arc
      operator A = L*U, whose largest absolute row sum can be near 3L.
    """
    n = len(rows)
    if steps is None:
        steps = n
    elif not 0 <= steps <= n:
        raise InvalidParameterError("steps must lie in 0..%d, got %d" % (n, steps))
    s = (bound**steps).bit_length() + n + 2
    half = 1 << (s - 1)
    mask = (1 << s) - 1
    bias = half * (((1 << (s * n)) - 1) // mask)  # 2^(s-1) in every slot
    shifts = [s * i for i in range(n)]  # slot i of a row starts at bit s*i

    q = [0] * (n + 1)
    q[n] = 1
    work = [1 << sh for sh in shifts]  # M_1 = I
    for k in range(1, steps + 1):
        prod = []  # A_k = B M_k
        for row in rows:
            acc = 0
            for j, v in row:
                acc += v * work[j]
            prod.append(acc)
        tr = -n * half
        for p, sh in zip(prod, shifts):
            tr += ((p + bias) >> sh) & mask
        assert tr % k == 0
        q[n - k] = -(tr // k)
        work = [p + (q[n - k] << sh) for p, sh in zip(prod, shifts)]
    return q


def charpoly_from_scaled(q: list[int], scale: int) -> CharPoly:
    """det(x I - M) from the coefficients q of det(y I - scale*M).

    The coefficient of x**j is q_j * scale**(j - n), that is
    q_j * scale**j over scale**n.
    """
    return CharPoly(tuple(c * scale**j for j, c in enumerate(q)), scale ** (len(q) - 1))


def charpoly_exact(m: RationalMatrix) -> CharPoly:
    """Characteristic polynomial of a rational matrix, exactly.

    Clears the denominators once, B = L*M with L their lcm, and runs
    charpoly_rows on the sparse rows of B with its largest absolute row
    sum as the bound.
    """
    if m.rows != m.cols:
        raise NonSquareError("characteristic polynomial of a %dx%d matrix" % (m.rows, m.cols))
    L = math.lcm(*(x.denominator for row in m.entries for x in row if x))
    b = [
        [(j, x.numerator * (L // x.denominator)) for j, x in enumerate(row) if x]
        for row in m.entries
    ]
    return charpoly_from_scaled(charpoly_rows(b, row_sum_bound(b)), L)
