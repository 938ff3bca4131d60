"""Exact characteristic polynomials from integer matrices.

Nothing is ever rounded. The one matrix route to a characteristic
polynomial is a Faddeev-LeVerrier loop, faddeev_leverrier, on an integer
matrix B = L*M, the working matrix packed one Python int per row, that
asks its caller for each product B M_k; charpoly_from_scaled divides L
back out. It can stop after its first steps, which give the top
coefficients. charpoly_rows runs it on sparse rows of (column, value)
pairs, as walk does for the transition matrix of a graph with m > n;
walk runs the arc operator on its coin factorization, for half of the
steps. The other route,
for a tree or a unicyclic graph, and the matching sums of periodicity
are one weighted matching polynomial, _packed_matching_poly, held as an
int at x = 2^s and read back by _signed_digits. CharPoly holds one form:
integer coefficients over one positive denominator, with no common
factor, which the exact divisions, the matching identities and the
reports read. No command route builds a Fraction: the CharPoly helpers
that return one, coeffs, cp[j] and eval_exact, import fractions when
they are called, so the module (and the decimal module it loads) is left
out of every command's start-up.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING

from .exceptions import InvalidParameterError
from .graphs import peel_leaves

if TYPE_CHECKING:
    from fractions import Fraction


def _signed_digits(value: int, s: int) -> tuple[int, ...]:
    """The base-2^s digits of value, low to high, each read as signed in
    [-2^(s-1), 2^(s-1)): the coefficients of a polynomial held as its value
    at x = 2^s, up to its top nonzero one, once the caller has proved that
    each lies in that range."""
    half, mask = 1 << (s - 1), (1 << s) - 1
    digits = []
    while value:
        c = value & mask
        value >>= s
        if c >= half:  # a negative digit, which borrowed one from the rest
            c -= mask + 1
            value += 1
        digits.append(c)
    return tuple(digits)


def _packed_matching_poly(a: list[int], w, peel, cycle_weight: int = 0) -> int:
    """mu(P; a, w): the sum over the matchings M of the pool P of
    prod_(e in M) w_e times prod a_v over the vertices of P that M leaves
    free, plus cycle_weight mu(P - C) when the peel leaves one cycle C. a
    is by vertex, w one int for every edge or a dict on the edges (u, v),
    u < v, and peel is graphs.peel_leaves(len(a), P).

    Each vertex keeps (T_v, F_v), from (a_v, 1): mu of what it has absorbed
    and the part that leaves it free; folding leaf u into v gives
    (T_v T_u + w_uv F_u F_v, F_v T_u), and each root closes a tree, a
    factor T_v. Schwenk's edge formula (A. J. Schwenk, LNM 406, 1974)
    splits what is left at an edge e = uv:

        mu(P) = mu(P - e) + w_e F_u F_v mu(P - u - v) + cycle_weight prod_C F_c,

    one cycle at c_(k-1) c_0 into two paths that merge folds, and a denser
    core at its first edge, recurring with a_v = T_v and w_e F_u F_v; a
    cycle weight there raises InvalidParameterError.
    """
    removals, roots, cycle, core = peel
    n, each = len(a), isinstance(w, dict)

    def merge(pairs, t, f):  # fold each leaf u into v, in order
        for u, v in pairs:
            weight = w[(u, v) if u < v else (v, u)] if each else w
            t[v], f[v] = t[v] * t[u] + weight * f[u] * f[v], f[v] * t[u]
        return t

    f = [1] * n
    t = merge(removals, list(a), f)
    trees = math.prod(map(t.__getitem__, roots)) if roots else 1
    if not core:
        return trees
    u, v = (cycle[-1], cycle[0]) if cycle else core[0]
    cut = (w[(u, v) if u < v else (v, u)] if each else w) * f[u] * f[v]
    if cycle:  # the paths c_0 ... c_(k-1) and c_1 ... c_(k-2)
        ring = cycle_weight * math.prod(map(f.__getitem__, cycle))
        without = merge(zip(cycle, cycle[1:]), t[:], f[:])[u]
        inner = cycle[1:-1]
        if len(inner) > 1:
            merge(zip(inner, inner[1:]), t, f)
        return trees * (without + cut * t[inner[-1]] + ring)
    if cycle_weight:
        raise InvalidParameterError("a cycle weight needs at most one cycle")
    core_w = {e: (w[e] if each else w) * f[e[0]] * f[e[1]] for e in core}
    apart = tuple(e for e in core if u not in e and v not in e)
    alone = set().union(*core).difference((u, v), *apart)  # reached only from u, v
    cut *= math.prod([t[x] for x in alone])
    closed = _packed_matching_poly(t, core_w, peel_leaves(n, core[1:]))
    closed += cut * _packed_matching_poly(t, core_w, peel_leaves(n, apart))
    return trees * closed


def _divide_exact(a: list[int], b: tuple[int, ...]) -> list[int] | None:
    """Exact quotient a / b in integers, or None when b does not divide a.

    Polynomials are integer coefficient lists, low to high. b must be
    primitive, its coefficients coprime, as every monic polynomial is. By
    Gauss's lemma the quotient of an integer polynomial by a primitive
    divisor has integer coefficients, so the division stops at the first
    step that the leading coefficient of b does not divide exactly. The
    zero polynomial divides out at once.
    """
    if not any(a):
        return [0] * max(len(a) - len(b) + 1, 1)
    if len(a) < len(b):
        return None
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


def _deflate(poly, a: int) -> list[int] | None:
    """poly / (x - a) by synthetic division, or None when a is not a root.

    poly holds integer coefficients, low to high. Horner's rule from the
    top gives the quotient's coefficients and, last, the remainder poly(a).
    """
    acc = 0
    quot = []
    for c in reversed(poly):
        acc = acc * a + c
        quot.append(acc)
    if quot.pop():
        return None
    quot.reverse()
    return quot


class CharPoly:
    """det(x I - M) as integer_coeffs / denominator, low to high.

    integer_coeffs[j] / denominator multiplies x**j. The denominator is
    positive and shares no factor with all of integer_coeffs, which is
    reduced on construction, so the form is unique: equality and the hash
    mean equality of polynomials. For a monic polynomial the denominator
    is the lcm of the reduced coefficients' denominators, and the last
    integer coefficient. coeffs and cp[j] build Fraction coefficients on
    each call, for callers that want them; the exact routes, the matching
    identities and the printed reports read integer_coeffs and
    denominator. Instances are immutable, since the charpolys that walk
    memoises on a graph are shared by every reader of that graph.
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
        from fractions import Fraction

        return tuple(Fraction(c, self.denominator) for c in self.integer_coeffs)

    def __getitem__(self, j: int) -> Fraction:
        from fractions import Fraction

        return Fraction(self.integer_coeffs[j], self.denominator)

    def eval_exact(self, x: Fraction) -> Fraction:
        from fractions import Fraction

        # at x = a/b, b^n D p(x) is an integer sum
        x = Fraction(x)
        a, b, n = x.numerator, x.denominator, self.degree
        total = sum(c * a**j * b ** (n - j) for j, c in enumerate(self.integer_coeffs))
        return Fraction(total, b**n * self.denominator)

    def root_multiplicity(self, r: int | Fraction) -> int:
        """Exact multiplicity of the rational root r (0 if not a root).

        With r = a/b in lowest terms, integer_coeffs is divided by the
        primitive factor b*x - a as often as it goes: by synthetic division
        when b = 1, as for the roots +-1 that the spectral map counts, and
        with _divide_exact otherwise.
        """
        a, b = r.numerator, r.denominator
        coeffs = self.integer_coeffs
        mult = 0
        while len(coeffs) > 1:
            quot = _deflate(coeffs, a) if b == 1 else _divide_exact(coeffs, (-a, b))
            if quot is None:
                break
            mult += 1
            coeffs = quot
        return mult


def is_scaled_orthogonal(scale: int, rows: list[list[tuple[int, int]]]) -> bool:
    """B B^T = scale^2 I for B given by sparse rows of (column, value) pairs.

    Each column of B is one int, row k's entry in slot k, so row i of
    B B^T, sum_j B_ij (column j), is one multiply-add per nonzero. Its
    entries are at most r^2, r the largest absolute row sum, so in slots
    of bitlen(max(r, scale)^2) + 2 bits it equals scale^2 in slot i
    exactly when the ints are equal.
    """
    r = abs(scale)
    for row in rows:
        total = 0
        for _, v in row:
            total += abs(v)
        r = max(r, total)
    s = (r * r).bit_length() + 2
    columns: dict[int, int] = {}
    shift = 0
    for row in rows:
        for j, v in row:
            columns[j] = columns.get(j, 0) + (v << shift)
        shift += s
    target = scale * scale  # in slot i for row i
    for row in rows:
        acc = 0
        for j, v in row:
            acc += v * columns[j]
        if acc != target:
            return False
        target <<= s
    return True


def faddeev_leverrier(
    n: int, product, bound: int, steps: int | None = None
) -> list[int]:
    """det(y I - B) as integer coefficients, low to high: packed Faddeev-LeVerrier.

    B is n x n, and product(work) returns B times the matrix whose
    rows are the ints of work: entry i is sum_j B_ij work[j]. The run
    stops after steps iterations, n when steps is None; step k gives
    q_(n-k), so the result holds q_(n-steps), ..., q_n and 0 below them.
    bound >= 0 must satisfy two conditions:

    (a) every entry of B^j is at most bound^j in absolute value, and
    (b) every principal i x i minor of B is at most bound^i.

    With M_1 = I the recurrence reads

        A_k = B M_k,   q_(n-k) = -tr(A_k) / k,   M_(k+1) = A_k + q_(n-k) I,

    and every division is exact; one that is not means a bound that does
    not hold, and raises RuntimeError. Each row of M_k is one Python int
    holding n slots of s bits, entry j in slot j as a signed value, so
    product works on whole rows with big-int sums and small multiples. The
    trace reads the diagonal slots after adding 2^(s-1) to every slot,
    which turns each signed value into its unsigned slot digit.

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
        prod = product(work)  # A_k = B M_k
        tr = -n * half
        for p, sh in zip(prod, shifts):
            tr += ((p + bias) >> sh) & mask
        if tr % k:
            raise RuntimeError(
                "step %d: the trace is not divisible by %d; bound %d does not hold"
                % (k, k, bound)
            )
        qk = q[n - k] = -(tr // k)
        work = [p + (qk << sh) for p, sh in zip(prod, shifts)]
    return q


def charpoly_rows(
    rows: list[list[tuple[int, int]]], bound: int, steps: int | None = None
) -> list[int]:
    """faddeev_leverrier on B given by sparse rows of (column, value)
    pairs: a row of B M_k costs one big-int multiply-add per nonzero."""

    def product(work):
        out = []
        for row in rows:
            acc = 0
            for j, v in row:
                acc += v * work[j]
            out.append(acc)
        return out

    return faddeev_leverrier(len(rows), product, bound, steps)


def charpoly_from_scaled(q: list[int], scale: int) -> CharPoly:
    """det(x I - M) from the coefficients q of det(y I - scale*M).

    The coefficient of x**j is q_j * scale**(j - n), that is
    q_j * scale**j over scale**n.
    """
    return CharPoly(tuple(c * scale**j for j, c in enumerate(q)), scale ** (len(q) - 1))

