import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk.exceptions import InvalidParameterError
from groverwalk import linalg
from groverwalk.families import cycle_graph, iter_connected
from groverwalk.graphs import peel_leaves
from groverwalk.linalg import (
    CharPoly,
    charpoly_from_scaled,
    charpoly_rows,
    _divide_exact,
    _packed_matching_poly,
    is_scaled_orthogonal,
)
from groverwalk.walk import arc_charpoly, transition_charpoly

from oracles import brute_matching_poly, char_value, jacobi_eigen, symmetrized_adjacency
from strategies import forest_pools, multicyclic_pools, unicyclic_pools


def symmetrized(g):
    return symmetrized_adjacency(g.n, g.edges)


def random_rational_matrix(rng, n):
    return [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
        for _ in range(n)
    ]


def row_sum_bound(rows):
    # the largest absolute row sum of sparse rows, a bound for charpoly_rows
    return max(sum(abs(v) for _, v in row) for row in rows)


def rational_charpoly(entries):
    # det(xI - M) for a dense rational M: the kernel runs on B = L*M, L the
    # lcm of the denominators, under B's largest absolute row sum
    entries = [[Fraction(x) for x in row] for row in entries]
    scale = math.lcm(*(x.denominator for row in entries for x in row))
    rows = [[(j, int(x * scale)) for j, x in enumerate(row) if x] for row in entries]
    return charpoly_from_scaled(charpoly_rows(rows, row_sum_bound(rows)), scale)


def test_divide_exact():
    t3 = (0, -3, 0, 4)  # T_3, primitive but not monic
    q = [5, -1, 2]
    a = [0] * 6
    for i, u in enumerate(t3):
        for j, v in enumerate(q):
            a[i + j] += u * v
    assert _divide_exact(a, t3) == q
    a[0] += 1
    assert _divide_exact(a, t3) is None
    # 2x + 1 does not divide 3x + 1: the constant term cancels, but the
    # leading step 3/2 is not an integer
    assert _divide_exact([1, 3], (1, 2)) is None
    assert _divide_exact([-1, 0, 1], (1, 1)) == [-1, 1]
    # the zero polynomial divides out; a shorter nonzero one does not
    assert _divide_exact([0, 0, 0], (1, 2)) == [0, 0]
    assert _divide_exact([0], (1, 2)) == [0]
    assert _divide_exact([3], (1, 2)) is None


def _long_division(a: list[int], b: tuple[int, ...]) -> list[int] | None:
    """Schoolbook division of a by b, each step taken, as the reference."""
    db = len(b) - 1
    rest = list(a)
    quot = [0] * max(len(a) - db, 1)
    for i in range(len(a) - db - 1, -1, -1):
        c, r = divmod(rest[i + db], b[db])
        if r:
            return None
        quot[i] = c
        for j, bj in enumerate(b):
            rest[i + j] -= c * bj
    return None if any(rest[:db]) else quot


@pytest.mark.parametrize("b", [(1,), (-1, 1), (1, 2), (1, 0, 1), (0, -3, 0, 4)])
def test_divide_exact_zero_dividend_returns_at_once(b):
    # a zero dividend of any length gives the quotient that the whole
    # division gives; a non-multiple of the same length still gives None
    for length in range(9):
        zero = [0] * length
        assert _divide_exact(zero, b) == _long_division(zero, b)
        if length and len(b) > 1:
            one = [1] + zero[1:]  # the constant 1, which b does not divide
            assert _long_division(one, b) is None
            assert _divide_exact(one, b) is None


def test_charpoly_known_values():
    zero_cp = rational_charpoly([[0, 0], [0, 0]])
    assert zero_cp.degree == 2
    assert zero_cp[0] == 0 and zero_cp[1] == 0 and zero_cp[2] == 1

    cp = rational_charpoly([[0, 1], [1, 0]])
    assert cp[0] == -1 and cp[1] == 0 and cp[2] == 1

    half = Fraction(1, 2)
    cp = rational_charpoly([[0, half, half], [half, 0, half], [half, half, 0]])
    assert cp[0] == Fraction(-1, 4)
    assert cp[1] == Fraction(-3, 4)
    assert cp[2] == 0
    assert cp[3] == 1


def test_charpoly_trace_relation():
    rng = random.Random(11)
    for _ in range(10):
        m = random_rational_matrix(rng, 4)
        cp = rational_charpoly(m)
        assert cp[3] == -sum(m[i][i] for i in range(4))


def test_charpoly_permutation_similarity():
    rng = random.Random(3)
    m = random_rational_matrix(rng, 4)
    perm = [2, 0, 3, 1]
    permuted = [[m[perm[i]][perm[j]] for j in range(4)] for i in range(4)]
    assert rational_charpoly(m).coeffs == rational_charpoly(permuted).coeffs


def test_charpoly_against_bareiss_oracle():
    rng = random.Random(20260816)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]
    for _ in range(200):
        m = random_rational_matrix(rng, 4)
        cp = rational_charpoly(m)
        for x in points:
            assert cp.eval_exact(x) == char_value(m, x)


def assert_charpoly_matches_bareiss(entries):
    # both sides have degree n, so n + 1 distinct points pin the polynomial
    n = len(entries)
    cp = rational_charpoly(entries)
    assert cp.degree == n and cp[n] == 1
    for t in range(n + 1):
        x = Fraction(2 * t - n, 3)
        assert cp.eval_exact(x) == char_value(entries, x)
    return cp


@st.composite
def sparse_matrices(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    denominators = st.integers(1, 12) if draw(st.booleans()) else st.just(1)
    entry = st.one_of(
        st.just(Fraction(0)),
        st.builds(Fraction, st.integers(-1000, 1000), denominators),
    )
    return [[draw(entry) for _ in range(n)] for _ in range(n)]


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(entries=sparse_matrices())
def test_charpoly_property_against_bareiss(entries):
    assert_charpoly_matches_bareiss(entries)


def test_charpoly_edge_cases():
    for n in range(1, 9):
        cp = assert_charpoly_matches_bareiss([[0] * n for _ in range(n)])
        assert cp.coeffs == (0,) * n + (1,)
    cp = assert_charpoly_matches_bareiss([[Fraction(-7, 3)]])
    assert cp.coeffs == (Fraction(7, 3), 1)
    # in r*J every entry of a power of B is within a factor n of the
    # row-sum bound that the slot width rests on; cp is x^(n-1) (x - n r)
    for n in range(1, 9):
        for r in (1, 5, Fraction(7, 2), 10**6):
            cp = assert_charpoly_matches_bareiss([[r] * n for _ in range(n)])
            assert cp.coeffs == (0,) * (n - 1) + (-n * r, 1)
    # signs alternating by row and column make negative slots next to
    # positive ones, so packed rows borrow between slots
    for n in range(2, 9):
        mixed = [
            [(-1) ** (i * j + i) * (i + 2 * j + 1) for j in range(n)] for i in range(n)
        ]
        assert_charpoly_matches_bareiss(mixed)
        assert_charpoly_matches_bareiss([[-x for x in row] for row in mixed])


def dense(rows, n):
    out = [[0] * n for _ in range(n)]
    for i, row in enumerate(rows):
        for j, v in row:
            out[i][j] = v
    return out


def assert_kernel_matches_bareiss(rows, bound):
    # det(yI - B) has degree n, so n + 1 distinct points pin it
    n = len(rows)
    q = charpoly_rows(rows, bound)
    assert len(q) == n + 1 and q[n] == 1
    for t in range(n + 1):
        x = Fraction(2 * t - n, 3)
        value = sum(c * x**j for j, c in enumerate(q))
        assert value == char_value(dense(rows, n), x)


@st.composite
def sparse_integer_rows(draw, max_n: int = 8):
    n = draw(st.integers(1, max_n))
    magnitude = draw(st.sampled_from([3, 1000, 2**70]))
    entry = st.one_of(st.just(0), st.just(0), st.integers(-magnitude, magnitude))
    rows = []
    for _ in range(n):
        values = [draw(entry) for _ in range(n)]
        rows.append([(j, v) for j, v in enumerate(values) if v])
    return rows


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(rows=sparse_integer_rows())
def test_kernel_property_against_bareiss(rows):
    assert_kernel_matches_bareiss(rows, row_sum_bound(rows))


@st.composite
def scaled_reflections(draw, max_n: int = 6):
    # B = (v.v) I - 2 v v^T is v.v times a reflection, so B B^T = (v.v)^2 I,
    # while its largest absolute row sum can be near 3 v.v
    n = draw(st.integers(1, max_n))
    v = draw(st.lists(st.integers(-4, 4), min_size=n, max_size=n))
    if not any(v):
        v[0] = 1
    scale = sum(x * x for x in v)
    b = [[scale * (i == j) - 2 * v[i] * v[j] for j in range(n)] for i in range(n)]
    return scale, [[(j, x) for j, x in enumerate(row) if x] for row in b]


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(reflection=scaled_reflections())
def test_kernel_orthogonal_bound_against_bareiss(reflection):
    scale, rows = reflection
    assert is_scaled_orthogonal(scale, rows)
    assert_kernel_matches_bareiss(rows, scale)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(rows=sparse_integer_rows(), reflection=scaled_reflections())
def test_kernel_partial_run_gives_top_coefficients(rows, reflection):
    # a run of k steps, with slots sized for bound^k, gives q_(n-k)..q_n
    # of the full run and leaves 0 below them, under either bound
    scale, orthogonal = reflection
    for b, bound in ((rows, row_sum_bound(rows)), (orthogonal, scale)):
        n = len(b)
        full = charpoly_rows(b, bound)
        for steps in range(n + 1):
            q = charpoly_rows(b, bound, steps)
            assert q[n - steps :] == full[n - steps :]
            assert not any(q[: n - steps])


def test_kernel_rejects_steps_out_of_range():
    rows = [[(0, 1)], [(1, 2)]]
    assert charpoly_rows(rows, 2, 2) == charpoly_rows(rows, 2) == [2, -3, 1]
    for steps in (-1, 3):
        with pytest.raises(InvalidParameterError):
            charpoly_rows(rows, 2, steps)


def test_kernel_inexact_division_raises_under_optimisation():
    # bound 1 is far below the largest row sum, 105, so the slots overflow
    # and a trace is no multiple of its step; the check must still raise
    # under python -O, which strips assert statements
    code = (
        "from groverwalk.linalg import charpoly_rows\n"
        "try:\n"
        "    print(charpoly_rows([[(0, 3), (1, 100)], [(0, 100), (1, 5)]], 1))\n"
        "except RuntimeError as exc:\n"
        "    print('RuntimeError', exc)\n"
    )
    src = str(Path(linalg.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-O", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("RuntimeError step 2:"), proc.stdout


def test_kernel_slot_width_at_the_bound():
    # s = bitlen(bound^n) + n + 2 holds signed slot values in
    # [-2^(s-1), 2^(s-1)), two bits above the largest entry, 2^n bound^n,
    # that the slot-width proof allows. A lone entry of B at either end of
    # that range is read back exactly; one bit less would garble it
    for n in range(1, 6):
        for bound in (0, 1, 2, 3, 7, 8, 32, 10**6):
            s = (bound**n).bit_length() + n + 2
            assert 2**n * bound**n < 2 ** (s - 2)
            for value in (-(2 ** (s - 1)), 2 ** (s - 1) - 1):
                rows = [[(0, value)]] + [[] for _ in range(n - 1)]
                assert charpoly_rows(rows, bound) == [0] * (n - 1) + [-value, 1]


@st.composite
def nearly_orthogonal_rows(draw):
    scale, rows = draw(scaled_reflections())
    edit = draw(st.sampled_from(["none", "bump", "swap"]))
    if edit != "none":
        # a bump changes one row's length; a swap of two entries of a row
        # keeps it and can break only the orthogonality between rows
        n = len(rows)
        b = dense(rows, n)
        i, j, k = (draw(st.integers(0, n - 1)) for _ in range(3))
        if edit == "bump":
            b[i][j] += draw(st.sampled_from([-1, 1]))
        else:
            b[i][j], b[i][k] = b[i][k], b[i][j]
        rows = [[(j, x) for j, x in enumerate(row) if x] for row in b]
    return scale, rows


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=nearly_orthogonal_rows())
def test_scaled_orthogonality_matches_dense_product(case):
    scale, rows = case
    b = dense(rows, len(rows))
    want = all(
        sum(x * y for x, y in zip(b[i], b[k])) == (scale * scale if i == k else 0)
        for i in range(len(b))
        for k in range(len(b))
    )
    assert is_scaled_orthogonal(scale, rows) == want


def test_integer_view():
    # x^3 - 3/4 x - 1/4 = (x - 1)(x + 1/2)^2 is (-1, -3, 0, 4) over 4
    cp = CharPoly((-1, -3, 0, 4), 4)
    assert (cp.integer_coeffs, cp.denominator) == ((-1, -3, 0, 4), 4)
    assert cp.coeffs == (Fraction(-1, 4), Fraction(-3, 4), Fraction(0), Fraction(1))
    assert cp[1] == Fraction(-3, 4)
    # a common factor is divided out on construction
    twice = CharPoly((-2, -6, 0, 8), 8)
    assert (twice.integer_coeffs, twice.denominator) == ((-1, -3, 0, 4), 4)
    assert twice == cp and hash(twice) == hash(cp)
    assert CharPoly((-1, 3), 1).integer_coeffs == (-1, 3)
    assert CharPoly((-1, 3), 1).denominator == 1
    # 1/6 - x/4: the denominator stays 12 though no coefficient has it
    cp = CharPoly((2, -3), 12)
    assert cp.coeffs == (Fraction(1, 6), Fraction(-1, 4))
    assert CharPoly((4, -6), 24) == cp
    for bad in (0, -4):
        with pytest.raises(InvalidParameterError):
            CharPoly((1, 1), bad)


def test_charpoly_eval_and_multiplicity():
    # (x - 1)^2 (x + 2)
    cp = CharPoly((2, -3, 0, 1), 1)
    assert cp.eval_exact(Fraction(1)) == 0
    assert cp.eval_exact(Fraction(1, 2)) == Fraction(5, 8)
    assert cp.root_multiplicity(Fraction(1)) == 2
    assert cp.root_multiplicity(Fraction(-2)) == 1
    assert cp.root_multiplicity(Fraction(5)) == 0
    # an int gives what the equal Fraction gives
    for r, want in ((1, 2), (-2, 1), (5, 0)):
        assert cp.root_multiplicity(r) == cp.root_multiplicity(Fraction(r)) == want
    # (x - 1)(x + 1/2)^2 over the denominator 4
    cp = CharPoly((-1, -3, 0, 4), 4)
    assert cp.eval_exact(Fraction(-1, 2)) == 0
    assert cp.eval_exact(Fraction(2)) == Fraction(25, 4)
    assert cp.root_multiplicity(Fraction(-1, 2)) == 2
    assert cp.root_multiplicity(Fraction(1)) == 1
    assert cp.root_multiplicity(1) == 1


def divided_multiplicity(cp, r):
    # root_multiplicity as _divide_exact by the primitive factor b*x - a
    factor = (-r.numerator, r.denominator)
    coeffs, mult = cp.integer_coeffs, 0
    while len(coeffs) > 1 and (quot := _divide_exact(coeffs, factor)) is not None:
        coeffs, mult = quot, mult + 1
    return mult


def test_unit_root_multiplicities_match_generic_division():
    # every charpoly that spectral_map_check counts roots of, n <= 6
    graphs = [g for g in iter_connected(6) if g.n > 1]
    assert len(graphs) == 142
    seen = 0
    for g in graphs:
        for cp in (transition_charpoly(g), arc_charpoly(g)):
            for r in (Fraction(1), Fraction(-1)):
                want = divided_multiplicity(cp, r)
                assert cp.root_multiplicity(r) == want, (g, r)
                seen += want
    assert seen > 0


def test_integer_roots_skip_generic_division(monkeypatch):
    calls = []

    def counting(a, b):
        calls.append(b)
        return _divide_exact(a, b)

    monkeypatch.setattr(linalg, "_divide_exact", counting)
    # (x - 1)^2 (x + 1) (2x - 1)
    cp = CharPoly((-1, 3, -1, -3, 2), 2)
    assert cp.root_multiplicity(1) == 2
    assert cp.root_multiplicity(-1) == 1
    assert calls == []
    assert cp.root_multiplicity(Fraction(1, 2)) == 1
    assert calls == [(-1, 2), (-1, 2)]


def test_root_multiplicity_at_non_integer_rationals():
    # (2x - 1)^3 (x + 3), as integers and over 8 to be monic
    poly = [1]
    for factor in ([-1, 2], [-1, 2], [-1, 2], [3, 1]):
        poly = [
            sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i < 2)
            for j in range(len(poly) + 1)
        ]
    for denominator in (1, 8):
        cp = CharPoly(tuple(poly), denominator)
        assert cp.root_multiplicity(Fraction(1, 2)) == 3
        assert cp.root_multiplicity(Fraction(-3)) == 1
        assert cp.root_multiplicity(Fraction(1, 3)) == 0
        assert cp.root_multiplicity(Fraction(-1, 2)) == 0
        assert cp.root_multiplicity(Fraction(3, 2)) == 0
    # 3x - 1: the floor quotient by 2x - 1 leaves remainder 0 at the constant
    # term, so only the exactness of each step rules 1/2 out
    cp = CharPoly((-1, 3), 1)
    assert cp.root_multiplicity(Fraction(1, 2)) == 0
    assert cp.root_multiplicity(Fraction(1, 3)) == 1


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    values=st.lists(st.integers(-(10**6), 10**6), min_size=1, max_size=8),
    denominator=st.integers(1, 10**4),
    factor=st.integers(1, 10**3),
    x=st.fractions(max_denominator=50).filter(lambda q: abs(q) <= 50),
)
def test_charpoly_single_form(values, denominator, factor, x):
    # the values as they come, and then monic, as every characteristic
    # polynomial is; both must mean the Fractions v / D entry by entry
    for ints in (tuple(values), tuple(values) + (denominator,)):
        cp = CharPoly(ints, denominator)
        want = tuple(Fraction(v, denominator) for v in ints)
        assert cp.coeffs == want
        assert all(cp[j] == c for j, c in enumerate(want))
        assert cp.degree == len(ints) - 1
        assert cp.denominator >= 1
        assert math.gcd(*cp.integer_coeffs, cp.denominator) == 1
        scaled = CharPoly(tuple(factor * v for v in ints), factor * denominator)
        assert scaled == cp and hash(scaled) == hash(cp)
        value = Fraction(0)
        for c in reversed(want):
            value = value * x + c
        assert cp.eval_exact(x) == value
    # the monic one's denominator is the lcm of its coefficients'
    # reduced denominators, and its last integer coefficient
    assert cp.denominator == math.lcm(*(c.denominator for c in want))
    assert cp.integer_coeffs == tuple(c * cp.denominator for c in want)
    # different polynomials stay apart
    bumped = list(ints)
    bumped[0] += 1
    assert CharPoly(tuple(bumped), denominator) != cp


def test_eigen_diag():
    values, _ = jacobi_eigen([[3.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 2.0]])
    assert [round(v) for v in values] == [1, 2, 3]


def test_eigen_c3():
    values, _ = jacobi_eigen(symmetrized(cycle_graph(3)))
    want = [-0.5, -0.5, 1.0]
    assert max(abs(a - b) for a, b in zip(values, want)) < 1e-10


def test_eigen_c5_closed_form():
    values, _ = jacobi_eigen(symmetrized(cycle_graph(5)))
    want = sorted(math.cos(2 * math.pi * j / 5) for j in range(5))
    assert max(abs(a - b) for a, b in zip(values, want)) < 1e-10


def test_eigen_not_symmetric():
    with pytest.raises(ValueError):
        jacobi_eigen([[0.0, 1.0], [0.5, 0.0]])


def test_eigen_trace_sum():
    rng = random.Random(5)
    for _ in range(5):
        base = [[rng.uniform(-1, 1) for _ in range(6)] for _ in range(6)]
        sym = [
            [(base[i][j] + base[j][i]) / 2 for j in range(6)] for i in range(6)
        ]
        values, _ = jacobi_eigen(sym)
        assert abs(sum(values) - sum(sym[i][i] for i in range(6))) < 1e-9


def test_eigen_residuals():
    sym = symmetrized(cycle_graph(6))
    values, vectors = jacobi_eigen(sym)
    size = len(sym)
    scale = max(abs(x) for row in sym for x in row)
    for lam, vec in zip(values, vectors):
        for i in range(size):
            image = sum(sym[i][j] * vec[j] for j in range(size))
            assert abs(image - lam * vec[i]) <= 1e-10 * max(scale, 1.0)


# ---------------------------------------------------------------------------
# The packed weighted matching polynomial against listed matchings.


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.data(), s=st.integers(2, 40))
def test_signed_digits_read_back_packed_coefficients(data, s):
    # signed digits in [-2^(s-1), 2^(s-1)), the top one nonzero, packed at
    # x = 2^s: negative values and negative top digits included
    half = 1 << (s - 1)
    digits = data.draw(st.lists(st.integers(-half, half - 1), max_size=12))
    while digits and not digits[-1]:
        digits.pop()
    value = sum(c << (s * i) for i, c in enumerate(digits))
    assert linalg._signed_digits(value, s) == tuple(digits)


@pytest.mark.parametrize(
    "pools, closing",
    [(forest_pools(), "trees"), (unicyclic_pools(), "cycle"), (multicyclic_pools(), "split")],
    ids=["forest", "one-cycle", "two-cycles"],
)
@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(data=st.data())
def test_packed_matching_poly_matches_listed_matchings(pools, closing, data):
    # any integer vertex, edge and cycle weights, one int for every edge or
    # one per edge, on each of the three ways the peel leaves a pool
    n, pool = data.draw(pools)
    peel = peel_leaves(n, pool)
    removals, roots, cycle, core = peel
    assert closing == ("cycle" if cycle else "split" if core else "trees")
    a = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    if data.draw(st.booleans()):
        w = {e: data.draw(st.integers(-9, 9)) for e in pool}
        each = w
    else:
        w = data.draw(st.integers(-9, 9))
        each = dict.fromkeys(pool, w)
    cycle_weight = data.draw(st.integers(-9, 9))
    if closing == "split" and cycle_weight:
        with pytest.raises(InvalidParameterError):
            _packed_matching_poly(a, w, peel, cycle_weight)
        with pytest.raises(ValueError):
            brute_matching_poly(pool, a, each, cycle_weight)
        cycle_weight = 0
    want = brute_matching_poly(pool, a, each, cycle_weight)
    assert _packed_matching_poly(a, w, peel, cycle_weight) == want
