import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk.exceptions import (
    DimensionMismatchError,
    InvalidParameterError,
    NonSquareError,
)
from groverwalk.families import cycle_graph
from groverwalk.linalg import (
    CharPoly,
    RationalMatrix,
    charpoly_exact,
    is_integer,
    mat_mul,
    mat_pow,
)
from groverwalk.walk import build_transition_matrix

from oracles import char_value, jacobi_eigen, symmetrized_adjacency


def symmetrized(g):
    return symmetrized_adjacency(g.n, g.edges)


def random_rational_matrix(rng, n):
    return RationalMatrix(
        [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(n)]
            for _ in range(n)
        ]
    )


def test_is_integer():
    assert is_integer(Fraction(4, 2))
    assert is_integer(Fraction(0))
    assert not is_integer(Fraction(-4, 3))


def test_matrix_basics():
    m = RationalMatrix([[1, 2], [3, 4]])
    assert m[0, 1] == 2
    assert m.trace() == 5
    assert m.transpose()[1, 0] == 2
    assert m.row_sums() == (Fraction(3), Fraction(7))
    assert RationalMatrix.identity(3).is_identity()
    assert not m.is_identity()


def test_matrix_errors():
    with pytest.raises(DimensionMismatchError):
        RationalMatrix([[1, 2], [3]])
    with pytest.raises(InvalidParameterError):
        RationalMatrix([])
    a = RationalMatrix([[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError):
        mat_mul(a, a)
    with pytest.raises(NonSquareError):
        charpoly_exact(a)


def test_mat_pow_identity():
    eye = RationalMatrix.identity(4)
    assert mat_pow(eye, 7) == eye
    m = RationalMatrix([[0, 1], [1, 0]])
    assert mat_pow(m, 0) == RationalMatrix.identity(2)
    assert mat_pow(m, 2) == RationalMatrix.identity(2)


def test_mat_pow_additivity():
    rng = random.Random(7)
    for _ in range(5):
        m = random_rational_matrix(rng, 3)
        for i in range(0, 5):
            for j in range(0, 5):
                assert mat_pow(m, i + j) == mat_mul(mat_pow(m, i), mat_pow(m, j))


def test_charpoly_known_values():
    zero_cp = charpoly_exact(RationalMatrix.zeros(2, 2))
    assert zero_cp.degree == 2
    assert zero_cp[0] == 0 and zero_cp[1] == 0 and zero_cp[2] == 1

    cp = charpoly_exact(RationalMatrix([[0, 1], [1, 0]]))
    assert cp[0] == -1 and cp[1] == 0 and cp[2] == 1

    cp = charpoly_exact(build_transition_matrix(cycle_graph(3)).matrix)
    assert cp[0] == Fraction(-1, 4)
    assert cp[1] == Fraction(-3, 4)
    assert cp[2] == 0
    assert cp[3] == 1


def test_charpoly_trace_relation():
    rng = random.Random(11)
    for _ in range(10):
        m = random_rational_matrix(rng, 4)
        cp = charpoly_exact(m)
        assert cp[3] == -m.trace()


def test_charpoly_permutation_similarity():
    rng = random.Random(3)
    m = random_rational_matrix(rng, 4)
    perm = [2, 0, 3, 1]
    permuted = RationalMatrix(
        [[m[perm[i], perm[j]] for j in range(4)] for i in range(4)]
    )
    assert charpoly_exact(m).coeffs == charpoly_exact(permuted).coeffs


def test_charpoly_against_bareiss_oracle():
    rng = random.Random(20260816)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(1, 2), Fraction(3)]
    for _ in range(200):
        m = random_rational_matrix(rng, 4)
        cp = charpoly_exact(m)
        for x in points:
            assert cp.eval_exact(x) == char_value(m.entries, x)


def assert_charpoly_matches_bareiss(entries):
    # both sides have degree n, so n + 1 distinct points pin the polynomial
    m = RationalMatrix(entries)
    cp = charpoly_exact(m)
    assert cp.degree == m.rows and cp[m.rows] == 1
    for t in range(m.rows + 1):
        x = Fraction(2 * t - m.rows, 3)
        assert cp.eval_exact(x) == char_value(m.entries, x)
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


def test_charpoly_eval_and_multiplicity():
    # (x - 1)^2 (x + 2)
    cp = CharPoly((Fraction(2), Fraction(-3), Fraction(0), Fraction(1)))
    assert cp.eval_exact(Fraction(1)) == 0
    assert cp.root_multiplicity(Fraction(1)) == 2
    assert cp.root_multiplicity(Fraction(-2)) == 1
    assert cp.root_multiplicity(Fraction(5)) == 0


def test_root_multiplicity_at_non_integer_rationals():
    # (2x - 1)^3 (x + 3), as integers and scaled to be monic
    poly = [1]
    for factor in ([-1, 2], [-1, 2], [-1, 2], [3, 1]):
        poly = [
            sum(poly[i] * factor[j - i] for i in range(len(poly)) if 0 <= j - i < 2)
            for j in range(len(poly) + 1)
        ]
    for coeffs in (poly, [Fraction(c, 8) for c in poly]):
        cp = CharPoly(tuple(Fraction(c) for c in coeffs))
        assert cp.root_multiplicity(Fraction(1, 2)) == 3
        assert cp.root_multiplicity(Fraction(-3)) == 1
        assert cp.root_multiplicity(Fraction(1, 3)) == 0
        assert cp.root_multiplicity(Fraction(-1, 2)) == 0
        assert cp.root_multiplicity(Fraction(3, 2)) == 0
    # 3x - 1: the floor quotient by 2x - 1 leaves remainder 0 at the constant
    # term, so only the exactness of each step rules 1/2 out
    cp = CharPoly((Fraction(-1), Fraction(3)))
    assert cp.root_multiplicity(Fraction(1, 2)) == 0
    assert cp.root_multiplicity(Fraction(1, 3)) == 1


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
