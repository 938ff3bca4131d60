import math
from fractions import Fraction

import pytest
from hypothesis import given, settings

from groverwalk import walk
from groverwalk.exceptions import InvalidParameterError
from groverwalk.families import (
    complete_bipartite,
    cycle_graph,
    make_family,
    parse_family,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import Arc, build_graph
from groverwalk.linalg import RationalMatrix, charpoly_exact, mat_mul
from groverwalk.periodicity import chebyshev_eigen_check
from groverwalk.walk import (
    build_grover_operator,
    build_transition_matrix,
    spectral_map_check,
)

from oracles import (
    char_value,
    eigenvalue_multiplicity,
    fraction_spectral_map,
    oracle_grover_matrix,
    transition_eigenvalues,
)
from strategies import connected_graphs


def test_p2_operator_is_swap():
    op = build_grover_operator(path_graph(2))
    assert op.matrix == RationalMatrix([[0, 1], [1, 0]])
    assert mat_mul(op.matrix, op.matrix).is_identity()


def test_c3_operator_is_permutation():
    # degree 2 everywhere: the coin is trivial and the walk just shifts arcs
    op = build_grover_operator(cycle_graph(3))
    for i in range(6):
        row = [op.matrix[i, j] for j in range(6)]
        assert sorted(row) == [0, 0, 0, 0, 0, 1]
        assert op.matrix[i, i] == 0


def test_star_rows():
    op = build_grover_operator(complete_bipartite(1, 3))
    hub_rows = [i for i, a in enumerate(op.arcs) if a.origin == 0]
    for i in hub_rows:
        row = sorted(op.matrix[i, j] for j in range(len(op.arcs)))
        nonzero = [x for x in row if x != 0]
        assert nonzero == [Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)]
    assert all(s == 1 for s in op.matrix.row_sums())


def test_arc_index_lookup():
    op = build_grover_operator(cycle_graph(4))
    for i, arc in enumerate(op.arcs):
        assert op.arc_index(arc) == i
    assert op.arcs[op.arc_index(Arc(1, 0))] == Arc(1, 0)


@pytest.mark.parametrize(
    "g",
    [
        cycle_graph(3),
        cycle_graph(6),
        path_graph(4),
        complete_bipartite(2, 3),
        two_tail_graph(3, 2),
        build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
    ],
    ids=["C3", "C6", "P4", "K23", "TT32", "paw"],
)
def test_operator_orthogonal_row_stochastic(g):
    op = build_grover_operator(g)
    assert mat_mul(op.matrix, op.matrix.transpose()).is_identity()
    assert all(s == 1 for s in op.matrix.row_sums())
    assert all(s == 1 for s in build_transition_matrix(g).matrix.row_sums())


def test_operator_determinant_unit():
    for g in (cycle_graph(3), path_graph(3), complete_bipartite(2, 2)):
        cp = charpoly_exact(build_grover_operator(g).matrix)
        assert abs(cp[0]) == 1


def test_operator_matches_oracle():
    cases = [
        (2, [(0, 1)]),
        (3, [(0, 1), (1, 2), (0, 2)]),
        (4, [(0, 1), (1, 2), (2, 3), (0, 3)]),
        (4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
        (5, [(0, 1), (0, 2), (0, 3), (0, 4)]),
        (7, list(two_tail_graph(3, 2).edges)),
    ]
    for n, edges in cases:
        got = build_grover_operator(build_graph(n, edges)).matrix
        want = oracle_grover_matrix(n, edges)
        assert tuple(tuple(row) for row in got.entries) == want


def scaled_nonzeros(matrix, scale):
    # the nonzero entries of scale * matrix by row, as sparse rows hold them
    return [[(j, x * scale) for j, x in enumerate(row) if x] for row in matrix]


def test_arc_rows_are_scaled_operator(connected_by_n):
    # A = L*U entry by entry, against the package's Fraction operator and
    # the oracle's independent entry rule
    graphs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            graphs += 1
            scale, rows = walk._sparse_arc_rows(g)
            assert scale == math.lcm(*g.degree), g
            assert all(type(x) is int for row in rows for _, x in row), g
            u = build_grover_operator(g).matrix.entries
            assert rows == scaled_nonzeros(u, scale), g
            oracle = oracle_grover_matrix(g.n, g.edges)
            assert rows == scaled_nonzeros(oracle, scale), g
    assert graphs == 142


def test_transition_hub_row():
    g = two_tail_graph(3, 1)
    t = build_transition_matrix(g).matrix
    hub = [t[0, v] for v in range(g.n)]
    assert hub.count(Fraction(1, 4)) == 4
    assert hub.count(0) == 1


def test_transition_entries_c3():
    t = build_transition_matrix(cycle_graph(3)).matrix
    for u in range(3):
        for v in range(3):
            want = Fraction(1, 2) if u != v else 0
            assert t[u, v] == want


def test_spectral_map_counts_match_oracle_spectrum(connected_by_n):
    # the exact counts against the numeric vertex spectrum and the exact
    # eigenspace dimensions of the arc operator at +1 and -1
    graphs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            graphs += 1
            values = transition_eigenvalues(g.n, g.edges)
            t_plus = sum(1 for x in values if abs(x - 1) < 1e-9)
            t_minus = sum(1 for x in values if abs(x + 1) < 1e-9)
            u = oracle_grover_matrix(g.n, g.edges)
            report = spectral_map_check(g)
            assert report.matched and report.max_residual == 0.0, g
            assert report.predicted == 2 * g.n - t_plus - t_minus, g
            assert report.unexplained == 2 * g.m - report.predicted, g
            assert report.plus_one_extra == eigenvalue_multiplicity(u, 1) - t_plus, g
            assert report.minus_one_extra == eigenvalue_multiplicity(u, -1) - t_minus, g
    assert graphs == 142


@pytest.mark.parametrize("k", [3, 5])
def test_chebyshev_eigenvalues_in_oracle_spectrum(k):
    for r in range(2, 7):
        g = two_tail_graph(k, r - 1)
        values = transition_eigenvalues(g.n, g.edges)
        report = chebyshev_eigen_check(k, r)
        assert report.max_residual == 0.0
        for lam in report.eigenvalues:
            assert min(abs(x - lam) for x in values) < 1e-9, (k, r, lam)


def test_single_vertex_rejected():
    g = build_graph(1, [])
    with pytest.raises(InvalidParameterError):
        build_grover_operator(g)
    with pytest.raises(InvalidParameterError):
        walk._sparse_arc_rows(g)
    with pytest.raises(InvalidParameterError):
        walk._sparse_transition_rows(g)
    with pytest.raises(InvalidParameterError):
        build_transition_matrix(g)
    with pytest.raises(InvalidParameterError):
        spectral_map_check(g)


def test_arc_charpoly_is_cached_and_exact():
    g = two_tail_graph(3, 1)
    cp = walk.arc_charpoly(g)
    assert walk.arc_charpoly(g) is cp
    assert cp == charpoly_exact(build_grover_operator(g).matrix)
    x = Fraction(3, 2)
    assert cp.eval_exact(x) == char_value(oracle_grover_matrix(g.n, g.edges), x)


def test_spectral_map_p2():
    report = spectral_map_check(path_graph(2))
    assert report.matched
    assert report.predicted == 2
    assert report.unexplained == 0


def test_spectral_map_c3():
    # 3 vertex eigenvalues (1, -1/2, -1/2) map to 5 arc roots; the sixth
    # arc eigenvalue is an extra +1
    report = spectral_map_check(cycle_graph(3))
    assert report.matched
    assert report.predicted == 5
    assert report.unexplained == 1
    assert report.plus_one_extra == 1
    assert report.minus_one_extra == 0
    assert report.max_residual < 1e-10


def test_spectral_map_k23():
    g = complete_bipartite(2, 3)
    report = spectral_map_check(g)
    assert report.matched
    assert report.unexplained == report.plus_one_extra + report.minus_one_extra
    # bipartite: the vertex spectrum holds 1 and -1 once each
    assert report.predicted == 2 * g.n - 2
    assert report.max_residual == 0.0


def test_spectral_map_detects_wrong_charpoly(monkeypatch):
    # C4 and P4 share n, but not the vertex spectrum: the identity must fail
    p4_charpoly = walk.transition_charpoly(path_graph(4))
    monkeypatch.setattr(walk, "transition_charpoly", lambda g: p4_charpoly)
    report = spectral_map_check(cycle_graph(4))
    assert not report.matched
    assert report.max_residual > 0


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(g=connected_graphs(max_n=7))
def test_konno_sato_identity_property(g):
    # the package checks the identity coefficient by coefficient; here both
    # sides are evaluated at one point with Bareiss determinants
    report = spectral_map_check(g)
    assert report.matched and report.max_residual == 0.0
    x = Fraction(3, 2)
    u = oracle_grover_matrix(g.n, g.edges)
    t = build_transition_matrix(g).matrix.entries
    lhs = char_value(u, x) * (x * x - 1) ** (g.n - g.m)
    rhs = (2 * x) ** g.n * char_value(t, (x * x + 1) / (2 * x))
    assert lhs == rhs


def test_transition_rows_are_scaled_matrix(connected_by_n):
    for n in range(2, 7):
        for g in connected_by_n[n]:
            scale, rows = walk._sparse_transition_rows(g)
            assert scale == math.lcm(*g.degree)
            assert all(sum(x for _, x in row) == scale for row in rows)
            t = build_transition_matrix(g).matrix
            assert rows == scaled_nonzeros(t.entries, scale), g
            for u in range(g.n):
                for v in range(g.n):
                    want = Fraction(1, g.degree[u]) if v in g.adj[u] else 0
                    assert t[u, v] == want


# the five shapes of the CI arc-cap smoke step
ARC_CAP_SHAPES = [
    "path:65", "twotail:3,30", "twotail:61,1", "kbipartite:2,32", "twotail:5,3"
]


def test_sparse_rows_follow_the_walk_rules(connected_by_n):
    # the rows the kernels read, against rules that do not share their
    # code: the oracle's arc operator times L, and L/deg u for each
    # neighbour of u; sorted by column, zeros (the reversal entry at a
    # degree-2 vertex) left out
    graphs = [g for n in range(2, 7) for g in connected_by_n[n]]
    graphs += [make_family(parse_family(spec)) for spec in ARC_CAP_SHAPES]
    for g in graphs:
        scale = math.lcm(*g.degree)
        want = scaled_nonzeros(oracle_grover_matrix(g.n, g.edges), scale)
        assert walk._sparse_arc_rows(g) == (scale, want), g
        pairs = set(g.edges) | {(v, u) for u, v in g.edges}
        want = [
            [(v, scale // g.degree[u]) for v in range(g.n) if (u, v) in pairs]
            for u in range(g.n)
        ]
        assert walk._sparse_transition_rows(g) == (scale, want), g
    assert len(graphs) == 147


def test_charpolys_from_rows_equal_charpoly_exact(connected_by_n):
    # the cached charpolys run the kernel on integer rows; charpoly_exact
    # clears the denominators of the Fraction matrices and bounds the
    # slots by the row sums, also for the arc operator
    graphs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            graphs += 1
            t = build_transition_matrix(g).matrix
            u = build_grover_operator(g).matrix
            assert walk.transition_charpoly(g) == charpoly_exact(t), g
            assert walk.arc_charpoly(g) == charpoly_exact(u), g
    assert graphs == 142


def test_charpolys_build_no_rational_matrix(monkeypatch):
    def refuse(*args):
        raise AssertionError("RationalMatrix built")

    monkeypatch.setattr(walk, "RationalMatrix", refuse)
    walk.transition_charpoly.cache_clear()
    walk.arc_charpoly.cache_clear()
    graphs = (
        path_graph(2),
        cycle_graph(5),
        complete_bipartite(2, 3),
        two_tail_graph(3, 2),
    )
    for g in graphs:
        walk.transition_charpoly(g)
        walk.arc_charpoly(g)
    with pytest.raises(AssertionError):
        build_transition_matrix(path_graph(3))


def test_spectral_map_matches_fraction_oracle(connected_by_n):
    for n in range(2, 7):
        for g in connected_by_n[n]:
            want = fraction_spectral_map(
                walk.transition_charpoly(g).coeffs, walk.arc_charpoly(g).coeffs, g.m
            )
            assert tuple(spectral_map_check(g)) == want, g


def test_spectral_map_residual_on_wrong_charpolys(monkeypatch, connected_by_n):
    # every report field, the nonzero residual included, equals the
    # Fraction computation when the vertex charpoly belongs to another graph
    # on the same vertices
    cases = 0
    for n in range(2, 6):
        graphs = connected_by_n[n]
        for g in graphs:
            for h in graphs[:4]:
                wrong = walk.transition_charpoly(h)
                monkeypatch.setattr(walk, "transition_charpoly", lambda _: wrong)
                report = spectral_map_check(g)
                monkeypatch.undo()
                want = fraction_spectral_map(
                    wrong.coeffs, walk.arc_charpoly(g).coeffs, g.m
                )
                assert tuple(report) == want, (g, h)
                # K_13 and C_4 share a transition spectrum
                own = walk.transition_charpoly(g)
                assert (report.max_residual > 0) == (own != wrong)
                cases += 1
    assert cases > 100
