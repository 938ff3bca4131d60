import math
from fractions import Fraction
from functools import partial

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
from groverwalk.graphs import build_graph
from groverwalk.linalg import charpoly_from_scaled, charpoly_rows, faddeev_leverrier
from groverwalk.periodicity import chebyshev_eigen_check
from groverwalk.walk import spectral_map_check

from oracles import (
    char_value,
    eigenvalue_multiplicity,
    fraction_spectral_map,
    int_mat_mul,
    oracle_grover_matrix,
    transition_eigenvalues,
)
from strategies import connected_graphs


def arc_rows(g):
    # L and the sparse rows of A = L*U, expanded from the coin plan that
    # arc_charpoly steps on
    scale, plan = walk._arc_plan(g)
    return scale, walk._plan_rows(plan, 2 * g.m)


def dense(rows):
    # the square integer matrix that sparse rows describe
    out = [[0] * len(rows) for _ in rows]
    for dense_row, row in zip(out, rows):
        for j, v in row:
            dense_row[j] = v
    return out


def transition_entries(g):
    # T by its entry rule: 1/deg(u) for each neighbour v of u
    return [
        [Fraction(1, g.degree[u]) if v in g.adj[u] else 0 for v in range(g.n)]
        for u in range(g.n)
    ]


def test_p2_operator_is_swap():
    scale, rows = arc_rows(path_graph(2))
    assert (scale, rows) == (1, [[(1, 1)], [(0, 1)]])
    assert int_mat_mul(dense(rows), dense(rows)) == [[1, 0], [0, 1]]


def test_c3_operator_is_permutation():
    # degree 2 everywhere: the coin is trivial and the walk just shifts arcs
    scale, rows = arc_rows(cycle_graph(3))
    assert scale == 2
    for i, row in enumerate(rows):
        assert len(row) == 1 and row[0][1] == scale
        assert row[0][0] != i
    assert sorted(row[0][0] for row in rows) == list(range(6))


def test_star_rows():
    g = complete_bipartite(1, 3)
    scale, rows = arc_rows(g)
    assert scale == 3
    # arc 2i starts at the low end of edge i, arc 2i + 1 at its high end
    origins = [end for edge in g.edges for end in edge]
    hub_rows = [i for i, origin in enumerate(origins) if origin == 0]
    assert hub_rows == [0, 2, 4]
    for i in hub_rows:
        nonzero = sorted(Fraction(v, scale) for _, v in rows[i])
        assert nonzero == [Fraction(-1, 3), Fraction(2, 3), Fraction(2, 3)]
    assert all(sum(v for _, v in row) == scale for row in rows)


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
    # A A^T = L^2 I and every row of A = L*U and of L*T sums to L
    scale, rows = arc_rows(g)
    a = dense(rows)
    size = len(a)
    square = int_mat_mul(a, [list(col) for col in zip(*a)])
    assert square == [[scale * scale * (i == j) for j in range(size)] for i in range(size)]
    assert all(sum(v for _, v in row) == scale for row in rows)
    scale, rows = walk._sparse_transition_rows(g)
    assert all(sum(v for _, v in row) == scale for row in rows)


def test_operator_determinant_unit():
    for g in (cycle_graph(3), path_graph(3), complete_bipartite(2, 2)):
        assert abs(walk.arc_charpoly(g)[0]) == 1
        assert abs(char_value(oracle_grover_matrix(g.n, g.edges), Fraction(0))) == 1


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
        g = build_graph(n, edges)
        scale, rows = arc_rows(g)
        got = tuple(tuple(Fraction(v, scale) for v in row) for row in dense(rows))
        assert got == oracle_grover_matrix(n, edges)


def scaled_nonzeros(matrix, scale):
    # the nonzero entries of scale * matrix by row, as sparse rows hold them
    return [[(j, x * scale) for j, x in enumerate(row) if x] for row in matrix]


def test_arc_rows_are_scaled_operator(connected_by_n):
    # A = L*U entry by entry, against the oracle's independent entry rule
    graphs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            graphs += 1
            scale, rows = arc_rows(g)
            assert scale == math.lcm(*g.degree), g
            assert all(type(x) is int for row in rows for _, x in row), g
            oracle = oracle_grover_matrix(g.n, g.edges)
            assert rows == scaled_nonzeros(oracle, scale), g
    assert graphs == 142


def test_transition_hub_row():
    g = two_tail_graph(3, 1)
    scale, rows = walk._sparse_transition_rows(g)
    hub = [Fraction(v, scale) for v in dense(rows)[0]]
    assert hub.count(Fraction(1, 4)) == 4
    assert hub.count(0) == 1


def test_transition_entries_c3():
    scale, rows = walk._sparse_transition_rows(cycle_graph(3))
    t = dense(rows)
    for u in range(3):
        for v in range(3):
            want = Fraction(1, 2) if u != v else 0
            assert Fraction(t[u][v], scale) == want


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
        walk._arc_plan(g)
    with pytest.raises(InvalidParameterError):
        walk._sparse_transition_rows(g)
    with pytest.raises(InvalidParameterError):
        spectral_map_check(g)


def test_arc_charpoly_is_cached_and_exact():
    g = two_tail_graph(3, 1)
    cp = walk.arc_charpoly(g)
    assert walk.arc_charpoly(g) is cp
    # both sides have degree 2m, so 2m + 1 distinct points pin the polynomial
    u = oracle_grover_matrix(g.n, g.edges)
    for t in range(2 * g.m + 1):
        x = Fraction(2 * t - 2 * g.m, 3)
        assert cp.eval_exact(x) == char_value(u, x)


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
    t = transition_entries(g)
    lhs = char_value(u, x) * (x * x - 1) ** (g.n - g.m)
    rhs = (2 * x) ** g.n * char_value(t, (x * x + 1) / (2 * x))
    assert lhs == rhs


def test_transition_rows_are_scaled_matrix(connected_by_n):
    for n in range(2, 7):
        for g in connected_by_n[n]:
            scale, rows = walk._sparse_transition_rows(g)
            assert scale == math.lcm(*g.degree)
            assert all(sum(x for _, x in row) == scale for row in rows)
            assert rows == scaled_nonzeros(transition_entries(g), scale), g


# the six shapes of the CI arc-cap smoke step
ARC_CAP_SHAPES = [
    "path:65",
    "twotail:3,30",
    "twotail:61,1",
    "kbipartite:2,32",
    "twotail:5,3",
    "kbipartite:8,8",
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
        assert arc_rows(g) == (scale, want), g
        pairs = set(g.edges) | {(v, u) for u, v in g.edges}
        want = [
            [(v, scale // g.degree[u]) for v in range(g.n) if (u, v) in pairs]
            for u in range(g.n)
        ]
        assert walk._sparse_transition_rows(g) == (scale, want), g
    assert len(graphs) == 148


def test_charpolys_from_rows_equal_charpoly_exact(connected_by_n):
    # the cached charpolys against the whole kernel run on the same rows
    # with the slots bounded by the largest absolute row sum, not by L
    graphs = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            graphs += 1
            for route, rows_of in (
                (walk.transition_charpoly, walk._sparse_transition_rows),
                (walk.arc_charpoly, arc_rows),
            ):
                scale, rows = rows_of(g)
                bound = max(sum(abs(v) for _, v in row) for row in rows)
                want = charpoly_from_scaled(charpoly_rows(rows, bound), scale)
                assert route(g) == want, g
    assert graphs == 142


def test_coin_step_equals_sparse_rows_kernel(connected_by_n):
    # the whole kernel run with the coin product against the same run with
    # the generic product on the rows expanded from the same plan, both
    # with the slots bounded by the largest absolute row sum, not by L
    graphs = [g for n in range(2, 7) for g in connected_by_n[n]]
    graphs += [make_family(parse_family(spec)) for spec in ARC_CAP_SHAPES]
    for g in graphs:
        _, plan = walk._arc_plan(g)
        rows = walk._plan_rows(plan, 2 * g.m)
        bound = max(sum(abs(v) for _, v in row) for row in rows)
        product = partial(walk._coin_product, plan, len(rows))
        got = faddeev_leverrier(len(rows), product, bound)
        assert got == charpoly_rows(rows, bound), g
    assert len(graphs) == 148


def test_charpolys_build_no_rational_matrix(monkeypatch):
    # the kernel reads only integers: the transition run one (column, int)
    # pair per nonzero entry, the arc run a coin plan of at most deg v
    # in-arcs and deg v single terms per vertex v; never a dense row
    seen = []
    plans = []
    coin_product = walk._coin_product

    def recording(rows, bound, steps=None):
        seen.append(rows)
        return charpoly_rows(rows, bound, steps)

    def recording_plan(plan, size, work):
        # one entry per run: every step of a run reads the same plan
        if not plans or plans[-1] is not plan:
            plans.append(plan)
        return coin_product(plan, size, work)

    monkeypatch.setattr(walk, "charpoly_rows", recording)
    monkeypatch.setattr(walk, "_coin_product", recording_plan)
    graphs = (
        path_graph(2),
        cycle_graph(5),
        complete_bipartite(2, 3),
        two_tail_graph(3, 2),
    )
    for g in graphs:
        walk.transition_charpoly(g)
        walk.arc_charpoly(g)
    # four arc runs and the one transition run past one cycle, K_{2,3}
    assert (len(plans), len(seen)) == (4, 1)
    for plan, g in zip(plans, graphs):
        assert len(plan) == g.n
        for (w, ins, outs), d in zip(plan, g.degree):
            assert len(ins) in (0, d) and len(outs) == d
            assert all(type(x) is int for x in (w, *ins))
            assert all(type(x) is int for term in outs for x in term)
        seen.append(walk._plan_rows(plan, 2 * g.m))
    for rows in seen:
        for row in rows:
            assert all(type(j) is int and type(v) is int and v for j, v in row)
            assert [j for j, _ in row] == sorted({j for j, _ in row})
            assert len(row) < len(rows)


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
