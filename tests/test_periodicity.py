import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk import periodicity
from groverwalk.exceptions import (
    BudgetExceededError,
    IndexOutOfRangeError,
    InvalidParameterError,
    ResidualExceededError,
    ShapeMismatchError,
)
from groverwalk.families import (
    complete_bipartite,
    cycle_graph,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import build_graph, classify
from groverwalk.linalg import charpoly_exact, is_integer
from groverwalk.periodicity import (
    _cyclotomic_orders,
    branch_frame,
    branch_integrality_instances,
    certify_period,
    chebyshev_eigen_check,
    chebyshev_table,
    cycle_matching_identity_check,
    degree_condition_filter,
    find_period,
    graph_hash,
    integrality_filter,
    lockstep_chain_length,
    matching_split_check,
    matching_sum,
    odd_period_query,
    real_cyclotomic,
    tail_recurrence_check,
)
from groverwalk.walk import build_grover_operator, build_transition_matrix

from oracles import brute_period
from strategies import connected_graphs


PERIOD_TABLE = [
    ("P2", path_graph(2), 2),
    ("C3", cycle_graph(3), 3),
    ("C4", cycle_graph(4), 4),
    ("C5", cycle_graph(5), 5),
    ("C6", cycle_graph(6), 6),
    ("C7", cycle_graph(7), 7),
    ("K11", complete_bipartite(1, 1), 2),
    ("K23", complete_bipartite(2, 3), 4),
    ("K44", complete_bipartite(4, 4), 4),
    ("TT31", two_tail_graph(3, 1), 60),
    ("TT32", two_tail_graph(3, 2), 168),
    ("TT33", two_tail_graph(3, 3), 36),
    ("TT51", two_tail_graph(5, 1), 140),
]


@pytest.mark.parametrize(
    "g,want", [(g, p) for _, g, p in PERIOD_TABLE], ids=[x[0] for x in PERIOD_TABLE]
)
def test_known_periods(g, want):
    report = find_period(g)
    assert report.verdict == "periodic"
    assert report.period == want
    assert report.failing_indices == ()
    assert report.candidate_source == "cyclotomic"
    assert report.graph_hash == graph_hash(g)


def test_paw_refuted(paw):
    report = find_period(paw)
    assert report.verdict == "refuted_by_integrality"
    assert report.period is None
    assert report.failing_indices == (2, 3, 4)
    cp = charpoly_exact(build_transition_matrix(paw).matrix)
    assert cp[1] == Fraction(-1, 6)
    assert cp[1] * 2**3 == Fraction(-4, 3)
    assert not is_integer(cp[1] * 2**3)


def test_integrality_filter_values():
    cp = charpoly_exact(build_transition_matrix(cycle_graph(3)).matrix)
    assert integrality_filter(cp) == ()


def test_period_is_relabel_invariant():
    g = two_tail_graph(3, 1)
    perm = [4, 2, 0, 3, 1]
    h = g.relabel(perm)
    a = find_period(g)
    b = find_period(h)
    assert (a.verdict, a.period) == (b.verdict, b.period) == ("periodic", 60)


@pytest.mark.parametrize("n", [4, 6])
def test_period_matches_brute_oracle(n):
    g = cycle_graph(n)
    u = build_grover_operator(g).matrix
    want = brute_period(tuple(tuple(row) for row in u.entries), 20)
    assert want == n
    assert find_period(g).period == want


def test_bit_budget():
    with pytest.raises(BudgetExceededError) as info:
        find_period(two_tail_graph(3, 1), bit_budget=10)
    assert info.value.bits > 10
    assert str(info.value).startswith("certificate: ")


def _totient(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def test_real_cyclotomic():
    assert real_cyclotomic(1) == (-2, 1)
    assert real_cyclotomic(2) == (2, 1)
    assert real_cyclotomic(3) == (1, 1)
    assert real_cyclotomic(4) == (0, 1)
    assert real_cyclotomic(5) == (-1, 1, 1)
    assert real_cyclotomic(6) == (-1, 1)
    for d in range(3, 31):
        psi = real_cyclotomic(d)
        assert len(psi) - 1 == _totient(d) // 2
        assert psi[-1] == 1
        # 2cos(2 pi/d) is a root
        y = 2 * math.cos(2 * math.pi / d)
        assert abs(sum(c * y**i for i, c in enumerate(psi))) < 1e-9
    with pytest.raises(InvalidParameterError):
        real_cyclotomic(0)


def test_cyclotomic_orders():
    # phi(90) = 24, the largest order a degree-12 factor can have
    assert _cyclotomic_orders(list(real_cyclotomic(90))) == [90]
    # y^2 (y - 2) = Psi_4^2 Psi_1, each factor reported once
    assert _cyclotomic_orders([0, 0, -2, 1]) == [1, 4, 4]
    # y - 3 has its root outside [-2, 2]: a defect, never a verdict
    with pytest.raises(RuntimeError):
        _cyclotomic_orders([-3, 1])


def _passes_filter(g):
    return not integrality_filter(charpoly_exact(build_transition_matrix(g).matrix))


def test_filter_passers_are_periodic(connected_by_n):
    # Kronecker: past the filter, every root of 2^n cp(y/2) is 2cos(2 pi/d)
    passed = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            report = find_period(g)
            if _passes_filter(g):
                passed += 1
                assert report.verdict == "periodic", g
            else:
                assert report.verdict == "refuted_by_integrality", g
    assert passed > 0


def _brute(g, k_max):
    rows = tuple(tuple(row) for row in build_grover_operator(g).matrix.entries)
    return brute_period(rows, k_max)


def test_periods_match_brute_oracle_small(connected_by_n):
    for n in range(2, 6):
        for g in connected_by_n[n]:
            report = find_period(g)
            if report.verdict == "periodic":
                assert _brute(g, report.period) == report.period, g


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=connected_graphs(), data=st.data())
def test_period_properties(g, data):
    perm = data.draw(st.permutations(range(g.n)))
    a = find_period(g)
    b = find_period(g.relabel(perm))
    assert (a.verdict, a.period) == (b.verdict, b.period)
    if a.verdict == "periodic":
        assert _brute(g, a.period) == a.period


@pytest.mark.parametrize(
    "g,p", [(g, p) for _, g, p in PERIOD_TABLE], ids=[x[0] for x in PERIOD_TABLE]
)
def test_certificate_rejects_wrong_periods(g, p):
    assert certify_period(g, p)
    assert not certify_period(g, p + 1)
    assert not certify_period(g, 2 * p)
    with pytest.raises(InvalidParameterError):
        certify_period(g, 0)


def test_degree_condition():
    c5 = classify(cycle_graph(5))
    assert degree_condition_filter(c5.decomposition, cycle_graph(5)).kind == (
        "all_degree_two"
    )
    tt = two_tail_graph(3, 2)
    verdict = degree_condition_filter(classify(tt).decomposition, tt)
    assert verdict.kind == "one_degree_four"
    assert verdict.vertex == 0
    paw = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    assert degree_condition_filter(classify(paw).decomposition, paw).kind == (
        "violates"
    )


def test_odd_period_query():
    assert odd_period_query(cycle_graph(5))
    assert odd_period_query(cycle_graph(9))
    assert not odd_period_query(cycle_graph(4))
    assert not odd_period_query(path_graph(2))
    assert not odd_period_query(two_tail_graph(3, 2))


def test_find_period_is_cached(monkeypatch):
    certify = periodicity.certify_period
    calls = []

    def counting(g, p, bit_budget):
        calls.append(p)
        return certify(g, p, bit_budget)

    monkeypatch.setattr(periodicity, "certify_period", counting)
    g = cycle_graph(7).relabel([3, 6, 0, 5, 2, 4, 1])
    first = find_period(g)
    assert first.period == 7 and calls == [7]
    assert find_period(g) is first
    assert odd_period_query(g)
    assert calls == [7]
    # a budget overrun is raised again on every call, never cached
    for attempt in (1, 2):
        with pytest.raises(BudgetExceededError):
            find_period(g, bit_budget=10)
        assert calls == [7] * (1 + attempt)


def test_graph_hash():
    a = graph_hash(cycle_graph(3))
    assert a == graph_hash(cycle_graph(3))
    assert a != graph_hash(cycle_graph(4))
    assert len(a) == 16
    assert set(a) <= set("0123456789abcdef")


def test_matching_sum_values():
    c5 = cycle_graph(5)
    assert matching_sum(c5, 0) == 1
    assert matching_sum(c5, 1) == Fraction(5, 4)
    assert matching_sum(c5, 2) == Fraction(5, 16)
    assert matching_sum(c5, 3) == 0


def test_cycle_matching_identity(paw):
    d = classify(paw).decomposition
    assert cycle_matching_identity_check(paw, d, 0)
    c3 = cycle_graph(3)
    assert cycle_matching_identity_check(c3, classify(c3).decomposition, 0)
    with pytest.raises(IndexOutOfRangeError):
        cycle_matching_identity_check(paw, d, 1)
    with pytest.raises(InvalidParameterError):
        cycle_matching_identity_check(paw, d, -1)


def test_branch_frame_shape():
    g = two_tail_graph(3, 2)
    frame = branch_frame(g)
    assert frame.hub == 0
    assert frame.branch_a == (3, 4)
    assert frame.branch_b == (5, 6)
    assert frame.outer_edges == ((3, 4), (5, 6))
    assert set(frame.core_edges) == {(0, 1), (0, 2), (1, 2), (0, 3), (0, 5)}
    assert lockstep_chain_length(frame, g) == 1


def test_branch_frame_rejects():
    paw = build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    with pytest.raises(ShapeMismatchError):
        branch_frame(paw)
    with pytest.raises(ShapeMismatchError):
        branch_frame(path_graph(3))
    with pytest.raises(ShapeMismatchError):
        branch_frame(cycle_graph(5))
    with pytest.raises(ShapeMismatchError):
        branch_frame(cycle_graph(4))


def test_tail_recurrence_examples():
    assert tail_recurrence_check(two_tail_graph(3, 4), 1, 2)
    assert tail_recurrence_check(two_tail_graph(3, 4), 2, 3)
    assert tail_recurrence_check(two_tail_graph(3, 2), 0, 2)
    assert tail_recurrence_check(two_tail_graph(3, 2), 1, 1)


def test_tail_recurrence_shape_guard():
    # exclusion depth 3 needs three degree-2 vertices on each branch;
    # a three-edge tail ends in a leaf at position 3
    with pytest.raises(ShapeMismatchError):
        tail_recurrence_check(two_tail_graph(5, 3), 2, 3)
    with pytest.raises(InvalidParameterError):
        tail_recurrence_check(two_tail_graph(3, 2), -1, 2)
    with pytest.raises(InvalidParameterError):
        tail_recurrence_check(two_tail_graph(3, 2), 1, 0)


def test_matching_split_examples():
    g = two_tail_graph(3, 2)
    for t in range(0, g.n // 2 + 1):
        assert matching_split_check(g, t)
    with pytest.raises(IndexOutOfRangeError):
        matching_split_check(two_tail_graph(3, 1), 3)
    with pytest.raises(InvalidParameterError):
        matching_split_check(g, -1)


def test_branch_integrality():
    out = branch_integrality_instances(two_tail_graph(3, 2))
    assert len(out) == 1
    assert out[0].i == 1
    assert out[0].scaled_outer == 4
    assert out[0].scaled_paired == 1
    assert out[0].holds
    deep = branch_integrality_instances(two_tail_graph(3, 4))
    assert [inst.i for inst in deep] == [1, 2, 3]
    assert all(inst.holds for inst in deep)


def test_chebyshev_table():
    rows = chebyshev_table(3)
    assert rows == ((1,), (0, 2), (-1, 0, 4), (0, -4, 0, 8))
    assert chebyshev_table(0) == ((1,),)
    with pytest.raises(InvalidParameterError):
        chebyshev_table(-1)


def test_chebyshev_eigen_small():
    report = chebyshev_eigen_check(3, 2)
    assert report.tail_edges == 1
    assert report.eigenvalues == pytest.approx((0.0,), abs=1e-12)
    assert report.max_residual < 1e-12


def test_chebyshev_eigen_deeper():
    report = chebyshev_eigen_check(5, 4)
    want = (math.cos(math.pi / 6), 0.0, math.cos(5 * math.pi / 6))
    assert report.eigenvalues == pytest.approx(want, abs=1e-12)
    assert report.max_residual < 1e-10
    with pytest.raises(InvalidParameterError):
        chebyshev_eigen_check(3, 1)


def test_chebyshev_check_rejects_wrong_charpoly(monkeypatch):
    # the cycle C_9 has the two-tail graph's vertex count but not T_3 | cp
    wrong = periodicity.transition_charpoly(cycle_graph(9))
    monkeypatch.setattr(periodicity, "transition_charpoly", lambda g: wrong)
    with pytest.raises(ResidualExceededError, match="does not divide"):
        chebyshev_eigen_check(3, 4)


def test_chebyshev_check_rejects_wrong_vector(monkeypatch):
    # a chord from the first tail vertex to cycle vertex 1 breaks the
    # eigen-equation at vertex 1; the charpoly is kept so divisibility holds
    good = two_tail_graph(3, 3)
    cp = periodicity.transition_charpoly(good)
    bad = build_graph(good.n, list(good.edges) + [(1, 3)])
    monkeypatch.setattr(periodicity, "two_tail_graph", lambda k, m: bad)
    monkeypatch.setattr(periodicity, "transition_charpoly", lambda g: cp)
    with pytest.raises(ResidualExceededError, match="vertex 1 "):
        chebyshev_eigen_check(3, 4)
