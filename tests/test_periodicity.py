import json
import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk import cli, periodicity, walk
from groverwalk.exceptions import (
    IndexOutOfRangeError,
    InvalidParameterError,
    ResidualExceededError,
    ShapeMismatchError,
)
from groverwalk.families import (
    complete_bipartite,
    cycle_graph,
    enumerate_odd_unicyclic,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import build_graph, classify
from groverwalk.linalg import CharPoly, charpoly_from_scaled, charpoly_rows
from groverwalk.periodicity import (
    _cyclotomic,
    _cyclotomic_orders,
    branch_frame,
    branch_integrality_instances,
    chebyshev_eigen_check,
    chebyshev_table,
    cycle_matching_identity_check,
    degree_condition_filter,
    find_period,
    integrality_filter,
    lockstep_chain_length,
    matching_split_check,
    matching_sum,
    odd_period_query,
    tail_recurrence_check,
)
from groverwalk.walk import spectral_map_check, transition_charpoly

from oracles import (
    brute_matchings,
    brute_period,
    fraction_integrality_filter,
    fraction_matching_sum,
    oracle_grover_matrix,
    poly_mul,
    prime_divisors,
    psi_period,
    square_and_multiply_certificate,
    walked_lockstep_length,
    walked_tail_guard_fails,
)
from strategies import connected_graphs, trees


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


def test_paw_refuted(paw):
    report = find_period(paw)
    assert report.verdict == "refuted_by_integrality"
    assert report.period is None
    assert report.failing_indices == (2, 3, 4)
    cp = transition_charpoly(paw)
    assert cp[1] == Fraction(-1, 6)
    assert cp[1] * 2**3 == Fraction(-4, 3)


def test_integrality_filter_values():
    cp = transition_charpoly(cycle_graph(3))
    assert integrality_filter(cp) == ()


def test_integrality_filter_matches_fraction_oracle(connected_by_n, odd_unicyclic_up_to):
    # the modulus test on the integer form against the Fraction definition,
    # on every odd-unicyclic class with n <= 10 and every connected graph
    # with 2 <= n <= 7
    graphs = list(odd_unicyclic_up_to(10))
    assert len(graphs) == 650
    graphs += [g for n in range(2, 8) for g in connected_by_n[n]]
    refuted = 0
    for g in graphs:
        cp = transition_charpoly(g)
        failing = integrality_filter(cp)
        assert failing == fraction_integrality_filter(cp.coeffs), g
        refuted += bool(failing)
    assert 0 < refuted < len(graphs)


def test_exact_routes_build_no_fraction_coefficients(monkeypatch, paw):
    # the period route, the spectral map and the Chebyshev check read the
    # integer coefficients and the denominator only
    def refuse(*args):
        raise AssertionError("Fraction coefficients built")

    monkeypatch.setattr(CharPoly, "coeffs", property(refuse))
    monkeypatch.setattr(CharPoly, "__getitem__", refuse)
    # fresh graphs, so that every charpoly is computed under the refusal
    table = [build_graph(g.n, g.edges) for _, g, _ in PERIOD_TABLE]
    two_tails = [two_tail_graph(k, r) for k, r in ((3, 4), (5, 2), (7, 1), (9, 3))]
    for g in table + two_tails:
        report = find_period(g)
        assert report.verdict == "periodic", g
        assert spectral_map_check(g).matched
    for k, r in ((3, 2), (5, 4), (9, 3)):
        chebyshev_eigen_check(k, r)
    # a refuted graph goes through the filter alone
    fresh_paw = build_graph(paw.n, paw.edges)
    assert find_period(fresh_paw).verdict == "refuted_by_integrality"


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
    want = brute_period(oracle_grover_matrix(g.n, g.edges), 20)
    assert want == n
    assert find_period(g).period == want


def _totient(d):
    return sum(1 for k in range(1, d + 1) if math.gcd(k, d) == 1)


def test_cyclotomic():
    for big_n in range(1, 61):
        product = [1]
        for d in range(1, big_n + 1):
            if big_n % d == 0:
                product = poly_mul(product, _cyclotomic(d))
        assert product == [-1] + [0] * (big_n - 1) + [1], big_n
    for d in range(1, 61):
        assert len(_cyclotomic(d)) - 1 == _totient(d)
        assert _cyclotomic(d)[-1] == 1


def test_cyclotomic_orders(monkeypatch):
    # phi(90) = 24: one factor, found once, past the degree
    assert _cyclotomic_orders(list(_cyclotomic(90))) == ([90], [1])
    # (x - 1)(x + 1)^2(x^2 + 1) = Phi_1 Phi_2^2 Phi_4, each factor reported once
    poly = poly_mul(poly_mul([-1, 1], [1, 2, 1]), [1, 0, 1])
    assert _cyclotomic_orders(poly) == ([1, 2, 2, 4], [1])
    # x - 3 has its root off the unit circle and comes back as the rest
    assert _cyclotomic_orders([-3, 1]) == ([], [-3, 1])
    # in find_period such a leftover is a defect, never a verdict. A vertex
    # eigenvalue 3/2 lifts to x^2 - 3x + 1 by the Konno-Sato identity, so
    # the pair below passes the filter and the identity, and leaves it over
    g = cycle_graph(5)
    cp, u = transition_charpoly(g), walk.arc_charpoly(g)
    cp_bad = CharPoly(tuple(poly_mul(cp.integer_coeffs, [-3, 2])), 2 * cp.denominator)
    u_bad = CharPoly(tuple(poly_mul(u.integer_coeffs, [1, -3, 1])), u.denominator)
    monkeypatch.setattr(periodicity, "transition_charpoly", lambda h: cp_bad)
    monkeypatch.setattr(periodicity, "arc_charpoly", lambda h: u_bad)
    with pytest.raises(RuntimeError, match="not a product of Phi_d"):
        find_period(g)


@pytest.mark.parametrize(
    "g",
    [complete_bipartite(2, 3), complete_bipartite(4, 4), cycle_graph(5), path_graph(4)],
    ids=["K23", "K44", "C5", "P4"],
)
def test_find_period_factors_the_arc_charpoly(monkeypatch, g):
    # one factorization, of the very arc charpoly that was compared with
    # the Konno-Sato lift; a tree's has no spare Phi_1 Phi_2
    compared, factored = [], []
    residual, orders = periodicity.konno_sato_residual, periodicity._cyclotomic_orders

    def recording_residual(cp, u):
        compared.append(u)
        return residual(cp, u)

    def recording_orders(poly):
        factored.append(poly)
        return orders(poly)

    monkeypatch.setattr(periodicity, "konno_sato_residual", recording_residual)
    monkeypatch.setattr(periodicity, "_cyclotomic_orders", recording_orders)
    find_period(g)
    u = walk.arc_charpoly(g)
    assert len(compared) == 1 and compared[0] is u
    assert factored == [list(u.integer_coeffs)]


def test_find_period_searches_orders_above_the_degree(monkeypatch):
    # Phi_90 has degree 24 < 90: the search over d must reach past the
    # degree. It is the Konno-Sato lift of the degree-12 P whose roots are
    # 2cos(2 pi j / 90), j coprime to 90, so the pair passes both checks
    p = [1]
    for j in range(1, 45):
        if math.gcd(j, 90) == 1:
            p = [b - 2 * math.cos(2 * math.pi * j / 90) * a for a, b in zip(p + [0], [0] + p)]
    p = [round(c) for c in p]
    phi_90 = list(_cyclotomic(90))
    assert walk.konno_sato_lift(p, 0) == phi_90
    cp = CharPoly(tuple(c << k for k, c in enumerate(p)), 1 << 12)
    monkeypatch.setattr(periodicity, "transition_charpoly", lambda h: cp)
    monkeypatch.setattr(periodicity, "arc_charpoly", lambda h: CharPoly(tuple(phi_90), 1))
    assert find_period(cycle_graph(5)).period == 90


def test_find_period_rejects_swapped_factor(monkeypatch):
    # C_4 has arc charpoly (x^4 - 1)^2. With one x - 1 swapped for x + 1 the
    # lcm of the orders is still 4, but the Konno-Sato identity fails
    g = cycle_graph(4)
    x4_minus_1 = [-1, 0, 0, 0, 1]
    assert walk.arc_charpoly(g) == CharPoly(tuple(poly_mul(x4_minus_1, x4_minus_1)), 1)
    swapped = poly_mul(poly_mul(x4_minus_1, [1, 1]), poly_mul([1, 1], [1, 0, 1]))
    monkeypatch.setattr(periodicity, "arc_charpoly", lambda h: CharPoly(tuple(swapped), 1))
    with pytest.raises(RuntimeError, match="Konno-Sato"):
        find_period(g)


def test_find_period_matches_psi_route(connected_by_n):
    # the removed vertex-side route: Psi_d factors of 2^n cp(y/2), with 2
    # added when m > n, on all 995 connected graphs with 2 <= n <= 7
    graphs = [g for n in range(2, 8) for g in connected_by_n[n]]
    assert len(graphs) == 995
    for g in graphs:
        want = psi_period(transition_charpoly(g).coeffs, g.m)
        assert find_period(g).period == want, g


def test_two_tail_periods():
    # the period of the two-tailed graph is lcm(4r, k, k + 2r)
    cases = [(k, r) for k in range(3, 26, 2) for r in range(1, (25 - k) // 2 + 1)]
    assert len(cases) == 66
    for k, r in cases:
        assert find_period(two_tail_graph(k, r)).period == math.lcm(4 * r, k, k + 2 * r)


def _passes_filter(g):
    # the filter on the whole kernel run over the rows of L*T, a route apart
    # from the leaf peeling that find_period reads when m <= n
    scale, rows = walk._sparse_transition_rows(g)
    return not integrality_filter(charpoly_from_scaled(charpoly_rows(rows, scale), scale))


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
    return brute_period(oracle_grover_matrix(g.n, g.edges), k_max)


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


def _agrees_with_square_and_multiply(g, k):
    """find_period names k exactly when dense square-and-multiply certifies it."""
    return (find_period(g).period == k) == square_and_multiply_certificate(
        g.n, g.edges, k
    )


@pytest.mark.parametrize(
    "g,p", [(g, p) for _, g, p in PERIOD_TABLE], ids=[x[0] for x in PERIOD_TABLE]
)
def test_certificate_rejects_wrong_periods(g, p):
    for k in (p, p + 1, 2 * p):
        assert _agrees_with_square_and_multiply(g, k), k


def test_certificate_on_all_small_periodic_graphs(connected_by_n):
    # p, p + 1, 2p and every p/q, each verdict equal to that of dense
    # square-and-multiply
    periodic = 0
    for n in range(2, 7):
        for g in connected_by_n[n]:
            report = find_period(g)
            if report.verdict != "periodic":
                continue
            periodic += 1
            p = report.period
            for k in [p, p + 1, 2 * p] + [p // q for q in prime_divisors(p)]:
                assert _agrees_with_square_and_multiply(g, k), (g, k)
    assert periodic > 0


def test_certificate_accepts_nothing_on_aperiodic_graphs(connected_by_n):
    refuted = 0
    for n in range(2, 6):
        for g in connected_by_n[n]:
            if find_period(g).verdict == "periodic":
                continue
            refuted += 1
            for k in range(1, 25):
                assert _agrees_with_square_and_multiply(g, k), (g, k)
    assert refuted > 0


@pytest.mark.parametrize(
    "g,p",
    [
        (cycle_graph(5), 5),
        (cycle_graph(6), 6),
        (path_graph(4), 6),
        (complete_bipartite(2, 3), 4),
        (two_tail_graph(3, 1), 60),
        (two_tail_graph(3, 1), 61),
        (two_tail_graph(3, 2), 168),
        (two_tail_graph(5, 1), 140),
    ],
    ids=["C5", "C6", "P4", "K23", "TT31", "TT31-wrong", "TT32", "TT51"],
)
def test_certificate_matches_square_and_multiply(g, p):
    assert _agrees_with_square_and_multiply(g, p)


@pytest.mark.parametrize(
    "g,p,count",
    [
        (cycle_graph(5), 5, 3),
        (two_tail_graph(3, 1), 60, 4),
        (complete_bipartite(2, 3), 4, 4),
    ],
    ids=["C5", "TT31", "K23"],
)
def test_certificate_rejects_non_orthogonal_rows(monkeypatch, g, p, count):
    # arc_charpoly checks A A^T = L^2 I once, for the period route and the
    # spectral map alike, on the rows expanded from the coin plan that the
    # kernel steps on, and raises when it fails. Each edit changes that
    # plan: arc 0's single term raised by one, or moved to a column outside
    # row 0, or a column outside row 0 joined to the in-arc sum of arc 0's
    # origin (with weight 1 where that vertex has no sum); and, where there
    # is a vertex of degree >= 3, its coin weight 2L/d raised by one
    scale, plan = walk._arc_plan(g)
    assert find_period(g).period == p
    v, k = next(
        (v, k)
        for v, (_, _, outs) in enumerate(plan)
        for k, (e, _, _) in enumerate(outs)
        if e == 0
    )
    w, ins, outs = plan[v]
    _, f, c = outs[k]
    zero = min(set(range(2 * g.m)) - {j for j, _ in walk._plan_rows(plan, 2 * g.m)[0]})
    edits = [
        (v, (w, ins, outs[:k] + [(0, f, c + 1)] + outs[k + 1 :])),
        (v, (w, ins, outs[:k] + [(0, zero, c)] + outs[k + 1 :])),
        (v, (w or 1, ins + [zero], outs)),
    ]
    hubs = [u for u, d in enumerate(g.degree) if d >= 3]
    if hubs:
        hw, hins, houts = plan[hubs[0]]
        edits.append((hubs[0], (hw + 1, hins, houts)))
    assert len(edits) == count
    unit = [1 << 64 * j for j in range(2 * g.m)]  # the packed identity
    rows = walk._coin_product(plan, 2 * g.m, unit)
    for u, vertex in edits:
        bad = plan[:u] + [vertex] + plan[u + 1 :]
        # the edit changes the matrix the kernel multiplies by
        assert walk._coin_product(bad, 2 * g.m, unit) != rows
        monkeypatch.setattr(walk, "_arc_plan", lambda h, bad=bad: (scale, bad))
        # the memo is bypassed, so the edited plan is the one checked
        with pytest.raises(ResidualExceededError, match="A A\\^T"):
            walk.arc_charpoly.__wrapped__(g)
        # and a fresh graph, with an empty memo, builds it too
        with pytest.raises(ResidualExceededError):
            find_period(build_graph(g.n, g.edges))


@pytest.mark.parametrize(
    "k,r,want", [(3, 30, 2520), (61, 1, 15372)], ids=["TT3-30", "TT61-1"]
)
def test_find_period_at_arc_cap(k, r, want):
    # lcm(4r, k, k + 2r), long periods at the arc cap
    assert find_period(two_tail_graph(k, r)).period == want


def test_analyze_builds_arc_charpoly_once(monkeypatch, capsys, count_runs):
    kernel = walk.faddeev_leverrier
    runs_of_kernel = []

    def counting(n, product, bound, steps=None):
        runs_of_kernel.append((n, steps))
        return kernel(n, product, bound, steps)

    monkeypatch.setattr(walk, "faddeev_leverrier", counting)
    # the arc coin plan and its orthogonality check, counted in every
    # module that binds them
    calls = {"_arc_plan": 0, "is_scaled_orthogonal": 0}
    for name in calls:
        for module in (walk, periodicity, cli):
            fn = getattr(module, name, None)
            if fn is not None:

                def counted(*args, _fn=fn, _name=name):
                    calls[_name] += 1
                    return _fn(*args)

                monkeypatch.setattr(module, name, counted)
    runs = count_runs(walk.arc_charpoly)
    g = two_tail_graph(5, 2)
    assert cli.main(["analyze", "--family", "twotail:5,2", "--json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["period"]["period"] == 360
    # one arc run of N/2 = m steps on the N = 2m arcs
    assert runs_of_kernel == [(2 * g.m, g.m)]
    assert calls == {"_arc_plan": 1, "is_scaled_orthogonal": 1}
    assert runs == {"arc_charpoly": 1}


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


def test_matching_sum_values():
    c5 = cycle_graph(5)
    assert matching_sum(c5, 0) == 1
    assert matching_sum(c5, 1) == Fraction(5, 4)
    assert matching_sum(c5, 2) == Fraction(5, 16)
    assert matching_sum(c5, 3) == 0


def assert_matching_sums_match_oracle(g, allowed=None):
    for t in range(g.n // 2 + 2):
        want = fraction_matching_sum(g.n, g.edges, t, allowed)
        got = matching_sum(g, t, allowed)
        assert got == want, (g, t, allowed)


def cycle_rank(n, pool):
    # len(pool) - n + the number of components, by union-find
    root = list(range(n))

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    rank = 0
    for u, v in pool:
        ru, rv = find(u), find(v)
        rank += ru == rv
        root[ru] = rv
    return rank


def test_matching_sums_match_fraction_oracle(connected_by_n, odd_unicyclic_up_to):
    # the matching polynomial, leaf peel and cycle closure, against the
    # subset scan: every odd-unicyclic class with n <= 10 with the pools the
    # identity checks pass, and every connected graph with n <= 7 on each
    # pool with at most one cycle; a pool with more is refused
    unicyclic = odd_unicyclic_up_to(10)
    assert len(unicyclic) == 650
    for g in unicyclic:
        d = classify(g).decomposition
        cycle = set(d.cycle)
        off_cycle = [e for e in g.edges if not cycle & set(e)]
        assert_matching_sums_match_oracle(g)
        assert_matching_sums_match_oracle(g, off_cycle)
        assert_matching_sums_match_oracle(g, g.edges[::2])
        if degree_condition_filter(d, g).kind == "one_degree_four":
            assert_matching_sums_match_oracle(g, branch_frame(g).outer_edges)
    connected = [g for n in range(1, 8) for g in connected_by_n[n]]
    assert len(connected) == 996
    refused = 0
    for g in connected:
        for allowed in (None, g.edges[::2]):
            if cycle_rank(g.n, g.edges if allowed is None else allowed) <= 1:
                assert_matching_sums_match_oracle(g, allowed)
                continue
            refused += 1
            for t in range(g.n // 2 + 2):
                with pytest.raises(InvalidParameterError, match="at most one cycle"):
                    matching_sum(g, t, allowed)
    assert refused == 1109  # of the 1,992 pools


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=trees(max_n=40))
def test_matching_sums_of_trees_are_charpoly_coefficients(g):
    # Sachs / Godsil-Gutman: on a forest, det(xI - T) is the sum over
    # t-matchings of (-1)^t x^(n-2t) prod 1/(deg u deg v), and its odd
    # terms vanish; this reaches trees far past the subset scan
    cp = transition_charpoly(g)
    for t in range(g.n // 2 + 1):
        assert (-1) ** t * matching_sum(g, t) == cp[g.n - 2 * t], t
        if 2 * t + 1 <= g.n:
            assert cp[g.n - 2 * t - 1] == 0
    assert matching_sum(g, g.n // 2 + 1) == 0


def listed_touching_sum(g, core, t):
    # the t-matchings that hold a core edge, listed and weighed in Fractions
    total = Fraction(0)
    for mt in brute_matchings(g.edges, t):
        if any(e in core for e in mt):
            prod = Fraction(1)
            for u, v in mt:
                prod *= Fraction(1, g.degree[u] * g.degree[v])
            total += prod
    return total


def test_touching_sum_matches_listed_matchings():
    # the sum comes back as its numerator over L^(2t)
    graphs = [two_tail_graph(k, r) for k in (3, 5) for r in range(1, 6)]
    for g in enumerate_odd_unicyclic(9):
        if degree_condition_filter(classify(g).decomposition, g).kind == (
            "one_degree_four"
        ):
            graphs.append(g)
    assert len(graphs) == 10 + 33
    for g in graphs:
        core = branch_frame(g).core_edges
        scale = math.lcm(*g.degree)
        for t in range(g.n // 2 + 2):
            got = periodicity._touching_sum(g, core, t)
            assert isinstance(got, int)
            want = listed_touching_sum(g, set(core), t)
            assert Fraction(got, scale ** (2 * t)) == want, (g, t)


def test_matching_poly_is_cached_per_pool(count_runs):
    # one run per pool, however many matching sizes read it
    g = two_tail_graph(5, 4)
    runs = count_runs(periodicity._matching_poly)
    for t in range(g.n // 2 + 1):
        matching_sum(g, t)
        matching_sum(g, t, reversed(branch_frame(g).outer_edges))
    assert runs == {"_matching_poly": 2}


def test_matching_sum_rejects_negative_size():
    with pytest.raises(InvalidParameterError):
        matching_sum(cycle_graph(3), -1)


def fraction_paired_sum(g, frame, i, upto):
    # S(i, upto) by the subset scan, in Fractions
    want = Fraction(0)
    for chain in (frame.branch_a, frame.branch_b):
        verts = (frame.hub,) + chain
        edges = [tuple(sorted(verts[j : j + 2])) for j in range(len(chain))]
        drop = set(edges[1:upto])
        allowed = [e for e in frame.outer_edges if e not in drop]
        want += fraction_matching_sum(g.n, g.edges, i, allowed)
    return want


def test_paired_sum_matches_fraction_oracle():
    # S(i, upto) on every degree-4 split with n <= 8 and the two-tail grid,
    # past the end of the shorter branch included; the sum comes back as
    # its numerator over L^(2i)
    graphs = [two_tail_graph(k, r) for k in (3, 5) for r in range(1, 6)]
    for g in enumerate_odd_unicyclic(8):
        d = classify(g).decomposition
        if degree_condition_filter(d, g).kind == "one_degree_four":
            graphs.append(g)
    assert len(graphs) > 20
    for g in graphs:
        frame = branch_frame(g)
        chains = (frame.branch_a, frame.branch_b)
        scale = math.lcm(*g.degree)
        for upto in range(1, max(map(len, chains)) + 2):
            for i in range(g.n // 2 + 1):
                got = periodicity._paired_sum(g, frame, i, upto)
                assert isinstance(got, int)
                want = fraction_paired_sum(g, frame, i, upto)
                assert Fraction(got, scale ** (2 * i)) == want


def test_matching_sum_makes_one_fraction(monkeypatch):
    # matching_sum imports Fraction when it is called, so the constructor
    # is counted on the class itself, and only around the call
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    g = two_tail_graph(3, 2)
    for t in range(4):
        want = fraction_matching_sum(g.n, g.edges, t)
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", counting)
            got = matching_sum(g, t)
        assert len(made) == t + 1
        assert got == want


def fraction_cycle_identity(g, d, t, cp):
    # cycle_matching_identity_check as a Fraction evaluation
    weight = Fraction(1)
    for v in d.cycle:
        weight /= g.degree[v]
    off_cycle = [e for e in g.edges if not set(d.cycle) & set(e)]
    rhs = (-1) ** (t + 1) * 2 * weight * fraction_matching_sum(g.n, g.edges, t, off_cycle)
    return cp[g.n - d.girth - 2 * t] == rhs


def fraction_tail_recurrence(g, frame, i, r):
    if i == 0:
        return fraction_paired_sum(g, frame, 0, r) == 2
    rhs = 2 * fraction_matching_sum(g.n, g.edges, i, frame.outer_edges)
    for j in range(2, r + 1):
        rhs -= Fraction(1, 4) * fraction_paired_sum(g, frame, i - 1, j + 1)
    return fraction_paired_sum(g, frame, i, r) == rhs


def fraction_matching_split(g, frame, t, cp):
    outer = fraction_matching_sum(g.n, g.edges, t, frame.outer_edges)
    touching = listed_touching_sum(g, set(frame.core_edges), t)
    return outer == (-1) ** t * cp[g.n - 2 * t] - touching


def fraction_integrality(g, frame):
    out = []
    for i in range(1, lockstep_chain_length(frame) + 1):
        outer = Fraction(4) ** i * fraction_matching_sum(g.n, g.edges, i, frame.outer_edges)
        paired = Fraction(2) ** (2 * i - 3) * fraction_paired_sum(g, frame, i - 1, 2)
        out.append((i, outer, paired))
    return out


def assert_identities_match_fractions(g):
    """The four identity checks on g against their Fraction evaluations.

    Returns the number of instances compared, all of which must hold.
    """
    d = classify(g).decomposition
    cp = transition_charpoly(g)
    count = 0
    for t in range((g.n - d.girth) // 2 + 1):
        got = cycle_matching_identity_check(g, d, t)
        assert got is fraction_cycle_identity(g, d, t, cp) is True, (g, t)
        count += 1
    if degree_condition_filter(d, g).kind != "one_degree_four":
        return count
    frame = branch_frame(g)
    for i in range(g.n // 2 + 1):
        for r in range(1, max(lockstep_chain_length(frame), 1) + 1):
            got = tail_recurrence_check(g, i, r)
            assert got is fraction_tail_recurrence(g, frame, i, r) is True, (g, i, r)
            count += 1
    for t in range(g.n // 2 + 1):
        got = matching_split_check(g, t)
        assert got is fraction_matching_split(g, frame, t, cp) is True, (g, t)
        count += 1
    instances = branch_integrality_instances(g)
    assert [tuple(inst) for inst in instances] == fraction_integrality(g, frame), g
    for inst in instances:
        assert inst.holds
        assert type(inst.scaled_outer) is type(inst.scaled_paired) is int
        count += 1
    return count


def test_identities_match_fraction_evaluation():
    # every odd-unicyclic class with n <= 8, then the two-tail grid
    unicyclic = enumerate_odd_unicyclic(8)
    assert sum(map(assert_identities_match_fractions, unicyclic)) == 358
    grid = [two_tail_graph(k, r) for k in (3, 5) for r in range(1, 6)]
    assert sum(map(assert_identities_match_fractions, grid)) == 252


def test_identities_fail_on_a_perturbed_coefficient(monkeypatch):
    # each charpoly coefficient of twotail:3,2 in turn is moved by 1/D; the
    # cycle and split checks that read it fail, as the Fraction evaluation
    # does, and the others still hold
    g = two_tail_graph(3, 2)
    d = classify(g).decomposition
    frame = branch_frame(g)
    cp = transition_charpoly(g)
    read = set()
    for j in range(g.n + 1):
        ints = list(cp.integer_coeffs)
        ints[j] += 1
        bad = CharPoly(tuple(ints), cp.denominator)
        monkeypatch.setattr(periodicity, "transition_charpoly", lambda h: bad)
        for t in range((g.n - d.girth) // 2 + 1):
            got = cycle_matching_identity_check(g, d, t)
            assert got is fraction_cycle_identity(g, d, t, bad), (j, t)
            assert got is (j != g.n - d.girth - 2 * t), (j, t)
            if not got:
                read.add(j)
        for t in range(g.n // 2 + 1):
            got = matching_split_check(g, t)
            assert got is fraction_matching_split(g, frame, t, bad), (j, t)
            assert got is (j != g.n - 2 * t), (j, t)
            if not got:
                read.add(j)
    assert read == {0, 1, 2, 3, 4, 5, 7}
    # a paired sum moved by 1/L^0 makes 2^-1 S(0, 2) = 3/2, which fails
    paired = periodicity._paired_sum
    monkeypatch.setattr(
        periodicity, "_paired_sum", lambda *args: paired(*args) + 1
    )
    (inst,) = branch_integrality_instances(g)
    assert inst == (1, 4, Fraction(3, 2)) and not inst.holds


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
    assert lockstep_chain_length(frame) == 1


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


def _degree_four_frames():
    """Every one-degree-four class with n <= 10, then the two-tail grid."""
    graphs = [
        g
        for g in enumerate_odd_unicyclic(10)
        if degree_condition_filter(classify(g).decomposition, g).kind
        == "one_degree_four"
    ]
    graphs += [two_tail_graph(k, r) for k in (3, 5) for r in range(1, 6)]
    return [(g, branch_frame(g)) for g in graphs]


def test_lockstep_chain_length_matches_walk():
    # each branch ends at its first vertex of degree other than 2, so the
    # lengths give what walking the degrees gives
    frames = _degree_four_frames()
    assert len(frames) == 87
    for g, frame in frames:
        want = walked_lockstep_length(frame.branch_a, frame.branch_b, g.degree)
        assert lockstep_chain_length(frame) == want, g


def test_tail_guard_matches_walk():
    # the guard raises exactly when walking the degrees finds the premise
    # false, on 87 frames and exclusion depths 2..7
    cases = 0
    for g, frame in _degree_four_frames():
        for r in range(2, 8):
            cases += 1
            fails = walked_tail_guard_fails(frame.branch_a, frame.branch_b, g.degree, r)
            if fails:
                with pytest.raises(ShapeMismatchError):
                    tail_recurrence_check(g, 1, r)
            else:
                assert tail_recurrence_check(g, 1, r), (g, r)
    assert cases == 522


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
