"""Acceptance checks, one test per shipping criterion.

Each test prints a single PASS/FAIL line with the measured numbers, so a
verbose run of this module doubles as the sign-off report. Tolerances and
time bounds are stated inline; everything not marked with a tolerance is
exact rational arithmetic.
"""

import itertools
import math
import random
import time
from fractions import Fraction

import pytest

from groverwalk.census import run_census
from groverwalk.families import (
    complete_bipartite,
    cycle_graph,
    enumerate_odd_unicyclic,
    iter_connected,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import classify, edge_weight
from groverwalk.linalg import charpoly_from_scaled, charpoly_rows
from groverwalk.periodicity import (
    branch_integrality_instances,
    chebyshev_eigen_check,
    cycle_matching_identity_check,
    find_period,
    matching_split_check,
    odd_period_query,
    tail_recurrence_check,
)
from groverwalk.walk import (
    _arc_plan,
    _plan_rows,
    _sparse_transition_rows,
    spectral_map_check,
    transition_charpoly,
)

from oracles import char_value, int_mat_mul


def _line(ok: bool, label: str, detail: str = "") -> bool:
    tag = "PASS" if ok else "FAIL"
    suffix = " (%s)" % detail if detail else ""
    print("\n%s acceptance %s%s" % (tag, label, suffix))
    return ok


@pytest.fixture(scope="module")
def desk_census():
    started = time.perf_counter()
    result = run_census(9)
    return result, time.perf_counter() - started


def test_01_period_table():
    started = time.perf_counter()
    targets = [(path_graph(2), 2), (cycle_graph(3), 3), (cycle_graph(5), 5)]
    for m in range(1, 5):
        for n in range(m, 5):
            # K_{1,1} coincides with the single-edge path, whose period is 2
            targets.append((complete_bipartite(m, n), 2 if (m, n) == (1, 1) else 4))
    bad = []
    for g, want in targets:
        rep = find_period(g)
        if rep.verdict != "periodic" or rep.period != want:
            bad.append((g.edges, rep.verdict, rep.period, want))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 5.0
    assert _line(
        ok, "01 period table", "%d graphs, %.2fs < 5s" % (len(targets), elapsed)
    ), bad


def test_02_odd_cycle_periods():
    started = time.perf_counter()
    bad = []
    for k in (3, 5, 7, 9, 11):
        rep = find_period(cycle_graph(k))
        if rep.verdict != "periodic" or rep.period != k:
            bad.append((k, rep.verdict, rep.period))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 30.0
    assert _line(ok, "02 odd cycle periods", "k in 3..11, %.2fs < 30s" % elapsed), bad


def test_03_census_main_result(desk_census):
    result, elapsed = desk_census
    odd = result.odd_periodic()
    odd_ok = (
        [r.graph.n for r in odd] == [3, 5, 7, 9]
        and all(r.is_cycle for r in odd)
        and all(r.period_report.period == r.graph.n for r in odd)
    )
    # every verdict is exact, a period or a refutation by the filter, and
    # no record but a cycle has an odd period
    others_ok = all(
        r.period_report.verdict in ("periodic", "refuted_by_integrality")
        and (r.is_cycle or not r.odd_periodic)
        for r in result.records
    )
    ok = odd_ok and others_ok and elapsed < 600.0
    assert _line(
        ok,
        "03 census n<=9: odd-periodic = odd cycles only",
        "%d classes, %.1fs < 600s" % (len(result.records), elapsed),
    )


def test_04_two_tails_never_odd_periodic():
    # tail length here counts edges, one less than the vertex count that
    # includes the shared hub; periods must be even multiples of 4*(edges)
    bad = []
    for k, r in itertools.product((3, 5), (2, 3, 4)):
        g = two_tail_graph(k, r - 1)
        if odd_period_query(g):
            bad.append((k, r, "odd-periodic"))
            continue
        rep = find_period(g)
        if rep.verdict == "periodic" and rep.period % (4 * (r - 1)) != 0:
            bad.append((k, r, rep.period))
    assert _line(
        not bad,
        "04 two-tail graphs: no odd period, 4(r-1) divides period",
        "k in {3,5}, r in {2,3,4}",
    ), bad


def test_05_charpoly_oracle_and_edge_sum(connected_by_n):
    rng = random.Random(987654321)
    points = [Fraction(0), Fraction(1), Fraction(-1), Fraction(2, 3), Fraction(-5)]
    bad = 0
    for _ in range(200):
        m = [
            [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4)]
            for _ in range(4)
        ]
        # B = L*M with L the lcm of the denominators, bounded by its row sums
        scale = math.lcm(*(x.denominator for row in m for x in row))
        b = [[(j, int(x * scale)) for j, x in enumerate(row) if x] for row in m]
        bound = max(sum(abs(v) for _, v in row) for row in b)
        cp = charpoly_from_scaled(charpoly_rows(b, bound), scale)
        if any(cp.eval_exact(x) != char_value(m, x) for x in points):
            bad += 1

    graphs = 0
    for n in range(2, 8):
        for g in connected_by_n[n]:
            graphs += 1
            cp = transition_charpoly(g)
            total = sum((edge_weight(g, e) for e in g.edges), Fraction(0))
            if cp[g.n - 2] != -total:
                bad += 1
    ok = bad == 0
    assert _line(
        ok,
        "05 exact charpoly vs determinant oracle; x^(n-2) coefficient = -edge weight sum",
        "200 random matrices, %d connected graphs n<=7" % graphs,
    )


def test_06_matching_identity_suite():
    started = time.perf_counter()
    bad = []
    count = 0
    for g in enumerate_odd_unicyclic(8):
        d = classify(g).decomposition
        for t in range((g.n - d.girth) // 2 + 1):
            count += 1
            if not cycle_matching_identity_check(g, d, t):
                bad.append(("cycle-matching", g.edges, t))
    for k, r in itertools.product((3, 5), range(1, 6)):
        g = two_tail_graph(k, r)
        for i in range(g.n // 2 + 1):
            for depth in range(1, r):
                count += 1
                if not tail_recurrence_check(g, i, depth):
                    bad.append(("tail-recurrence", k, r, i, depth))
        for t in range(g.n // 2 + 1):
            count += 1
            if not matching_split_check(g, t):
                bad.append(("matching-split", k, r, t))
    elapsed = time.perf_counter() - started
    ok = not bad and elapsed < 120.0
    assert _line(
        ok,
        "06 matching identities exact",
        "%d instances, %.2fs < 120s" % (count, elapsed),
    ), bad


def test_07_scaled_matching_sums_integral():
    bad = []
    count = 0
    for k, r in itertools.product((3, 5), range(1, 6)):
        for inst in branch_integrality_instances(two_tail_graph(k, r)):
            count += 1
            if not inst.holds:
                bad.append((k, r, inst))
    assert _line(
        not bad,
        "07 scaled branch matching sums are integers",
        "%d instances" % count,
    ), bad


def test_08_spectral_map_small_graphs():
    bad = []
    worst = 0.0
    count = 0
    for g in iter_connected(6):
        if g.n == 1:
            continue
        rep = spectral_map_check(g)
        count += 1
        worst = max(worst, rep.max_residual)
        absorbed = (
            rep.plus_one_extra >= 0
            and rep.minus_one_extra >= 0
            and rep.unexplained == rep.plus_one_extra + rep.minus_one_extra
        )
        if not rep.matched or not absorbed:
            bad.append((g.n, g.edges))
    ok = not bad
    assert _line(
        ok,
        "08 arc spectrum matches mapped vertex spectrum, leftovers at +-1",
        "%d graphs n<=6, worst residual %.3e <= 1e-8" % (count, worst),
    ), bad


def test_09_chebyshev_tail_vectors():
    worst = 0.0
    for k, r in itertools.product((3, 5, 7), range(2, 7)):
        report = chebyshev_eigen_check(k, r)
        worst = max(worst, report.max_residual)
    ok = worst <= 1e-10
    assert _line(
        ok,
        "09 closed-form tail eigenvectors",
        "k in {3,5,7}, r in 2..6, worst residual %.3e <= 1e-10" % worst,
    )


def _corpus():
    seen = set()
    graphs = [path_graph(2), cycle_graph(3), cycle_graph(5)]
    graphs += [
        complete_bipartite(m, n) for m in range(1, 5) for n in range(m, 5)
    ]
    graphs += [cycle_graph(k) for k in (7, 9, 11)]
    graphs += [
        two_tail_graph(k, m) for k in (3, 5) for m in range(1, 5)
    ]
    graphs += [g for g in iter_connected(5) if g.n > 1]
    for g in graphs:
        key = (g.n, g.edges)
        if key not in seen:
            seen.add(key)
            yield g


def test_10_structural_exactness():
    count = 0
    bad = []
    for g in _corpus():
        count += 1
        # the rows arc_charpoly and transition_charpoly read: A = L*U must
        # give A A^T = L^2 I, and every row of A and of L*T must sum to L
        scale, plan = _arc_plan(g)
        arc_rows = _plan_rows(plan, 2 * g.m)
        _, transition_rows = _sparse_transition_rows(g)
        a = [[0] * len(arc_rows) for _ in arc_rows]
        for i, row in enumerate(arc_rows):
            for j, v in row:
                a[i][j] = v
        size = len(a)
        square = [[scale * scale * (i == j) for j in range(size)] for i in range(size)]
        if int_mat_mul(a, [list(col) for col in zip(*a)]) != square:
            bad.append((g.edges, "not orthogonal"))
        if any(sum(v for _, v in row) != scale for row in arc_rows):
            bad.append((g.edges, "arc row sums"))
        if any(sum(v for _, v in row) != scale for row in transition_rows):
            bad.append((g.edges, "transition row sums"))
    assert _line(
        not bad,
        "10 exact orthogonality and unit row sums",
        "%d corpus graphs" % count,
    ), bad
