"""The structural charpoly routes against the full Faddeev-LeVerrier run.

transition_charpoly peels trees and closes the cycle when m <= n, and
arc_charpoly runs half of the kernel's steps on the coin factorization
and fills in the rest from det U. Each is compared here with the kernel
run on all n steps of the sparse rows, and the closed forms of the
two-tail family pin both routes further.
"""

import pytest
from hypothesis import given, settings

from groverwalk import walk
from groverwalk.exceptions import ResidualExceededError
from groverwalk.families import (
    complete_bipartite,
    iter_connected,
    make_family,
    parse_family,
    two_tail_graph,
)
from groverwalk.linalg import (
    charpoly_from_scaled,
    charpoly_rows,
    faddeev_leverrier,
    is_scaled_orthogonal,
)

from oracles import bareiss_det, oracle_grover_matrix, poly_mul
from strategies import trees, unicyclic_graphs


def kernel_transition(g):
    scale, rows = walk._sparse_transition_rows(g)
    return charpoly_from_scaled(charpoly_rows(rows, scale), scale)


def kernel_arc(g):
    scale, plan = walk._arc_plan(g)
    rows = walk._plan_rows(plan, 2 * g.m)
    assert is_scaled_orthogonal(scale, rows)
    return charpoly_from_scaled(charpoly_rows(rows, scale), scale)


@pytest.fixture
def no_kernel(monkeypatch):
    def refuse(*args):
        raise AssertionError("kernel called")

    monkeypatch.setattr(walk, "charpoly_rows", refuse)
    monkeypatch.setattr(walk, "faddeev_leverrier", refuse)


def structural_transition(g):
    # the memo is bypassed, so the route runs under the fixture's refusal
    return walk.transition_charpoly.__wrapped__(g)


@pytest.fixture
def kernel_steps(monkeypatch):
    # (size, steps) of every kernel run: the transition rows through
    # charpoly_rows, the arc coin plan through faddeev_leverrier
    steps = []

    def recording(rows, bound, count=None):
        steps.append((len(rows), count))
        return charpoly_rows(rows, bound, count)

    def recording_plan(n, product, bound, count=None):
        steps.append((n, count))
        return faddeev_leverrier(n, product, bound, count)

    monkeypatch.setattr(walk, "charpoly_rows", recording)
    monkeypatch.setattr(walk, "faddeev_leverrier", recording_plan)
    return steps


def half_run_arc(g, steps):
    steps.clear()
    cp = walk.arc_charpoly.__wrapped__(g)
    assert steps == [(2 * g.m, g.m)], g
    return cp


# ---------------------------------------------------------------------------
# cp_T: leaf peeling and the cycle closure.


def test_transition_route_on_small_graphs(no_kernel, connected_by_n):
    graphs = [g for n in range(2, 8) for g in connected_by_n[n] if g.m <= g.n]
    # 24 trees and 54 unicyclic graphs, even cycles included
    assert len(graphs) == 78
    for g in graphs:
        assert structural_transition(g) == kernel_transition(g), g


def test_transition_route_on_odd_unicyclic_classes(no_kernel, odd_unicyclic_up_to):
    classes = odd_unicyclic_up_to(12)
    assert len(classes) == 4795
    for g in classes:
        assert structural_transition(g) == kernel_transition(g), g


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=trees())
def test_transition_route_property_on_trees(g):
    assert structural_transition(g) == kernel_transition(g)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(g=unicyclic_graphs())
def test_transition_route_property_on_unicyclic_graphs(g):
    assert structural_transition(g) == kernel_transition(g)


def test_transition_route_keeps_kernel_past_one_cycle(kernel_steps):
    # m > n: the kernel runs all n steps on the rows of L*T
    g = complete_bipartite(2, 3)
    assert walk.transition_charpoly.__wrapped__(g) == kernel_transition(g)
    assert kernel_steps == [(5, None)]


# ---------------------------------------------------------------------------
# cp_U: half of Faddeev-LeVerrier and the det U lemma.


def test_arc_route_on_small_graphs(kernel_steps):
    graphs = [g for g in iter_connected(6) if g.n > 1]
    assert len(graphs) == 142
    for g in graphs:
        assert half_run_arc(g, kernel_steps) == kernel_arc(g), g


def test_arc_route_on_complete_bipartite(kernel_steps):
    for a in range(1, 6):
        for b in range(1, 6):
            g = complete_bipartite(a, b)
            assert half_run_arc(g, kernel_steps) == kernel_arc(g), (a, b)


@pytest.mark.parametrize("spec", ["path:65", "twotail:3,30", "twotail:61,1"])
def test_arc_route_at_arc_cap(spec, kernel_steps):
    g = make_family(parse_family(spec))
    assert 2 * g.m >= 126
    assert half_run_arc(g, kernel_steps) == kernel_arc(g)


def test_det_u_sign(connected_by_n):
    # det S = (-1)^m for the arc reversal, and each coin block (2/d)J - I
    # has determinant (-1)^(d-1)
    graphs = 0
    for n in range(2, 6):
        for g in connected_by_n[n]:
            det = bareiss_det(oracle_grover_matrix(g.n, g.edges))
            assert det == (-1) ** (g.m + g.n), g
            graphs += 1
    assert graphs == 30


def test_arc_route_rejects_nonzero_middle_when_det_is_minus_one(monkeypatch):
    # path:3 has m + n = 5, so det U = -1 and q_(N/2) must vanish
    g = make_family(parse_family("path:3"))

    def off_middle(n, product, bound, steps=None):
        q = faddeev_leverrier(n, product, bound, steps)
        q[n // 2] += 1
        return q

    monkeypatch.setattr(walk, "faddeev_leverrier", off_middle)
    with pytest.raises(ResidualExceededError, match="middle"):
        walk.arc_charpoly.__wrapped__(g)


# ---------------------------------------------------------------------------
# The two-tail closed forms.


def _minus(a, b):
    size = max(len(a), len(b))
    a, b = a + [0] * (size - len(a)), b + [0] * (size - len(b))
    return [x - y for x, y in zip(a, b)]


def _first_kind_chebyshev(top: int) -> list:
    t = [[1], [0, 1]]
    for j in range(1, top):
        t.append(_minus(poly_mul([0, 2], t[j]), t[j - 1]))
    return t


def _integers(coeffs) -> list:
    coeffs = list(coeffs)
    assert all(c.denominator == 1 for c in coeffs)
    return [int(c) for c in coeffs]


@pytest.mark.parametrize("k", [3, 5, 7, 9, 11])
def test_two_tail_closed_forms(k):
    cheb = _first_kind_chebyshev(k + 8)
    for r in range(1, 9):
        g = two_tail_graph(k, r)
        n = g.n
        assert n == g.m == k + 2 * r
        # arc side: (x^k - 1)(x^(k+2r) - 1)(x^(2r) + 1)
        want_u = poly_mul(
            poly_mul([-1] + [0] * (k - 1) + [1], [-1] + [0] * (k + 2 * r - 1) + [1]),
            [1] + [0] * (2 * r - 1) + [1],
        )
        assert _integers(walk.arc_charpoly(g).coeffs) == want_u, (k, r)
        # transition side: 2^(n-2) cp_T = T_r (T_(k+r) - T_r)
        want_t = poly_mul(cheb[r], _minus(cheb[k + r], cheb[r]))
        scaled = _integers(c * 2 ** (n - 2) for c in walk.transition_charpoly(g).coeffs)
        assert scaled == want_t, (k, r)
