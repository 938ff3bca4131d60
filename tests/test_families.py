import warnings

import pytest

from groverwalk.exceptions import CapExceededError, InvalidParameterError
from groverwalk.families import (
    FamilySpec,
    canonical_form,
    complete_bipartite,
    cycle_graph,
    enumerate_connected,
    enumerate_odd_unicyclic,
    family_arcs,
    make_family,
    parse_family,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import classify

from oracles import brute_connected_classes, iso_key


def test_cycle_graph():
    g = cycle_graph(3)
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    assert all(d == 2 for d in cycle_graph(7).degree)


def test_path_graph():
    g = path_graph(4)
    assert g.n == 4
    assert g.m == 3
    assert sorted(g.degree) == [1, 1, 2, 2]


def test_complete_bipartite():
    g = complete_bipartite(2, 3)
    assert g.n == 5
    assert g.m == 6
    assert classify(g).kind == "bipartite"


def test_two_tail_shape():
    for k in (3, 5, 7):
        for r in (1, 2, 3):
            g = two_tail_graph(k, r)
            assert g.n == k + 2 * r
            assert g.m == k + 2 * r
            degs = sorted(g.degree)
            assert degs.count(1) == 2
            assert degs.count(4) == 1
            assert degs.count(2) == g.n - 3
            assert g.degree[0] == 4  # the shared cycle vertex


def test_two_tail_smallest():
    g = two_tail_graph(3, 1)
    assert g.n == 5
    assert classify(g).kind == "odd_unicycle"


def test_family_parsing():
    assert parse_family("cycle:5") == FamilySpec("cycle", (5,))
    assert parse_family("twotail:3,2") == FamilySpec("twotail", (3, 2))
    assert make_family(parse_family("kbipartite:2,3")) == complete_bipartite(2, 3)
    # the kind is only checked when the graph is built
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("nosuch:3"))
    with pytest.raises(InvalidParameterError):
        parse_family("cycle:x")
    with pytest.raises(InvalidParameterError):
        parse_family("cycle")


def test_family_parameter_errors():
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("cycle:2"))
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("twotail:4,2"))  # k must be odd
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("twotail:3,0"))
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("kbipartite:0,1"))
    with pytest.raises(InvalidParameterError):
        make_family(parse_family("path:1"))


def test_family_arcs_closed_form():
    good = ["cycle:3", "cycle:10", "path:2", "path:12", "kbipartite:1,1"]
    good += ["kbipartite:4,5", "twotail:3,1", "twotail:9,15"]
    for text in good:
        spec = parse_family(text)
        assert family_arcs(spec) == 2 * make_family(spec).m
    assert family_arcs(parse_family("twotail:3,1000000")) == 4000006
    bad = ["cycle:2", "twotail:4,2", "twotail:3,0", "kbipartite:0,1", "path:1"]
    for text in bad + ["nosuch:3", "cycle:3,4"]:
        with pytest.raises(InvalidParameterError):
            family_arcs(parse_family(text))


def test_canonical_form_relabel_invariance():
    perms = [
        [1, 0, 2, 3, 4],
        [4, 3, 2, 1, 0],
        [2, 4, 0, 3, 1],
    ]
    for g in enumerate_connected(5):
        want = canonical_form(g)
        for perm in perms:
            assert canonical_form(g.relabel(perm)) == want


def test_canonical_form_separates_nonisomorphic():
    forms = [canonical_form(g) for g in enumerate_connected(6)]
    assert len(forms) == len(set(forms))


def test_enumerate_connected_counts(connected_by_n):
    assert [len(connected_by_n[n]) for n in range(1, 7)] == [1, 1, 2, 6, 21, 112]


def test_enumerate_connected_against_brute_force():
    # the brute force is feasible up to n=5
    for n in range(1, 6):
        got = {iso_key(g.n, g.edges) for g in enumerate_connected(n)}
        assert got == brute_connected_classes(n)


def test_enumerate_connected_pairwise_noniso():
    for n in range(4, 8):
        forms = [canonical_form(g) for g in enumerate_connected(n, cap=9)]
        assert len(forms) == len(set(forms))


def test_enumerate_odd_unicyclic_smallest():
    assert [g.n for g in enumerate_odd_unicyclic(3)] == [3]
    got = enumerate_odd_unicyclic(4)
    assert len(got) == 2
    assert got[0] == cycle_graph(3)
    assert sorted(got[1].degree) == [1, 2, 2, 3]  # the paw


def test_enumerate_odd_unicyclic_classification():
    for g in enumerate_odd_unicyclic(7):
        assert g.n == g.m
        assert classify(g).kind == "odd_unicycle"


def test_enumerate_odd_unicyclic_subset_of_connected(connected_by_n):
    for n in range(3, 7):
        whole = {
            canonical_form(g)
            for g in connected_by_n[n]
            if classify(g).kind == "odd_unicycle"
        }
        part = {
            canonical_form(g) for g in enumerate_odd_unicyclic(n) if g.n == n
        }
        assert part == whole


def test_enumeration_caps():
    with pytest.raises(CapExceededError):
        enumerate_connected(10)
    with pytest.raises(CapExceededError):
        enumerate_odd_unicyclic(13, cap=13)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        # the warning comes from the cap check, before any enumeration
        enumerate_odd_unicyclic(3, cap=10)
        assert any(issubclass(w.category, RuntimeWarning) for w in caught)
