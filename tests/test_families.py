import functools
import hashlib
import warnings
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk.exceptions import CapExceededError, InvalidParameterError
from groverwalk import families
from groverwalk.families import (
    CONNECTED_CAP,
    HARD_CAP,
    FamilySpec,
    canonical_form,
    complete_bipartite,
    cycle_graph,
    enumerate_connected,
    enumerate_odd_unicyclic,
    family_arcs,
    iter_connected,
    make_family,
    parse_family,
    path_graph,
    two_tail_graph,
)
from groverwalk.census import analyze_graph, run_census
from groverwalk.graphs import build_graph, classify

from strategies import twin_rich_graphs
from oracles import (
    brute_connected_classes,
    degree_sorted_min_encoding,
    iso_key,
    pendant_extension_classes,
)

# odd-unicyclic classes on exactly n vertices, n = 3..12
ODD_UNICYCLIC_PER_N = [1, 1, 4, 8, 23, 55, 155, 403, 1116, 3029]


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
    # 60 characters at most, and errors quote a bounded part of the text
    assert parse_family("cycle:" + "0" * 53 + "5") == FamilySpec("cycle", (5,))
    with pytest.raises(InvalidParameterError, match="longer than 60 characters"):
        parse_family("cycle:" + "0" * 54 + "5")
    for text in ("\x00" * 60, "\x00" * 59 + ":1"):
        with pytest.raises(InvalidParameterError) as err:
            make_family(parse_family(text))
        assert len(str(err.value)) < 120


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


def test_canonical_form_is_the_least_degree_sorted_encoding():
    # the pruned search against every degree-sorted order, on every
    # connected graph with n <= 6 and a relabelled copy of each
    for n in range(1, 7):
        for g in enumerate_connected(n):
            want = degree_sorted_min_encoding(g.n, g.edges)
            assert canonical_form(g) == want, g
            assert canonical_form(g.relabel(list(range(n))[::-1])) == want


def _candidates(n: int):
    """Every adjacency the enumerator can try on n vertices: each class on
    n - 1 vertices with a new vertex joined to each non-empty subset."""
    new = n - 1
    for h in enumerate_connected(new):
        base = [sum(1 << v for v in nbrs) for nbrs in h.adj]
        for mask in range(1, 1 << new):
            adjbits = [ab | ((mask >> v) & 1) << new for v, ab in enumerate(base)]
            yield adjbits + [mask]


def test_canonical_search_on_every_candidate():
    # the twin-pruned search against every degree-sorted order, on the
    # labelled candidates of n <= 6, not only on the class representatives
    tried = 0
    for n in range(2, 7):
        for adjbits in _candidates(n):
            edges = [(u, v) for v in range(n) for u in range(v) if adjbits[v] >> u & 1]
            assert families._canonical_bits(adjbits) == degree_sorted_min_encoding(
                n, edges
            ), edges
            tried += 1
    assert tried == 759


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(twin_rich_graphs(max_n=7))
def test_canonical_form_on_twin_rich_graphs(g):
    assert canonical_form(g) == degree_sorted_min_encoding(g.n, g.edges)


def test_canonical_form_separates_nonisomorphic():
    forms = [canonical_form(g) for g in enumerate_connected(6)]
    assert len(forms) == len(set(forms))


def test_enumerate_connected_counts(connected_by_n):
    # OEIS A001349
    got = [len(connected_by_n[n]) for n in range(1, 8)]
    assert got == [1, 1, 2, 6, 21, 112, 853]


def test_enumerate_connected_against_brute_force():
    # the brute force is feasible up to n=5
    for n in range(1, 6):
        got = {iso_key(g.n, g.edges) for g in enumerate_connected(n)}
        assert got == brute_connected_classes(n)


# sha256 of repr(tuple of each graph's edges), in the order returned,
# for n = 1..7, as the enumeration that built a Graph per candidate gave it
CONNECTED_EDGE_DIGESTS = {
    1: "b18a48f02566e6150fce7a3ece72478f44afc0341489d43f01f25f0351984bab",
    2: "f5e5441ac66855177e23ba6802804d05ca4f3a9487456a8a77d2f1369f176ae5",
    3: "c711855e1881f040cbcf003edcc5d9aca42dd6bab28d3207e17f48e0993c076d",
    4: "9142b37c22c4bf8f1d3d2093a7231087b1b3480bf42ab1c48dadde7b51107ad7",
    5: "3d93dfb5d2874519796e30ebaeaa8c12c8fc743bfcc926dd6eba207de493ddda",
    6: "bb901cbd8887966dc94a5b51d08b270a9daf9d21b935013e108a091d54c6319d",
    7: "e7b6aaa27ab2c0799844c2244616c9ec55d858c0bf506166fdb7d0edd121cb0f",
}


def test_enumerate_connected_order_is_pinned(connected_by_n):
    for n, digest in CONNECTED_EDGE_DIGESTS.items():
        edges = repr([g.edges for g in connected_by_n[n]]).encode()
        assert hashlib.sha256(edges).hexdigest() == digest, n


def test_iter_connected_streams_the_pinned_levels():
    # the stream is the pinned levels n = 1..7 in turn, and
    # enumerate_connected(n) is its level n
    got = [g.edges for g in iter_connected(7)]
    start = 0
    for n, digest in CONNECTED_EDGE_DIGESTS.items():
        level = [g.edges for g in enumerate_connected(n)]
        assert got[start : start + len(level)] == level, n
        assert hashlib.sha256(repr(level).encode()).hexdigest() == digest, n
        start += len(level)
    assert start == len(got) == 996


def test_enumerate_connected_builds_one_graph_per_class(monkeypatch, connected_by_n):
    # each level is built once, from the one below it, and kept as bitmasks;
    # the stream builds a Graph only to hand a class out, and
    # enumerate_connected, its last level, builds the same
    built = Counter()

    def counting(n, edges):
        built[n] += 1
        return build_graph(n, edges)

    monkeypatch.setattr(families, "build_graph", counting)
    want = {n: len(connected_by_n[n]) for n in range(1, 7)}
    for _ in iter_connected(6):
        pass
    assert built == want
    assert sum(built.values()) == 143
    built.clear()
    assert len(enumerate_connected(6)) == 112
    assert built == want


def test_enumerate_connected_skips_twin_swapped_joins(monkeypatch):
    # a join mask is tried only when it holds each chosen vertex's lower
    # twins; joining every subset, as before, made 759 searches. Each
    # search is handed the candidate's twins, derived from its parent's,
    # and they are what _lower_twins finds on the candidate
    searches = Counter()
    search = families._canonical_bits

    def counting(adjbits, lower_twins):
        searches[len(adjbits)] += 1
        assert lower_twins == families._lower_twins(adjbits), adjbits
        return search(adjbits, lower_twins)

    monkeypatch.setattr(families, "_canonical_bits", counting)
    enumerate_connected(6)
    assert searches == {2: 1, 3: 2, 4: 8, 5: 53, 6: 417}
    assert sum(searches.values()) == 481


def test_enumerate_connected_pairwise_noniso(connected_by_n):
    for n in range(4, 8):
        forms = [canonical_form(g) for g in connected_by_n[n]]
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


def test_enumeration_caps(monkeypatch):
    assert (CONNECTED_CAP, HARD_CAP) == (8, 12)
    # each enumerator checks n against its own limit before it builds a graph
    def refuse(*args):
        raise AssertionError("a graph was built")

    monkeypatch.setattr(families, "build_graph", refuse)
    # the streams check it when called, before the generator is returned
    for enumerate_up_to in (enumerate_connected, iter_connected):
        with pytest.raises(CapExceededError, match="size 9 exceeds the limit 8"):
            enumerate_up_to(CONNECTED_CAP + 1)
    with pytest.raises(CapExceededError, match="size 13 exceeds the limit 12"):
        enumerate_odd_unicyclic(HARD_CAP + 1)
    for enumerate_up_to in (enumerate_connected, iter_connected, enumerate_odd_unicyclic):
        with pytest.raises(InvalidParameterError):
            enumerate_up_to(0)
    monkeypatch.undo()
    # the limits are fixed, so reaching one is no cause for a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert len(enumerate_odd_unicyclic(HARD_CAP)) == 4795


def test_enumerate_odd_unicyclic_matches_pendant_extensions():
    reps = enumerate_odd_unicyclic(9)
    got = [canonical_form(g) for g in reps]
    assert len(set(got)) == len(got)
    assert set(got) == set(pendant_extension_classes(9))
    for n in range(3, 9):
        prefix = enumerate_odd_unicyclic(n)
        assert prefix == tuple(g for g in reps if g.n <= n)


def test_enumerate_odd_unicyclic_counts_to_hard_cap(odd_unicyclic_up_to):
    reps = odd_unicyclic_up_to(HARD_CAP)
    per_n = Counter(g.n for g in reps)
    assert [per_n[n] for n in range(3, 13)] == ODD_UNICYCLIC_PER_N
    assert len(reps) == 4795


def test_enumerate_odd_unicyclic_order_and_shape(odd_unicyclic_up_to):
    reps = odd_unicyclic_up_to(HARD_CAP)
    keys = []
    for g in reps:
        cls = classify(g)
        assert g.n == g.m and cls.kind == "odd_unicycle"
        keys.append((g.n, cls.decomposition.girth))
        # the cycle is 0..k-1 in order and the tree vertices follow
        assert cls.decomposition.cycle == tuple(range(cls.decomposition.girth))
    assert keys == sorted(keys)
    for k in range(3, 13, 2):
        bare = [g for g in reps if g.n == k and max(g.degree) == 2]
        assert bare == [cycle_graph(k)]


def test_enumerate_odd_unicyclic_labels():
    # trees in cycle order, each in preorder after the cycle 0..k-1; the
    # codes are (0,0,2), (0,0,3), (0,1,1), (0,0,0,0,0), where tree 1 is
    # an edge, tree 2 a cherry and tree 3 a path on three vertices
    got = [list(g.edges) for g in enumerate_odd_unicyclic(5) if g.n == 5]
    assert got == [
        [(0, 1), (0, 2), (1, 2), (2, 3), (2, 4)],
        [(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)],
        [(0, 1), (0, 2), (1, 2), (1, 3), (2, 4)],
        [(0, 1), (0, 4), (1, 2), (2, 3), (3, 4)],
    ]


@functools.cache
def _forms_on(n: int) -> frozenset:
    return frozenset(canonical_form(g) for g in enumerate_odd_unicyclic(n) if g.n == n)


@st.composite
def _odd_unicyclic_graphs(draw):
    """A random odd cycle with random pendant vertices, relabelled at random."""
    k = draw(st.sampled_from([3, 5, 7, 9]))
    n = draw(st.integers(k, 10))
    edges = [(i, i + 1) for i in range(k - 1)] + [(0, k - 1)]
    edges += [(draw(st.integers(0, v - 1)), v) for v in range(k, n)]
    perm = draw(st.permutations(range(n)))
    return build_graph(n, edges).relabel(perm)


@settings(derandomize=True, database=None, deadline=None, max_examples=80)
@given(_odd_unicyclic_graphs())
def test_random_odd_unicyclic_graph_is_enumerated(g):
    assert canonical_form(g) in _forms_on(g.n)


def _census_multiset(records):
    return Counter(
        (
            canonical_form(r.graph),
            r.period_report.verdict,
            r.period_report.period,
            r.period_report.failing_indices,
            r.charpoly.coeffs,
        )
        for r in records
    )


def test_census_matches_pendant_extension_census():
    oracle = [analyze_graph(g) for g in pendant_extension_classes(9).values()]
    assert _census_multiset(run_census(9).records) == _census_multiset(oracle)
