import contextlib
import io
import os
import tempfile
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk import cli, linalg, walk
from groverwalk.exceptions import (
    CapExceededError,
    DisconnectedError,
    DuplicateEdgeError,
    EmptyGraphError,
    GroverWalkError,
    InvalidParameterError,
    LoopEdgeError,
    ParseError,
)
from groverwalk.families import (
    cycle_graph,
    enumerate_connected,
    path_graph,
)
from groverwalk.graphs import (
    MAX_FILE_CHARS,
    build_graph,
    classify,
    edge_weight,
    peel_leaves,
    read_graph_file,
    unicycle_decomposition,
    write_graph_file,
)

from oracles import (
    brute_cycles,
    oracle_unicycle_decomposition,
    two_colouring_kind,
)
from strategies import connected_graphs


def test_build_p2():
    g = build_graph(2, [(0, 1)])
    assert g.n == 2
    assert g.m == 1
    assert g.edges == ((0, 1),)


def test_build_c3_arcs():
    g = build_graph(3, [(0, 1), (1, 2), (2, 0)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))
    # canonical arc order: edge i = (u, v) with u < v gives arc 2i from u to
    # v, then arc 2i + 1 from v to u, so the arcs are 0>1, 1>0, 0>2, 2>0,
    # 1>2, 2>1. On a cycle the one arc feeding arc e ends at its origin and
    # is not its reversal: 2>0 feeds 0>1, 2>1 feeds 1>0, and so on.
    scale, plan = walk._arc_plan(g)
    rows = walk._plan_rows(plan, 2 * g.m)
    assert scale == 2
    assert rows == [[(3, 2)], [(5, 2)], [(1, 2)], [(4, 2)], [(0, 2)], [(2, 2)]]


def test_degree_sum():
    for g in enumerate_connected(5):
        assert sum(g.degree) == 2 * g.m


def test_validation_errors():
    with pytest.raises(DisconnectedError):
        build_graph(4, [(0, 1), (2, 3)])
    with pytest.raises(LoopEdgeError):
        build_graph(2, [(0, 0), (0, 1)])
    with pytest.raises(DuplicateEdgeError):
        build_graph(2, [(0, 1), (1, 0)])
    with pytest.raises(EmptyGraphError):
        build_graph(0, [])


def test_non_integer_ids_rejected():
    with pytest.raises(InvalidParameterError):
        build_graph(2, [(0, 0.5)])
    with pytest.raises(InvalidParameterError):
        build_graph(2, [("0", 1)])
    with pytest.raises(InvalidParameterError):
        build_graph(2.0, [(0, 1)])
    with pytest.raises(InvalidParameterError):
        build_graph(2, [(0,)])
    # bools and other integer types pass through operator.index
    assert build_graph(2, [(False, True)]) == build_graph(2, [(0, 1)])


def test_too_few_edges_rejected_before_allocation():
    # a connected graph on n vertices needs n - 1 edges; the check runs
    # before anything per vertex is built, so a huge n costs nothing
    started = time.perf_counter()
    for text in ("300000 0\n", "1000000000 1\n0 1\n"):
        with pytest.raises(DisconnectedError):
            read_graph_file(text)
    assert time.perf_counter() - started < 0.1
    # edge errors still come first
    with pytest.raises(LoopEdgeError):
        build_graph(10**9, [(0, 0)])


def test_edges_are_normalized_sorted():
    g = build_graph(3, [(2, 1), (1, 0), (0, 2)])
    assert g.edges == ((0, 1), (0, 2), (1, 2))


def test_classify_tree_and_bipartite():
    assert classify(path_graph(4)).kind == "tree"
    assert classify(cycle_graph(4)).kind == "bipartite"
    assert classify(cycle_graph(6)).kind == "bipartite"


def test_classify_odd_unicycle(paw):
    cls = classify(paw)
    assert cls.kind == "odd_unicycle"
    assert cls.decomposition.girth == 3
    assert cls.decomposition.cycle == (0, 1, 2)


def test_classify_c5_is_its_own_cycle():
    cls = classify(cycle_graph(5))
    assert cls.kind == "odd_unicycle"
    assert cls.decomposition.girth == 5
    assert sorted(cls.decomposition.cycle) == [0, 1, 2, 3, 4]


def test_classify_other():
    # K_4 has more edges than vertices
    g = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert classify(g).kind == "other"


def test_cycle_ordering_deterministic(paw):
    d = unicycle_decomposition(paw)
    # starts at the smallest cycle vertex, toward its smaller neighbor
    assert d.cycle[0] == 0
    assert d.cycle[1] == min(v for v in (1, 2))


def test_unique_cycle_against_exhaustive_search():
    seen = 0
    for n in range(3, 7):
        for g in enumerate_connected(n):
            cls = classify(g)
            if cls.kind != "odd_unicycle":
                continue
            cycles = brute_cycles(g.n, g.edges)
            assert len(cycles) == 1
            assert frozenset(cls.decomposition.cycle) in cycles
            seen += 1
    assert seen > 0


def test_unicycle_decomposition_matches_oracle(connected_by_n, odd_unicyclic_up_to):
    # every connected m = n graph with n <= 7, even cycles included, and
    # every odd-unicyclic class with n <= 10
    graphs = [g for n in range(3, 8) for g in connected_by_n[n] if g.m == g.n]
    graphs += odd_unicyclic_up_to(10)
    for g in graphs:
        d = unicycle_decomposition(g)
        removals = peel_leaves(g.n, g.edges)[0]
        forest = tuple(sorted((min(e), max(e)) for e in removals))
        assert (d.cycle, forest) == oracle_unicycle_decomposition(g.n, g.edges)
        assert d.girth == len(d.cycle)


def test_classify_matches_two_colouring_oracle(connected_by_n):
    kinds = set()
    for n in range(1, 8):
        for g in connected_by_n[n]:
            kind = classify(g).kind
            assert kind == two_colouring_kind(g.n, g.edges), g
            kinds.add(kind)
    assert kinds == {"tree", "bipartite", "odd_unicycle", "other"}


def test_peel_leaves_removes_each_tree_edge_once():
    # a tree peels to its last vertex, its root and the neighbour of the last
    # removal, and leaves no core
    g = build_graph(5, [(0, 1), (1, 2), (1, 3), (3, 4)])
    removals, roots, cycle, core = peel_leaves(g.n, g.edges)
    assert (cycle, core) == ((), ())
    assert sorted(tuple(sorted(e)) for e in removals) == list(g.edges)
    peeled = [u for u, _ in removals]
    assert len(set(peeled)) == 4 and roots == (removals[-1][1],)
    assert roots[0] not in peeled
    # a pool is peeled on its own: each tree has one root, a vertex that the
    # pool does not touch is none, and a cycle keeps its hanging trees' edges
    # out of the core
    assert peel_leaves(6, [(0, 1), (1, 2), (4, 5)]) == (
        ((5, 4), (2, 1), (1, 0)), (4, 0), (), ()
    )
    triangle = [(0, 1), (1, 2), (0, 2), (2, 3), (4, 5)]
    assert peel_leaves(7, triangle) == (
        ((5, 4), (3, 2)), (4,), (0, 1, 2), ((0, 1), (1, 2), (0, 2))
    )
    assert peel_leaves(1, ()) == ((), (), (), ())


def test_peel_leaves_needs_at_most_one_cycle():
    # the peel names a cycle only when what is left is one cycle, and the
    # matching polynomial refuses any other core
    k4 = build_graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
    assert peel_leaves(k4.n, k4.edges) == ((), (), (), k4.edges)
    two = [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5), (2, 3)]
    removals, roots, cycle, core = peel_leaves(6, two)
    assert (removals, roots, cycle, len(core)) == ((), (), (), 7)
    with pytest.raises(InvalidParameterError):
        linalg._packed_matching_poly([1] * 4, -1, peel_leaves(4, k4.edges), -2)
    with pytest.raises(InvalidParameterError):
        unicycle_decomposition(k4)
    with pytest.raises(InvalidParameterError):
        unicycle_decomposition(path_graph(4))


def test_graph_file_round_trip():
    for g in enumerate_connected(5):
        assert read_graph_file(write_graph_file(g)) == g


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(g=connected_graphs(max_n=8))
def test_graph_file_round_trip_property(g):
    text = write_graph_file(g)
    assert read_graph_file(text) == g
    assert write_graph_file(read_graph_file(text)) == text


_TOKENS = ["0", "1", "2", "3", "7", "-1", "10", "99999999999", "x", "2.5", "#", "1_0"]

garbage_text = st.one_of(
    st.text(max_size=40),
    st.lists(
        st.lists(st.sampled_from(_TOKENS), max_size=3).map(" ".join), max_size=6
    ).map("\n".join),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(text=garbage_text)
def test_garbage_files_raise_only_package_errors(text):
    try:
        read_graph_file(text)
    except GroverWalkError:
        pass
    else:
        return
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "garbage.txt")
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
        with contextlib.redirect_stderr(io.StringIO()) as err:
            assert cli.main(["analyze", path]) == 2
    assert err.getvalue().startswith("error: ")


def test_graph_file_format():
    g = read_graph_file("3 3\n0 1\n1 2\n2 0\n")
    assert g == cycle_graph(3)
    # comments and blank lines are ignored
    g = read_graph_file("# triangle\n\n3 3\n0 1\n# middle\n1 2\n2 0\n")
    assert g == cycle_graph(3)


def test_graph_file_edge_cap_is_read_from_the_header():
    # 64 edges pass; 65 are refused before the malformed edge line is read
    g = path_graph(65)
    assert read_graph_file(write_graph_file(g)) == g
    with pytest.raises(CapExceededError, match="130 arcs; at most 128"):
        read_graph_file("# big\n66 65\nx y\n")


def test_graph_stream_is_read_once_up_to_the_char_cap():
    # a stream gets one read of MAX_FILE_CHARS + 1 characters, however its
    # lines are broken, and text longer than the cap is refused
    sizes = []

    class Stream(io.StringIO):
        def read(self, size=-1):
            sizes.append(size)
            return super().read(size)

    fits = "3 3\n0 1\n1 2\n2 0\n" + "#" * (MAX_FILE_CHARS - 16)
    assert len(fits) == MAX_FILE_CHARS
    assert read_graph_file(Stream(fits)) == cycle_graph(3)
    cap = "exceeds %d characters" % MAX_FILE_CHARS
    for text in (fits + "\n", "1000001 1000000 " + "0 1 " * MAX_FILE_CHARS):
        with pytest.raises(CapExceededError, match=cap):
            read_graph_file(Stream(text))
    assert sizes == [MAX_FILE_CHARS + 1] * 3
    with pytest.raises(CapExceededError, match=cap):
        read_graph_file(fits + " ")


def test_graph_file_lines_split_as_the_whole_text():
    # a stream's text is split at every break str.splitlines knows, so line
    # numbers and edges come out as from the text given as one str
    text = "# c\n3 3\n0 1\x0c1 2\n\n2 0\n"
    assert read_graph_file(io.StringIO(text)) == read_graph_file(text) == cycle_graph(3)
    bad = "3 3\n0 1\x0cx y\n2 0\n"
    with pytest.raises(ParseError) as whole:
        read_graph_file(bad)
    with pytest.raises(ParseError) as by_line:
        read_graph_file(io.StringIO(bad))
    assert str(by_line.value) == str(whole.value)
    assert "line 3" in str(whole.value)


def test_graph_file_errors_stay_short():
    # a number past 64 bits, a line of escapes and a byte that is not UTF-8
    # each get a one-line error that quotes a bounded part of the input
    big = 1 << 63
    with pytest.raises(ParseError, match="line 2: integer out of range"):
        read_graph_file("2 1\n0 %d\n" % big)
    with pytest.raises(InvalidParameterError):
        read_graph_file("2 1\n0 %d\n" % (big - 1))
    with pytest.raises(ParseError, match="line 1: integer out of range"):
        read_graph_file("%d 1\n0 1\n" % -big)
    with pytest.raises(ParseError) as err:
        read_graph_file("\x00" * 100)
    assert len(str(err.value)) < 120
    with pytest.raises(ParseError, match="not UTF-8 text at byte offset 7"):
        read_graph_file("2 1\n\u00e9 \udcff\n")  # é is two bytes
    # a leading byte-order mark is dropped, one anywhere else is a bad token
    assert read_graph_file("\ufeff3 3\n0 1\n1 2\n2 0\n") == cycle_graph(3)
    with pytest.raises(ParseError, match="line 2: non-integer token"):
        read_graph_file("3 3\n\ufeff0 1\n1 2\n2 0\n")


def test_graph_file_errors():
    with pytest.raises(LoopEdgeError):
        read_graph_file("2 2\n0 0\n0 1\n")
    with pytest.raises(ParseError):
        read_graph_file("not a header\n")
    with pytest.raises(ParseError):
        read_graph_file("3 2\n0 1\n")  # fewer edge lines than promised
    with pytest.raises(InvalidParameterError):
        read_graph_file("2 1\n0 5\n")  # vertex out of range


def test_edge_weight_values(paw):
    assert edge_weight(cycle_graph(3), (0, 1)) == Fraction(1, 4)
    # pendant edge with degrees (2, 1)
    assert edge_weight(path_graph(3), (1, 2)) == Fraction(1, 2)
    # paw: deg 0 = 3, deg 3 = 1
    assert edge_weight(paw, (0, 3)) == Fraction(1, 3)
    assert edge_weight(paw, (1, 2)) == Fraction(1, 4)


def test_relabel_preserves_structure():
    g = cycle_graph(5)
    h = g.relabel([2, 0, 4, 1, 3])
    assert h.n == g.n
    assert h.m == g.m
    assert sorted(h.degree) == sorted(g.degree)
