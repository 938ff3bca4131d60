from collections import Counter

import pytest

from groverwalk.families import (
    HARD_CAP,
    complete_bipartite,
    cycle_graph,
    enumerate_odd_unicyclic,
    iter_connected,
    path_graph,
    two_tail_graph,
)
from groverwalk.graphs import build_graph


@pytest.fixture(scope="session")
def paw():
    return build_graph(4, [(0, 1), (1, 2), (2, 0), (0, 3)])


@pytest.fixture(scope="session")
def named_graphs():
    """The graphs the period table talks about, by short name."""
    graphs = {
        "P_2": path_graph(2),
        "C_3": cycle_graph(3),
        "C_4": cycle_graph(4),
        "C_5": cycle_graph(5),
        "K_13": complete_bipartite(1, 3),
        "K_23": complete_bipartite(2, 3),
        "TT_31": two_tail_graph(3, 1),
        "TT_32": two_tail_graph(3, 2),
    }
    return graphs


@pytest.fixture
def count_runs(monkeypatch):
    """count_runs(*memoised) counts the runs of each memoised function's
    undecorated body (its __wrapped__), by name, to the end of the test."""
    runs = Counter()

    def start(*memoised):
        for fn in memoised:

            def counted(*args, _body=fn.__wrapped__, _name=fn.__name__):
                runs[_name] += 1
                return _body(*args)

            monkeypatch.setattr(fn, "__wrapped__", counted)
        return runs

    return start


# The enumerations keep nothing between calls, so the tests that share one
# read it from a session fixture and it is built once. Graphs built here live
# for the whole session, and so do the artifacts memoised on them.


@pytest.fixture(scope="session")
def connected_by_n():
    """Connected isomorphism-class representatives, n = 1..7, read from one
    iter_connected(7) pass."""
    by_n = {n: [] for n in range(1, 8)}
    for g in iter_connected(7):
        by_n[g.n].append(g)
    return {n: tuple(level) for n, level in by_n.items()}


@pytest.fixture(scope="session")
def odd_unicyclic_up_to():
    """odd_unicyclic_up_to(n) is enumerate_odd_unicyclic(n), for n <= HARD_CAP,
    read from one enumeration to the cap."""
    classes = enumerate_odd_unicyclic(HARD_CAP)

    def up_to(n: int) -> tuple:
        return tuple(g for g in classes if g.n <= n)

    return up_to
