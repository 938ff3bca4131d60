"""The package's public names: each one resolves, and removed ones stay gone."""

import inspect

import groverwalk
from groverwalk import census, exceptions, graphs, linalg, periodicity, walk

# names deleted once a single route replaced them: matchings come from the
# matching polynomials of periodicity, and the walk matrices, with their
# characteristic polynomials, only from integer sparse rows; the arcs are
# an index order of those rows, stated in walk; linalg reads the peel its
# caller makes and imports nothing from graphs
REMOVED = {
    graphs: ["enumerate_matchings", "_split_lines", "_LINE", "Arc"],
    walk: [
        "grover_arc_rows",
        "transition_rows",
        "_dense",
        "GroverOperator",
        "TransitionMatrix",
        "build_grover_operator",
        "build_transition_matrix",
        "_over_scale",
        "Fraction",
    ],
    linalg: [
        "sparse_rows",
        "RationalMatrix",
        "mat_mul",
        "charpoly_exact",
        "row_sum_bound",
        "is_integer",
        "peel_leaves",
    ],
    exceptions: ["DimensionMismatchError", "NonSquareError"],
}


def test_every_exported_name_resolves():
    assert len(groverwalk.__all__) == len(set(groverwalk.__all__))
    for name in groverwalk.__all__:
        assert getattr(groverwalk, name) is not None, name


def test_removed_names_are_not_exported():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in groverwalk.__all__, name
            assert not hasattr(groverwalk, name), name
            assert not hasattr(module, name), (module.__name__, name)


def test_removed_members_stay_gone():
    # no command, report or check read these
    for name in ("arcs", "has_edge"):
        assert not hasattr(graphs.Graph, name), name
    assert "forest_edges" not in graphs.UnicycleDecomposition._fields
    assert not hasattr(census.CensusResult, "budget_hits")
    for check in (walk.spectral_map_check, periodicity.chebyshev_eigen_check):
        assert "tol" not in inspect.signature(check).parameters, check
