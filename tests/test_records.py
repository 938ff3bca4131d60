import pickle

import pytest

from groverwalk import graphs, periodicity, walk
from groverwalk.census import CensusResult, analyze_graph
from groverwalk.families import parse_family, two_tail_graph
from groverwalk.graphs import classify
from groverwalk.linalg import CharPoly
from groverwalk.periodicity import (
    branch_frame,
    branch_integrality_instances,
    chebyshev_eigen_check,
    degree_condition_filter,
    find_period,
)


def _clear_caches():
    graphs.peel_leaves.cache_clear()
    walk.transition_charpoly.cache_clear()
    walk.arc_charpoly.cache_clear()
    periodicity.branch_frame.cache_clear()


def _records() -> list:
    """One value of each record type and CharPoly, built from scratch."""
    _clear_caches()
    g = two_tail_graph(3, 2)
    cls = classify(g)
    record = analyze_graph(g)
    return [
        record,
        CensusResult(max_n=7, records=(record,)),
        parse_family("twotail:3,2"),
        cls.decomposition,
        cls,
        degree_condition_filter(cls.decomposition, g),
        find_period(g),
        branch_frame(g),
        branch_integrality_instances(g)[0],
        chebyshev_eigen_check(3, 3),
        walk.build_grover_operator(g),
        walk.build_transition_matrix(g),
        walk.spectral_map_check(g),
        walk.transition_charpoly(g),
    ]


def test_records_cover_every_record_type():
    names = {type(x).__name__ for x in _records()}
    assert names == {
        "CensusRecord",
        "CensusResult",
        "FamilySpec",
        "UnicycleDecomposition",
        "Classification",
        "DegreeConditionVerdict",
        "PeriodReport",
        "BranchFrame",
        "IntegralityInstance",
        "ChebyshevReport",
        "GroverOperator",
        "TransitionMatrix",
        "SpectralMapReport",
        "CharPoly",
    }


def test_equal_fields_give_equal_values_and_hashes():
    for a, b in zip(_records(), _records(), strict=True):
        assert a is not b
        assert a == b and not a != b, a
        assert hash(a) == hash(b), a
        assert pickle.loads(pickle.dumps(a)) == a, a
    # the NamedTuple records also compare like tuples of their fields
    spec = parse_family("cycle:5")
    assert spec == ("cycle", (5,)) and spec._asdict() == {"kind": "cycle", "params": (5,)}


@pytest.mark.parametrize("index", range(14))
def test_records_are_immutable(index):
    value = _records()[index]
    fields = value._fields if isinstance(value, tuple) else ("integer_coeffs", "denominator")
    for name in fields:
        before = getattr(value, name)
        with pytest.raises(AttributeError):
            setattr(value, name, before)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) is before
    with pytest.raises(AttributeError):
        value.extra = 1


def test_charpoly_reduces_to_one_form():
    a, b = CharPoly((4, -6), 24), CharPoly((2, -3), 12)
    assert a == b and hash(a) == hash(b)
    assert a.integer_coeffs == (2, -3) and a.denominator == 12
    assert repr(a) == "CharPoly(integer_coeffs=(2, -3), denominator=12)"
    assert CharPoly((1, 2), 1) != (1, 2)
