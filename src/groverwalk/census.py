"""Per-graph analysis, and the census of small odd-unicyclic graphs.

`analyze_graph` is the one pipeline behind `analyze` and `census`. It
records, per graph, the classification, the exact transition
characteristic polynomial, the cycle-degree filter where it applies, and
the period verdict with its integrality filter. The census maps it over
the isomorph-free enumeration, ordered by vertex count, girth and the
cyclic sequence of hanging rooted trees; the summary side
collects the odd-periodic survivors, which at desk scale should be
exactly the odd cycles. Every record gets an exact verdict: the period
certificate works on the arc characteristic polynomial and has no size
budget to run out of. run_census keeps every record; the CLI maps
analyze_graph over the same stream, families.iter_odd_unicyclic, and
keeps only what its summary needs.
"""

from __future__ import annotations

from typing import NamedTuple

from .families import iter_odd_unicyclic
from .graphs import Classification, Graph, classify
from .linalg import CharPoly
from .periodicity import (
    DegreeConditionVerdict,
    PeriodReport,
    degree_condition_filter,
    find_period,
)
from .walk import transition_charpoly


class CensusRecord(NamedTuple):
    """One graph and everything we know about it.

    degree_condition is None unless the graph is odd-unicyclic.
    """

    graph: Graph
    classification: Classification
    charpoly: CharPoly
    degree_condition: DegreeConditionVerdict | None
    period_report: PeriodReport

    @property
    def is_cycle(self) -> bool:
        d = self.classification.decomposition
        return d is not None and self.graph.n == d.girth

    @property
    def odd_periodic(self) -> bool:
        rep = self.period_report
        return rep.verdict == "periodic" and rep.period % 2 == 1


class CensusResult(NamedTuple):
    max_n: int
    records: tuple[CensusRecord, ...]

    def odd_periodic(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if r.odd_periodic)


def analyze_graph(g: Graph) -> CensusRecord:
    """Classify g, filter its cycle degrees and decide its period exactly."""
    cls = classify(g)
    condition = None
    if cls.kind == "odd_unicycle":
        condition = degree_condition_filter(cls.decomposition, g)
    report = find_period(g)
    return CensusRecord(
        graph=g,
        classification=cls,
        charpoly=transition_charpoly(g),
        degree_condition=condition,
        period_report=report,
    )


def run_census(max_n: int) -> CensusResult:
    """Analyze every odd-unicyclic class with at most max_n vertices."""
    return CensusResult(max_n, tuple(map(analyze_graph, iter_odd_unicyclic(max_n))))
