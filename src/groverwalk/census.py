"""Census of small odd-unicyclic graphs.

Walks the isomorph-free enumeration in canonical order and records, per
graph, the classification, the exact transition characteristic polynomial,
the integrality and cycle-degree filters, and the period verdict. The
summary side collects the odd-periodic survivors, which at desk scale
should be exactly the odd cycles. Every record gets an exact verdict: the
period certificate works on the arc characteristic polynomial and has no
size budget to run out of.
"""

from __future__ import annotations

from dataclasses import dataclass

from .families import ENUMERATION_CAP, enumerate_odd_unicyclic
from .graphs import Classification, Graph, classify
from .linalg import CharPoly
from .periodicity import (
    DegreeConditionVerdict,
    PeriodReport,
    degree_condition_filter,
    find_period,
)
from .walk import transition_charpoly


@dataclass(frozen=True)
class CensusRecord:
    """One odd-unicyclic isomorphism class and everything we know about it."""

    graph: Graph
    classification: Classification
    charpoly: CharPoly
    integrality_failures: tuple[int, ...]
    degree_condition: DegreeConditionVerdict
    period_report: PeriodReport

    @property
    def is_cycle(self) -> bool:
        return self.graph.n == self.classification.decomposition.girth

    @property
    def odd_periodic(self) -> bool:
        rep = self.period_report
        return rep.verdict == "periodic" and rep.period % 2 == 1


@dataclass(frozen=True)
class CensusResult:
    max_n: int
    records: tuple[CensusRecord, ...]

    def odd_periodic(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if r.odd_periodic)

    def budget_hits(self) -> tuple[CensusRecord, ...]:
        """Always (): the period certificate has no size budget to exceed.

        Kept because the acceptance criteria read it.
        """
        return ()


def run_census(max_n: int, cap: int = ENUMERATION_CAP) -> CensusResult:
    """Analyze every odd-unicyclic class with at most max_n vertices."""
    records = []
    for g in enumerate_odd_unicyclic(max_n, cap=cap):
        cls = classify(g)
        condition = degree_condition_filter(cls.decomposition, g)
        report = find_period(g)
        records.append(
            CensusRecord(
                graph=g,
                classification=cls,
                charpoly=transition_charpoly(g),
                integrality_failures=report.failing_indices,
                degree_condition=condition,
                period_report=report,
            )
        )
    return CensusResult(max_n=max_n, records=tuple(records))
