"""Census of small odd-unicyclic graphs.

Walks the isomorph-free enumeration in canonical order and records, per
graph, the classification, the exact transition characteristic polynomial,
the integrality and cycle-degree filters, and the period verdict. The
summary side collects the odd-periodic survivors, which at desk scale
should be exactly the odd cycles.
"""

from __future__ import annotations

from dataclasses import dataclass

from .exceptions import BudgetExceededError
from .families import ENUMERATION_CAP, enumerate_odd_unicyclic
from .graphs import Classification, Graph, classify
from .linalg import CharPoly
from .periodicity import (
    DEFAULT_BIT_BUDGET,
    DegreeConditionVerdict,
    PeriodReport,
    degree_condition_filter,
    find_period,
)
from .walk import transition_charpoly


@dataclass(frozen=True)
class CensusRecord:
    """One odd-unicyclic isomorphism class and everything we know about it.

    period_report is None only when the exact power scan blew through the
    bit budget; budget_note then carries the message and the census as a
    whole is marked incomplete.
    """

    graph: Graph
    classification: Classification
    charpoly: CharPoly
    integrality_failures: tuple[int, ...]
    degree_condition: DegreeConditionVerdict
    period_report: PeriodReport | None
    budget_note: str | None = None

    @property
    def is_cycle(self) -> bool:
        return self.graph.n == self.classification.decomposition.girth

    @property
    def odd_periodic(self) -> bool:
        rep = self.period_report
        return (
            rep is not None
            and rep.verdict == "periodic"
            and rep.period % 2 == 1
        )


@dataclass(frozen=True)
class CensusResult:
    max_n: int
    records: tuple[CensusRecord, ...]

    def odd_periodic(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if r.odd_periodic)

    def budget_hits(self) -> tuple[CensusRecord, ...]:
        return tuple(r for r in self.records if r.budget_note is not None)


def run_census(
    max_n: int,
    bit_budget: int = DEFAULT_BIT_BUDGET,
    cap: int = ENUMERATION_CAP,
) -> CensusResult:
    """Analyze every odd-unicyclic class with at most max_n vertices.

    A budget overrun marks the record and the run continues; callers decide
    how loudly to complain.
    """
    records = []
    for g in enumerate_odd_unicyclic(max_n, cap=cap):
        cls = classify(g)
        condition = degree_condition_filter(cls.decomposition, g)
        try:
            report = find_period(g, bit_budget=bit_budget)
            note = None
        except BudgetExceededError as err:
            report = None
            note = str(err)
        records.append(
            CensusRecord(
                graph=g,
                classification=cls,
                charpoly=transition_charpoly(g),
                # only a graph that passed the filter reaches the budget
                integrality_failures=report.failing_indices if report else (),
                degree_condition=condition,
                period_report=report,
                budget_note=note,
            )
        )
    return CensusResult(max_n=max_n, records=tuple(records))
