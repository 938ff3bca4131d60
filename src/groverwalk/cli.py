"""Command-line front end.

Four commands: analyze a single graph, generate a family member, run the
odd-unicyclic census, and run the verification suites. Analysis and census
reports are single JSON documents with deterministic serialization: sorted
keys, exact rationals as reduced "p/q" strings, floating-point values as
strings with 15 significant digits. Identical invocations produce
byte-identical output when timing is suppressed.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error,
3 resource budget exceeded.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from fractions import Fraction

from .census import CensusRecord, run_census
from .exceptions import BudgetExceededError, CapExceededError, GroverWalkError
from .families import (
    ENUMERATION_CAP,
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
from .graphs import Classification, Graph, classify, read_graph_file, write_graph_file
from .periodicity import (
    branch_integrality_instances,
    chebyshev_eigen_check,
    cycle_matching_identity_check,
    degree_condition_filter,
    find_period,
    matching_split_check,
    tail_recurrence_check,
)
from .walk import spectral_map_check, transition_charpoly

# Largest arc count 2m that analyze and gen accept. The arc operator is
# 2m x 2m, and at this size one analyze takes seconds; a family is checked
# from its closed form before it is built, a graph file right after parsing.
ARC_CAP = 128


# ---------------------------------------------------------------------------
# Deterministic JSON serialization.


def _encode(value):
    """Fractions to "p/q", floats to 15-significant-digit strings."""
    if isinstance(value, Fraction):
        return "%d/%d" % (value.numerator, value.denominator)
    if isinstance(value, float):
        return format(value, ".15g")
    if isinstance(value, dict):
        return {key: _encode(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_encode(item) for item in value]
    return value


def _emit(report: dict, args) -> None:
    payload = _encode(report)
    if args.json:
        text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(payload, sort_keys=True, indent=2)
    _write_text(text + "\n", args.out)


def _write_text(text: str, out: str | None) -> None:
    if out:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# Report blocks shared by analyze and census.


def _graph_block(g: Graph) -> dict:
    return {"n": g.n, "m": len(g.edges), "edges": [list(e) for e in g.edges]}


def _classification_block(cls: Classification) -> dict:
    block: dict = {"kind": cls.kind}
    if cls.decomposition is not None:
        block["girth"] = cls.decomposition.girth
        block["cycle"] = list(cls.decomposition.cycle)
    return block


def _charpoly_block(cp) -> dict:
    # coefficients of the transition charpoly, the filter's input
    return {"matrix": "transition", "ascending": [cp[i] for i in range(cp.degree + 1)]}


def _period_block(rep) -> dict:
    return {
        "verdict": rep.verdict,
        "period": rep.period,
        "failing_indices": list(rep.failing_indices),
        "candidate_source": rep.candidate_source,
        "graph_hash": rep.graph_hash,
    }


def _spectral_block(rep) -> dict:
    return {
        "matched": rep.matched,
        "max_residual": rep.max_residual,
        "predicted": rep.predicted,
        "unexplained": rep.unexplained,
        "plus_one_extra": rep.plus_one_extra,
        "minus_one_extra": rep.minus_one_extra,
    }


def _degree_condition_block(cond) -> dict:
    block: dict = {"kind": cond.kind}
    if cond.vertex is not None:
        block["vertex"] = cond.vertex
    return block


def _record_block(record: CensusRecord) -> dict:
    block = {
        "graph": _graph_block(record.graph),
        "classification": _classification_block(record.classification),
        "charpoly": _charpoly_block(record.charpoly),
        "integrality": {
            "failing_indices": list(record.integrality_failures),
            "passed": not record.integrality_failures,
        },
        "degree_condition": _degree_condition_block(record.degree_condition),
        "period": (
            _period_block(record.period_report)
            if record.period_report is not None
            else None
        ),
    }
    if record.budget_note is not None:
        block["budget_note"] = record.budget_note
    return block


# ---------------------------------------------------------------------------
# Commands.


def _check_arcs(arcs: int, what: str) -> None:
    if arcs > ARC_CAP:
        raise CapExceededError(
            "%s has %d arcs; analyze and gen accept at most %d" % (what, arcs, ARC_CAP)
        )


def _family_graph(text: str) -> Graph:
    spec = parse_family(text)
    _check_arcs(family_arcs(spec), str(spec))
    return make_family(spec)


def _load_graph(args) -> Graph:
    if args.family and args.graph:
        raise GroverWalkError("give either a graph file or --family, not both")
    if args.family:
        return _family_graph(args.family)
    if args.graph:
        with open(args.graph, "r", encoding="utf-8") as handle:
            g = read_graph_file(handle.read())
        _check_arcs(2 * g.m, args.graph)
        return g
    raise GroverWalkError("no graph given: pass a file path or --family")


def cmd_analyze(args) -> int:
    g = _load_graph(args)
    started = time.perf_counter()
    cls = classify(g)
    period = find_period(g)
    report = {
        "graph": _graph_block(g),
        "classification": _classification_block(cls),
        "charpoly": _charpoly_block(transition_charpoly(g)),
        "integrality": {
            "failing_indices": list(period.failing_indices),
            "passed": not period.failing_indices,
        },
        "period": _period_block(period),
    }
    if cls.kind == "odd_unicycle":
        cond = degree_condition_filter(cls.decomposition, g)
        report["degree_condition"] = _degree_condition_block(cond)
    report["spectral_map"] = _spectral_block(spectral_map_check(g))
    if not args.no_timing:
        report["timing"] = {"seconds": time.perf_counter() - started}
    _emit(report, args)
    return 0


def cmd_census(args) -> int:
    started = time.perf_counter()
    # cap above the default triggers the enumeration's runtime warning;
    # above the hard limit it raises and we exit 2
    cap = max(ENUMERATION_CAP, args.max_n)
    result = run_census(args.max_n, cap=cap)
    odd = result.odd_periodic()
    report = {
        "max_n": result.max_n,
        "records": [_record_block(r) for r in result.records],
        "summary": {
            "total_records": len(result.records),
            "odd_periodic": [
                {
                    "n": r.graph.n,
                    "period": r.period_report.period,
                    "edges": [list(e) for e in r.graph.edges],
                }
                for r in odd
            ],
            "budget_hits": len(result.budget_hits()),
        },
    }
    if not args.no_timing:
        report["timing"] = {"seconds": time.perf_counter() - started}
    _emit(report, args)
    return 3 if result.budget_hits() else 0


def cmd_gen(args) -> int:
    if not args.family:
        raise GroverWalkError("gen requires --family")
    g = _family_graph(args.family)
    _write_text(write_graph_file(g), args.out)
    return 0


# ---------------------------------------------------------------------------
# Verification suites. Each returns a list of (label, ok, detail) cases.


def _suite_table1(args) -> list:
    cases = []
    targets = [
        ("P_2", path_graph(2), 2),
        ("C_3", cycle_graph(3), 3),
        ("C_5", cycle_graph(5), 5),
    ]
    for m in range(1, 5):
        for n in range(m, 5):
            # K_{1,1} is P_2, whose period is 2, not 4
            want = 2 if (m, n) == (1, 1) else 4
            targets.append(("K_{%d,%d}" % (m, n), complete_bipartite(m, n), want))
    for label, g, want in targets:
        rep = find_period(g)
        ok = rep.verdict == "periodic" and rep.period == want
        detail = "" if ok else "got %s/%s" % (rep.verdict, rep.period)
        cases.append(("%s period %d" % (label, want), ok, detail))
    return cases


def _suite_spectral_map(args) -> list:
    cases = []
    worst = 0.0
    count = 0
    for n in range(2, 7):
        for g in enumerate_connected(n):
            rep = spectral_map_check(g)
            count += 1
            worst = max(worst, rep.max_residual)
            if not rep.matched:
                cases.append(
                    (
                        "spectral map n=%d edges=%s" % (n, g.edges),
                        False,
                        "max residual %.3e, unexplained %d"
                        % (rep.max_residual, rep.unexplained),
                    )
                )
    cases.append(
        (
            "spectral map matched on %d connected graphs (n <= 6)" % count,
            True,
            "worst residual %.3e" % worst,
        )
    )
    return cases


def _twotail_grid() -> list:
    return [(k, r) for k in (3, 5) for r in range(1, 6)]


def _suite_identities(args) -> list:
    cases = []

    count = 0
    bad = 0
    for g in enumerate_odd_unicyclic(8):
        d = classify(g).decomposition
        for t in range((g.n - d.girth) // 2 + 1):
            count += 1
            if not cycle_matching_identity_check(g, d, t):
                bad += 1
                cases.append(
                    ("cycle-matching edges=%s t=%d" % (g.edges, t), False, "mismatch")
                )
    cases.append(
        ("cycle-matching identity, %d instances (n <= 8)" % count, bad == 0, "")
    )

    count = 0
    bad = 0
    for k, r in _twotail_grid():
        g = two_tail_graph(k, r)
        for i in range(g.n // 2 + 1):
            for rr in range(1, r):
                count += 1
                if not tail_recurrence_check(g, i, rr):
                    bad += 1
                    cases.append(
                        (
                            "tail recurrence k=%d r=%d i=%d depth=%d" % (k, r, i, rr),
                            False,
                            "mismatch",
                        )
                    )
    cases.append(("tail recurrence, %d instances" % count, bad == 0, ""))

    count = 0
    bad = 0
    for k, r in _twotail_grid():
        g = two_tail_graph(k, r)
        for t in range(g.n // 2 + 1):
            count += 1
            if not matching_split_check(g, t):
                bad += 1
                cases.append(
                    ("matching split k=%d r=%d t=%d" % (k, r, t), False, "mismatch")
                )
    cases.append(("matching split, %d instances" % count, bad == 0, ""))

    count = 0
    bad = 0
    for k, r in _twotail_grid():
        g = two_tail_graph(k, r)
        for inst in branch_integrality_instances(g):
            count += 1
            if not inst.holds:
                bad += 1
                cases.append(
                    (
                        "integrality k=%d r=%d i=%d" % (k, r, inst.i),
                        False,
                        "scaled values %s, %s"
                        % (inst.scaled_outer, inst.scaled_paired),
                    )
                )
    cases.append(("branch integrality, %d instances" % count, bad == 0, ""))
    return cases


def _suite_chebyshev(args) -> list:
    cases = []
    worst = 0.0
    for k in args.k_list:
        for r in args.r_list:
            rep = chebyshev_eigen_check(k, r)
            worst = max(worst, rep.max_residual)
            cases.append(
                (
                    "chebyshev k=%d r=%d" % (k, r),
                    rep.max_residual <= 1e-10,
                    "max residual %.3e" % rep.max_residual,
                )
            )
    cases.append(("chebyshev grid max residual %.3e" % worst, True, ""))
    return cases


def _suite_main_theorem(args) -> list:
    cases = []
    result = run_census(args.max_n, cap=max(ENUMERATION_CAP, args.max_n))
    odd = result.odd_periodic()
    for record in odd:
        ok = record.is_cycle and record.period_report.period == record.graph.n
        cases.append(
            (
                "odd-periodic record n=%d" % record.graph.n,
                ok,
                "period %s, cycle %s" % (record.period_report.period, record.is_cycle),
            )
        )
    got = sorted(r.graph.n for r in odd)
    want = list(range(3, args.max_n + 1, 2))
    cases.append(
        (
            "odd-periodic graphs are exactly the odd cycles up to n=%d" % args.max_n,
            got == want,
            "cycle lengths found %s, expected %s" % (got, want),
        )
    )
    stray = [
        r
        for r in result.records
        if not r.is_cycle
        and r.period_report is not None
        and r.period_report.verdict == "periodic"
        and r.period_report.period % 2 == 1
    ]
    cases.append(
        (
            "no odd-periodic non-cycle among %d records" % len(result.records),
            not stray,
            "offenders %s" % [r.graph.edges for r in stray],
        )
    )
    cases.append(
        (
            "census complete within budget",
            not result.budget_hits(),
            "%d records hit the bit budget" % len(result.budget_hits()),
        )
    )
    return cases


_SUITES = {
    "table1": _suite_table1,
    "spectral-map": _suite_spectral_map,
    "identities": _suite_identities,
    "chebyshev": _suite_chebyshev,
    "main-theorem": _suite_main_theorem,
}


def cmd_verify(args) -> int:
    try:
        args.k_list = _parse_span(args.k)
        args.r_list = _parse_span(args.r)
    except ValueError as err:
        raise GroverWalkError("bad --k/--r span: %s" % err) from err
    cases = _SUITES[args.suite](args)
    lines = []
    failures = 0
    for label, ok, detail in cases:
        if ok:
            lines.append("ok   %s%s" % (label, (": " + detail) if detail else ""))
        else:
            failures += 1
            lines.append("FAIL %s: %s" % (label, detail))
    verdict = "pass" if failures == 0 else "fail (%d cases)" % failures
    lines.append("suite %s: %s" % (args.suite, verdict))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def _parse_span(text: str) -> list[int]:
    """Accept "3,5,7" or "2..6" style integer lists."""
    if ".." in text:
        lo, hi = text.split("..", 1)
        return list(range(int(lo), int(hi) + 1))
    return [int(part) for part in text.split(",") if part]


# ---------------------------------------------------------------------------
# Argument parsing.


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", help="family spec, e.g. cycle:5 or twotail:3,2")
    common.add_argument("--out", help="write output to this file instead of stdout")
    common.add_argument(
        "--json", action="store_true", help="compact single-line JSON"
    )
    common.add_argument("--max-n", type=int, default=ENUMERATION_CAP)
    common.add_argument(
        "--no-timing", action="store_true", help="omit timing for stable output"
    )

    parser = argparse.ArgumentParser(
        prog="groverwalk",
        description="Exact Grover-walk periodicity toolkit for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = sub.add_parser(
        "analyze", parents=[common], help="full report for one graph"
    )
    p_analyze.add_argument("graph", nargs="?", help="graph file path")
    p_analyze.set_defaults(func=cmd_analyze)

    p_census = sub.add_parser(
        "census", parents=[common], help="survey odd-unicyclic graphs up to --max-n"
    )
    p_census.set_defaults(func=cmd_census)

    p_verify = sub.add_parser(
        "verify", parents=[common], help="run a named verification suite"
    )
    p_verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    p_verify.add_argument("--k", default="3,5,7", help="cycle lengths, e.g. 3,5,7")
    p_verify.add_argument("--r", default="2..6", help="tail parameter span, e.g. 2..6")
    p_verify.set_defaults(func=cmd_verify)

    p_gen = sub.add_parser(
        "gen", parents=[common], help="write a family graph file"
    )
    p_gen.set_defaults(func=cmd_gen)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except BudgetExceededError as err:
        print("budget exceeded: %s" % err, file=sys.stderr)
        return 3
    except GroverWalkError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    except OSError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
