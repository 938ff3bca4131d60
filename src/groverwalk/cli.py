"""Command-line front end.

Four commands: analyze a single graph, generate a family member, run the
odd-unicyclic census, and run the verification suites. Analysis and census
reports are single JSON documents with deterministic serialization: sorted
keys, exact rationals as reduced "p/q" strings, floating-point values as
strings with 15 significant digits, each written where its block is made,
the rationals from a CharPoly's integers. Identical invocations produce
byte-identical output when timing is suppressed.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(an oversized input included). Every period is certified exactly from the
arc characteristic polynomial, so no run stops at a size budget.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
import time

from .census import CensusRecord, analyze_graph, run_census
from .exceptions import CapExceededError, GroverWalkError, ResidualExceededError
from .families import (
    FamilySpec,
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
    find_period,
    matching_split_check,
    tail_recurrence_check,
)
from .walk import spectral_map_check

# Largest arc count 2m that analyze, gen and the chebyshev grid accept. The
# arc operator is 2m x 2m, and at this size one analyze takes seconds; a
# family or grid is checked from its closed form before it is built, a
# graph file right after parsing.
ARC_CAP = 128

# Default --max-n of census and verify; each enumerator has its own limit.
ENUMERATION_CAP = 9


# ---------------------------------------------------------------------------
# Deterministic JSON serialization.


def _ratio(p: int, q: int) -> str:
    """p/q, q > 0, as the reduced string "p/q"."""
    g = math.gcd(p, q)
    return "%d/%d" % (p // g, q // g)


def _seconds(started: float) -> str:
    return format(time.perf_counter() - started, ".15g")


def _emit(report: dict, args) -> None:
    if args.json:
        text = json.dumps(report, sort_keys=True, separators=(",", ":"))
    else:
        text = json.dumps(report, sort_keys=True, indent=2)
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
    ascending = [_ratio(c, cp.denominator) for c in cp.integer_coeffs]
    return {"matrix": "transition", "ascending": ascending}


def _degree_condition_block(cond) -> dict:
    block: dict = {"kind": cond.kind}
    if cond.vertex is not None:
        block["vertex"] = cond.vertex
    return block


def _record_block(record: CensusRecord) -> dict:
    rep = record.period_report
    failing = rep.failing_indices
    block = {
        "graph": _graph_block(record.graph),
        "classification": _classification_block(record.classification),
        "charpoly": _charpoly_block(record.charpoly),
        "integrality": {"failing_indices": failing, "passed": not failing},
        "period": {"verdict": rep.verdict, "period": rep.period},
    }
    if record.degree_condition is not None:
        block["degree_condition"] = _degree_condition_block(record.degree_condition)
    return block


# ---------------------------------------------------------------------------
# Commands.


def _check_arcs(arcs: int, what: str) -> None:
    if arcs > ARC_CAP:
        raise CapExceededError(
            "%s has %d arcs; at most %d are accepted" % (what, arcs, ARC_CAP)
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
    report = _record_block(analyze_graph(g))
    spectral = spectral_map_check(g)._asdict()
    spectral["max_residual"] = format(spectral["max_residual"], ".15g")
    report["spectral_map"] = spectral
    if not args.no_timing:
        report["timing"] = {"seconds": _seconds(started)}
    _emit(report, args)
    return 0


def cmd_census(args) -> int:
    started = time.perf_counter()
    # past the enumeration's limit it raises and we exit 2
    result = run_census(args.max_n)
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
            # the certificate has no budget; the key stays for readers
            "budget_hits": 0,
        },
    }
    if not args.no_timing:
        report["timing"] = {"seconds": _seconds(started)}
    _emit(report, args)
    return 0


def cmd_gen(args) -> int:
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


def _tally(instances, summary: str, detail=str) -> list:
    """The failing (label, ok, detail) instances, then one summary case.

    summary is formatted with the number of instances, and detail() is
    called once they are all checked. Passing instances are only counted.
    """
    cases = []
    count = 0
    for case in instances:
        count += 1
        if not case[1]:
            cases.append(case)
    cases.append((summary % count, not cases, detail()))
    return cases


def _suite_spectral_map(args) -> list:
    worst = 0.0

    def instances():
        nonlocal worst
        for n in range(2, 7):
            for g in enumerate_connected(n):
                rep = spectral_map_check(g)
                worst = max(worst, rep.max_residual)
                yield (
                    "spectral map n=%d edges=%s" % (n, g.edges),
                    rep.matched,
                    "max residual %.3e, unexplained %d"
                    % (rep.max_residual, rep.unexplained),
                )

    return _tally(
        instances(),
        "spectral map matched on %d connected graphs (n <= 6)",
        lambda: "worst residual %.3e" % worst,
    )


def _cycle_matching_instances():
    for g in enumerate_odd_unicyclic(8):
        d = classify(g).decomposition
        for t in range((g.n - d.girth) // 2 + 1):
            yield (
                "cycle-matching edges=%s t=%d" % (g.edges, t),
                cycle_matching_identity_check(g, d, t),
                "mismatch",
            )


def _suite_identities(args) -> list:
    grid = [(k, r, two_tail_graph(k, r)) for k in (3, 5) for r in range(1, 6)]
    tail = (
        (
            "tail recurrence k=%d r=%d i=%d depth=%d" % (k, r, i, rr),
            tail_recurrence_check(g, i, rr),
            "mismatch",
        )
        for k, r, g in grid
        for i in range(g.n // 2 + 1)
        for rr in range(1, r)
    )
    split = (
        (
            "matching split k=%d r=%d t=%d" % (k, r, t),
            matching_split_check(g, t),
            "mismatch",
        )
        for k, r, g in grid
        for t in range(g.n // 2 + 1)
    )
    integrality = (
        (
            "integrality k=%d r=%d i=%d" % (k, r, inst.i),
            inst.holds,
            "scaled values %s, %s" % (inst.scaled_outer, inst.scaled_paired),
        )
        for k, r, g in grid
        for inst in branch_integrality_instances(g)
    )
    return (
        _tally(
            _cycle_matching_instances(),
            "cycle-matching identity, %d instances (n <= 8)",
        )
        + _tally(tail, "tail recurrence, %d instances")
        + _tally(split, "matching split, %d instances")
        + _tally(integrality, "branch integrality, %d instances")
    )


def _suite_chebyshev(args) -> list:
    try:
        k_list, k_top = _parse_span(args.k)
        r_list, r_top = _parse_span(args.r)
    except ValueError as err:
        raise GroverWalkError("bad --k/--r span: %s" % err) from err
    # the largest case is twotail:k_top,r_top-1, checked before any graph is
    # built; an r below 2 is left for chebyshev_eigen_check to reject
    arcs = family_arcs(FamilySpec("twotail", (k_top, max(r_top - 1, 1))))
    _check_arcs(arcs, "chebyshev case k=%d r=%d" % (k_top, r_top))
    cases = []
    worst = 0.0
    for k in k_list:
        for r in r_list:
            label = "chebyshev k=%d r=%d" % (k, r)
            try:
                rep = chebyshev_eigen_check(k, r)
            except ResidualExceededError as err:
                # a failed identity is this case's verdict, not a usage error
                cases.append((label, False, str(err)))
                continue
            worst = max(worst, rep.max_residual)
            cases.append(
                (label, rep.max_residual <= 1e-10, "max residual %.3e" % rep.max_residual)
            )
    cases.append(("chebyshev grid max residual %.3e" % worst, True, ""))
    return cases


def _suite_main_theorem(args) -> list:
    if args.max_n < 3:
        # below the smallest odd cycle the census is empty and every case
        # would hold vacuously
        raise GroverWalkError(
            "main-theorem needs --max-n >= 3, got %d" % args.max_n
        )
    cases = []
    result = run_census(args.max_n)
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
    stray = [r for r in odd if not r.is_cycle]
    cases.append(
        (
            "no odd-periodic non-cycle among %d records" % len(result.records),
            not stray,
            "offenders %s" % [r.graph.edges for r in stray],
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
    cases = _SUITES[args.suite](args)
    lines = []
    failures = 0
    for label, ok, detail in cases:
        if ok:
            lines.append("ok   %s%s" % (label, (": " + detail) if detail else ""))
        else:
            failures += 1
            lines.append("FAIL %s%s" % (label, (": " + detail) if detail else ""))
    verdict = "pass" if failures == 0 else "fail (%d cases)" % failures
    lines.append("suite %s: %s" % (args.suite, verdict))
    _write_text("\n".join(lines) + "\n", args.out)
    return 0 if failures == 0 else 1


def _parse_span(text: str) -> tuple[range | list[int], int]:
    """Parse "3,5,7" or "2..6" into its values and the largest of them.

    A ".." span stays a range, so a huge one is never listed; an empty or
    reversed span is rejected.
    """
    if ".." in text:
        lo, hi = text.split("..", 1)
        span = range(int(lo), int(hi) + 1)
    else:
        span = [int(part) for part in text.split(",") if part]
    if not span:
        raise ValueError("%r holds no values" % text)
    return span, span[-1] if isinstance(span, range) else max(span)


# ---------------------------------------------------------------------------
# Argument parsing. Each command takes only the flags it reads.


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="groverwalk",
        description="Exact Grover-walk periodicity toolkit for small graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    analyze = sub.add_parser("analyze", help="full report for one graph")
    analyze.add_argument("graph", nargs="?", help="graph file path")
    census = sub.add_parser("census", help="survey odd-unicyclic graphs up to --max-n")
    verify = sub.add_parser("verify", help="run a named verification suite")
    verify.add_argument("--suite", required=True, choices=sorted(_SUITES))
    verify.add_argument("--k", default="3,5,7", help="cycle lengths, e.g. 3,5,7")
    verify.add_argument("--r", default="2..6", help="tail parameter span, e.g. 2..6")
    gen = sub.add_parser("gen", help="write a family graph file")

    family_help = "family spec, e.g. cycle:5 or twotail:3,2"
    analyze.add_argument("--family", help=family_help)
    gen.add_argument("--family", required=True, help=family_help)
    for p in (census, verify):
        p.add_argument("--max-n", type=int, default=ENUMERATION_CAP)
    for p in (analyze, census):
        p.add_argument("--json", action="store_true", help="compact single-line JSON")
        p.add_argument(
            "--no-timing", action="store_true", help="omit timing for stable output"
        )
    for p, func in [
        (analyze, cmd_analyze),
        (census, cmd_census),
        (verify, cmd_verify),
        (gen, cmd_gen),
    ]:
        p.add_argument("--out", help="write output to this file instead of stdout")
        p.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GroverWalkError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
