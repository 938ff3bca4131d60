"""Command-line front end.

Four commands: analyze a single graph, generate a family member, run the
odd-unicyclic census, and run the verification suites. Analysis and census
reports are single JSON documents with deterministic serialization: sorted
keys, exact rationals as reduced "p/q" strings, floating-point values as
strings with 15 significant digits, each written where its block is made,
the rationals from a CharPoly's integers. Identical invocations produce
byte-identical output when timing is suppressed. The census report is
streamed: each record block is written as soon as it is analysed, and
only the summary is kept.

Exit codes: 0 success, 1 verification failure, 2 usage or parse error
(an oversized input included), 141 (128 + SIGPIPE, nothing on stderr)
when the reader of stdout closes it early. Every period is certified
exactly from the arc characteristic polynomial, so no run stops at a
size budget. A file given to --out is written whole or not at all;
stdout may hold a partial report when the exit code is 2.

No command builds a Fraction, and json is imported by the reports that
print it, so verify and gen load none of fractions, decimal and json.
"""

from __future__ import annotations

import math
import os
import stat
import sys
import time
import types

from .census import CensusRecord, analyze_graph
from .exceptions import CapExceededError, GroverWalkError, ResidualExceededError
from .families import (
    FamilySpec,
    complete_bipartite,
    cycle_graph,
    family_arcs,
    iter_connected,
    iter_odd_unicyclic,
    make_family,
    parse_family,
    path_graph,
    two_tail_graph,
)
from .graphs import (
    MAX_FILE_EDGES,
    Classification,
    Graph,
    _quote,
    _read_int,
    classify,
    read_graph_file,
    write_graph_file,
)
from .periodicity import (
    branch_integrality_instances,
    chebyshev_eigen_check,
    cycle_matching_identity_check,
    find_period,
    matching_split_check,
    tail_recurrence_check,
)
from .walk import spectral_map_check

# Largest arc count 2m that analyze, gen and the chebyshev grid accept. A
# family or grid is checked from its closed form before it is built, a
# graph file from its length and header by read_graph_file.
ARC_CAP = 2 * MAX_FILE_EDGES

# Default --max-n of census and of the main-theorem suite; each enumerator
# has its own limit.
ENUMERATION_CAP = 9


# ---------------------------------------------------------------------------
# Deterministic JSON serialization.


def _ratio(p: int, q: int) -> str:
    """p/q, q > 0, as the reduced string "p/q"."""
    g = math.gcd(p, q)
    return "%d/%d" % (p // g, q // g)


def _seconds(started: float) -> str:
    return format(time.perf_counter() - started, ".15g")


def _dumps(value, args, level: int = 0) -> str:
    """value as JSON with sorted keys, compact under --json, else indented.

    Each newline of the indented form also gets the indentation of
    nesting level, so a block serialized on its own reads as it would
    inside the whole document. JSON strings escape their newlines, so
    only the layout's newlines are touched.
    """
    import json

    if args.json:
        return json.dumps(value, sort_keys=True, separators=(",", ":"))
    text = json.dumps(value, sort_keys=True, indent=2)
    return text.replace("\n", "\n" + "  " * level) if level else text


def _write_out(out: str | None, body) -> None:
    """Call body(write) with a write function for the file out, or stdout.

    The file is written whole or not at all: when body raises, a regular
    file opened for it is removed before the error goes on. Stdout keeps
    what was written.
    """
    if not out:
        body(sys.stdout.write)
        return
    handle = open(out, "w", encoding="utf-8")
    regular = stat.S_ISREG(os.fstat(handle.fileno()).st_mode)
    try:
        with handle:
            body(handle.write)
    except BaseException:
        if regular:
            os.remove(out)
        raise


def _write_text(text: str, out: str | None) -> None:
    _write_out(out, lambda write: write(text))


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
        with open(args.graph, encoding="utf-8", errors="surrogateescape") as handle:
            return read_graph_file(handle)
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
    _write_text(_dumps(report, args) + "\n", args.out)
    return 0


def cmd_census(args) -> int:
    started = time.perf_counter()
    max_n = _parse_max_n(args.max_n)
    # past the enumeration's limit this raises, before --out is opened
    records = map(analyze_graph, iter_odd_unicyclic(max_n))
    _write_out(args.out, lambda write: _write_census(write, args, max_n, records, started))
    return 0


def _write_census(write, args, max_n: int, records, started: float) -> None:
    """Write the census report, each record block as soon as it is made.

    The bytes are those of _dumps on the whole report: the keys come in
    the sorted order max_n, records, summary, timing, and each block is
    indented to its nesting level. Only the record count and the
    odd-periodic summary entries are kept.
    """

    def brk(level: int) -> str:  # the line break before an item at level
        return "" if args.json else "\n" + "  " * level

    colon = ":" if args.json else ": "
    write('{%s"max_n"%s%d,%s"records"%s[' % (brk(1), colon, max_n, brk(1), colon))
    count = 0
    odd = []
    for record in records:
        write(("," if count else "") + brk(2) + _dumps(_record_block(record), args, 2))
        count += 1
        if record.odd_periodic:
            g = record.graph
            period = record.period_report.period
            odd.append({"n": g.n, "period": period, "edges": [list(e) for e in g.edges]})
    write((brk(1) if count else "") + "]")
    # the certificate has no budget; the key stays for readers
    tail = {"summary": {"total_records": count, "odd_periodic": odd, "budget_hits": 0}}
    if not args.no_timing:
        tail["timing"] = {"seconds": _seconds(started)}
    for key in sorted(tail):
        write(',%s"%s"%s%s' % (brk(1), key, colon, _dumps(tail[key], args, 1)))
    write(brk(0) + "}\n")


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
        for g in iter_connected(6):
            if g.n == 1:
                continue
            rep = spectral_map_check(g)
            worst = max(worst, rep.max_residual)
            yield (
                "spectral map n=%d edges=%s" % (g.n, g.edges),
                rep.matched,
                "max residual %.3e, unexplained %d" % (rep.max_residual, rep.unexplained),
            )

    return _tally(
        instances(),
        "spectral map matched on %d connected graphs (n <= 6)",
        lambda: "worst residual %.3e" % worst,
    )


def _cycle_matching_instances():
    for g in iter_odd_unicyclic(8):
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
    # the census stream, of which only the odd-periodic records are kept
    count = 0
    odd = []
    for record in map(analyze_graph, iter_odd_unicyclic(args.max_n)):
        count += 1
        if record.odd_periodic:
            odd.append(record)
    cases = []
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
            "no odd-periodic non-cycle among %d records" % count,
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
_SUITE_NAMES = ", ".join(sorted(_SUITES))

# The defaults of the verify flags, each under the one suite that reads it.
_SUITE_DEFAULTS = {
    "chebyshev": {"k": "3,5,7", "r": "2..6"},
    "main-theorem": {"max_n": str(ENUMERATION_CAP)},
}


def _suite_flags(args) -> None:
    """Fill in the defaults of the flags the suite reads; refuse the others."""
    if args.suite not in _SUITES:
        got = _quote(args.suite)
        raise GroverWalkError("unknown suite %s; choose from %s" % (got, _SUITE_NAMES))
    defaults = _SUITE_DEFAULTS.get(args.suite, {})
    for name in ("k", "r", "max_n"):
        if getattr(args, name) is None:
            setattr(args, name, defaults.get(name))
        elif name not in defaults:
            raise GroverWalkError(
                "suite %s does not read --%s" % (args.suite, name.replace("_", "-"))
            )
    if args.max_n is not None:
        args.max_n = _parse_max_n(args.max_n)


def cmd_verify(args) -> int:
    _suite_flags(args)
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

    A ".." span stays a range, so a huge one is never listed. An empty or
    reversed span, a non-integer and an integer of 2^63 or more are
    rejected, with at most 60 characters of the text quoted.
    """
    if ".." in text:
        lo, hi = text.split("..", 1)
        span = range(_parse_int(lo, text), _parse_int(hi, text) + 1)
    else:
        span = [_parse_int(part, text) for part in text.split(",") if part]
    if not span:
        raise ValueError("%s holds no values" % _quote(text))
    return span, span[-1] if isinstance(span, range) else max(span)


def _parse_int(part: str, text: str) -> int:
    """part read by graphs._read_int; an error quotes at most 60 characters
    of text."""
    try:
        return _read_int(part)
    except ValueError:
        raise ValueError("non-integer value in %s" % _quote(text)) from None
    except OverflowError:
        raise ValueError("value out of range in %s" % _quote(text)) from None


def _parse_max_n(text: str) -> int:
    """The --max-n of census and main-theorem, parsed as a span value is."""
    try:
        return _parse_int(text, text)
    except ValueError as err:
        raise GroverWalkError("bad --max-n: %s" % err) from None


# ---------------------------------------------------------------------------
# The command line. _COMMANDS gives each command its help and the flags it
# reads, each with its default and help. A default of False makes a switch,
# and the Ellipsis a flag that must be given. "graph" is analyze's path.

_OUT = {"--out": (None, "write output to this file instead of stdout")}
_REPORT = {"--json": (False, "compact single-line JSON"),
           "--no-timing": (False, "omit timing for stable output"), **_OUT}
_FAMILY = "family spec, e.g. cycle:5 or twotail:3,2"
_COMMANDS = {
    "analyze": ("full report for one graph", {
        "graph": (None, "graph file path; give -- before one that starts with -"),
        "--family": (None, _FAMILY), **_REPORT}),
    "census": ("survey odd-unicyclic graphs up to --max-n", {
        "--max-n": (str(ENUMERATION_CAP), "census size (default %d)" % ENUMERATION_CAP),
        **_REPORT}),
    "verify": ("run a named verification suite", {
        "--suite": (..., "one of %s (required)" % _SUITE_NAMES),
        "--k": (None, "chebyshev cycle lengths (default 3,5,7)"),
        "--r": (None, "chebyshev tail parameter span (default 2..6)"),
        "--max-n": (None, "main-theorem census size (default %d)" % ENUMERATION_CAP),
        **_OUT}),
    "gen": ("write a family graph file", {"--family": (..., _FAMILY + " (required)"), **_OUT}),
}


def _print_help(command: str | None) -> None:
    """Print the help of command, or of the program, from _COMMANDS."""
    if command is None:
        text = "Exact Grover-walk periodicity toolkit; COMMAND --help lists its flags."
        rows = {name: (False, about) for name, (about, _) in _COMMANDS.items()}
    else:
        text, rows = _COMMANDS[command]
    lines = ["usage: groverwalk %s [FLAGS]" % (command or "COMMAND"), "", text, ""]
    for name, (default, about) in rows.items():
        shown = name + " VALUE" if name[0] == "-" and default is not False else name
        lines.append("  %-16s %s" % (shown, about))
    sys.stdout.write("\n".join(lines) + "\n")


def _read_argv(argv: list[str]):
    """The args of the command argv names, read by its _COMMANDS entry, or
    None once help is printed. A value is taken verbatim and the last of a
    repeated flag wins; a usage error raises GroverWalkError."""
    if argv[:1] in (["-h"], ["--help"]):
        return _print_help(None)
    if not argv or argv[0] not in _COMMANDS:
        got = "unknown command %s" % _quote(argv[0]) if argv else "no command given"
        raise GroverWalkError("%s; choose from %s" % (got, ", ".join(_COMMANDS)))
    command, tokens, paths = argv[0], iter(argv[1:]), []
    flags = _COMMANDS[command][1]
    values = {name: default for name, (default, _) in flags.items()}
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--":
            paths.extend(tokens)
        elif not token.startswith("-"):
            paths.append(token)
        elif token in ("-h", "--help"):
            return _print_help(command)
        elif name not in flags:
            raise GroverWalkError("%s does not read %s" % (command, _quote(name)))
        elif flags[name][0] is False and eq:
            raise GroverWalkError("%s takes no value" % name)
        elif flags[name][0] is False:
            values[name] = True
        else:
            values[name] = value if eq else next(tokens, None)
            if values[name] is None:
                raise GroverWalkError("%s needs a value" % name)
    if len(paths) > int("graph" in flags):
        raise GroverWalkError("unexpected argument %s" % _quote(paths[-1]))
    if paths:
        values["graph"] = paths[0]
    for name, value in values.items():
        if value is ...:
            raise GroverWalkError("%s needs %s" % (command, name))
    names = {name.lstrip("-").replace("-", "_"): value for name, value in values.items()}
    return types.SimpleNamespace(command=command, **names)


def main(argv=None) -> int:
    try:
        args = _read_argv(sys.argv[1:] if argv is None else list(argv))
        # looked up when called, so that a rebound cmd_ function is the one run
        status = 0 if args is None else globals()["cmd_" + args.command](args)
        sys.stdout.flush()  # a closed pipe may show only here
        return status
    except BrokenPipeError:
        # the reader left: end quietly with 128 + SIGPIPE; stdout goes to
        # devnull so that the flush at exit does not fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (GroverWalkError, OSError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
