import contextlib
import gc
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groverwalk import cli, families, graphs, linalg, periodicity
from groverwalk.linalg import CharPoly
from groverwalk.census import analyze_graph, run_census
from groverwalk.exceptions import ResidualExceededError
from groverwalk.graphs import (
    MAX_FILE_CHARS,
    Graph,
    classify,
    write_graph_file,
)
from groverwalk.families import enumerate_connected, iter_connected, two_tail_graph
from groverwalk.periodicity import PeriodReport
from groverwalk.walk import arc_charpoly, spectral_map_check, transition_charpoly


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env() -> dict:
    # the child needs src on its path even when only pytest's config adds it
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return dict(os.environ, PYTHONPATH=path)


def run_cli(*argv, **kwargs):
    return subprocess.run(
        [sys.executable, "-m", "groverwalk", *argv],
        capture_output=True,
        text=True,
        env=_child_env(),
        **kwargs,
    )


# ---------------------------------------------------------------------------
# Library-level census.


def test_census_smallest():
    result = run_census(4)
    assert result.max_n == 4
    assert len(result.records) == 2
    triangle, paw = result.records
    assert triangle.graph.n == 3
    assert triangle.is_cycle
    assert triangle.odd_periodic
    assert triangle.period_report.period == 3
    assert paw.graph.n == 4
    assert not paw.is_cycle
    assert not paw.odd_periodic
    assert paw.period_report.verdict == "refuted_by_integrality"
    assert paw.period_report.failing_indices == (2, 3, 4)


def test_census_to_five():
    result = run_census(5)
    assert len(result.records) == 6
    odd = result.odd_periodic()
    assert [r.graph.n for r in odd] == [3, 5]
    assert all(r.is_cycle for r in odd)
    assert [r.period_report.period for r in odd] == [3, 5]


def test_census_record_consistency():
    for record in run_census(5).records:
        assert record.charpoly.degree == record.graph.n
        rep = record.period_report
        if rep.verdict == "refuted_by_integrality":
            assert rep.failing_indices
        else:
            assert rep.failing_indices == ()


def test_census_peels_each_record_once(count_runs, monkeypatch):
    # classify and the structural charpoly share one leaf peel per graph: the
    # memoised whole-graph peel runs once, and so does the one peel loop
    runs = count_runs(graphs._whole_peel)
    loop = graphs.peel_leaves

    def counted(*args):
        runs["peel_leaves"] += 1
        return loop(*args)

    for module in (graphs, linalg, periodicity):
        monkeypatch.setattr(module, "peel_leaves", counted)
    records = run_census(9).records
    assert len(records) == 247
    assert runs == {"_whole_peel": 247, "peel_leaves": 247}


def test_identities_suite_builds_each_branch_frame_once(capsys, count_runs):
    # the 10 two-tail graphs of the suite each get one frame, however many
    # identity instances read it
    runs = count_runs(periodicity.branch_frame)
    assert cli.main(["verify", "--suite", "identities"]) == 0
    assert capsys.readouterr().out.endswith("suite identities: pass\n")
    assert runs == {"branch_frame": 10}


# ---------------------------------------------------------------------------
# The streamed census and the per-graph memo.

_MEMOISED = (
    transition_charpoly,
    graphs._whole_peel,
    periodicity.branch_frame,
    periodicity._matching_poly,
)


@pytest.mark.parametrize(
    "argv, want",
    [
        (
            ["verify", "--suite", "identities"],
            # 175 distinct pools; a cache of the last 64 pools ran 187
            {"transition_charpoly": 102, "_whole_peel": 102, "branch_frame": 10,
             "_matching_poly": 175},
        ),
        (
            ["census", "--max-n", "8", "--json", "--no-timing"],
            {"transition_charpoly": 92, "_whole_peel": 92},
        ),
        (
            ["verify", "--suite", "main-theorem"],
            {"transition_charpoly": 247, "_whole_peel": 247},
        ),
    ],
    ids=["identities", "census-8", "main-theorem"],
)
def test_graph_caches_miss_once_per_artifact(argv, want, count_runs):
    # each artifact is computed once per graph a command builds
    runs = count_runs(*_MEMOISED)
    assert cli.main(argv + ["--out", os.devnull]) == 0
    assert runs == want


def _live_graphs() -> int:
    gc.collect()
    return sum(isinstance(obj, Graph) for obj in gc.get_objects())


def test_chebyshev_grid_frees_its_graphs():
    # nothing is kept between graphs, so a run leaves no more Graph objects
    # alive than it found
    argv = ["verify", "--suite", "chebyshev", "--out", os.devnull]
    before = _live_graphs()
    assert cli.main(argv + ["--k", "3,5,7,9", "--r", "2..16"]) == 0  # 60 graphs
    assert _live_graphs() == before


def test_enumerations_keep_no_graph_alive():
    before = _live_graphs()
    reps = enumerate_connected(6)
    assert _live_graphs() == before + len(reps) == before + 112
    del reps
    assert _live_graphs() == before
    argv = ["verify", "--suite", "spectral-map", "--out", os.devnull]
    assert cli.main(argv) == 0  # 142 graphs, n <= 6
    assert _live_graphs() == before


def test_connected_stream_holds_one_graph_at_a_time():
    # the stream keeps no Graph it has handed out, so a consumer that drops
    # each class has one alive at a time, with its memoised artifacts
    before = _live_graphs()
    count = 0
    for g in iter_connected(5):
        if g.n > 1:  # the lone vertex has no walk
            spectral_map_check(g)
        count += 1
        assert _live_graphs() == before + 1
        del g
        assert _live_graphs() == before
    assert count == 31
    assert _live_graphs() == before


def test_spectral_map_builds_each_level_once(monkeypatch):
    # one iter_connected(6) pass: each candidate join is searched once
    searches = Counter()
    search = families._canonical_bits

    def counting(adjbits, lower_twins):
        searches[len(adjbits)] += 1
        return search(adjbits, lower_twins)

    monkeypatch.setattr(families, "_canonical_bits", counting)
    argv = ["verify", "--suite", "spectral-map", "--out", os.devnull]
    assert cli.main(argv) == 0
    assert searches == {2: 1, 3: 2, 4: 8, 5: 53, 6: 417}
    assert sum(searches.values()) == 481


def _read_artifacts(g: Graph) -> None:
    """Every memoised function of the two-tail graph g, each read twice."""
    for _ in range(2):
        analyze_graph(g)
        spectral_map_check(g)
        periodicity.matching_split_check(g, 2)


def test_equal_graphs_built_apart_compute_their_own_artifacts(count_runs):
    # the memo lives on the Graph object, not on its value: an equal graph
    # built apart computes its artifacts again, each once
    runs = count_runs(*_MEMOISED, arc_charpoly)
    a, b = two_tail_graph(3, 2), two_tail_graph(3, 2)
    assert a == b and a is not b
    _read_artifacts(a)
    once = dict(runs)
    pools = once["_matching_poly"]
    assert pools > 1  # one run per pool
    assert once == {
        "transition_charpoly": 1,
        "arc_charpoly": 1,
        "_whole_peel": 1,
        "branch_frame": 1,
        "_matching_poly": pools,
    }
    _read_artifacts(b)
    _read_artifacts(a)
    assert runs == {name: 2 * count for name, count in once.items()}


def test_graph_artifacts_are_freed_with_it():
    def live() -> list[int]:
        gc.collect()
        kinds = Counter(map(type, gc.get_objects()))
        return [kinds[Graph], kinds[CharPoly], kinds[periodicity.BranchFrame]]

    before = live()
    g = two_tail_graph(3, 2)
    _read_artifacts(g)
    # the graph, and in its memo the two charpolys and the frame
    assert live() == [n + d for n, d in zip(before, (1, 2, 1))]
    del g
    assert live() == before


def test_census_is_written_as_it_is_analysed(monkeypatch):
    # each record block is out before the next class is analysed
    out = io.StringIO()
    sizes = []

    def analyze(g):
        sizes.append(len(out.getvalue()))
        return analyze_graph(g)

    monkeypatch.setattr(cli, "analyze_graph", analyze)
    with contextlib.redirect_stdout(out):
        assert cli.main(["census", "--max-n", "6", "--json", "--no-timing"]) == 0
    assert len(sizes) == 14
    assert all(a < b for a, b in zip(sizes, sizes[1:]))


@pytest.mark.parametrize("form", [["--json"], []], ids=["compact", "indented"])
@pytest.mark.parametrize("max_n", ["2", "3", "6"])
def test_census_stream_is_the_whole_report_dump(form, max_n, capsys):
    # the streamed bytes are json.dumps of the whole report, timing included;
    # --max-n 2 gives the empty record list
    assert cli.main(["census", "--max-n", max_n, *form]) == 0
    out = capsys.readouterr().out
    report = json.loads(out)
    assert list(report) == ["max_n", "records", "summary", "timing"]
    if form:
        whole = json.dumps(report, sort_keys=True, separators=(",", ":"))
    else:
        whole = json.dumps(report, sort_keys=True, indent=2)
    assert out == whole + "\n"
    assert len(report["records"]) == {"2": 0, "3": 1, "6": 14}[max_n]


def test_census_peak_memory_is_bounded(tmp_path):
    # the census keeps no record once its block is written; building the
    # whole report first reached a 46 MiB peak here
    target = str(tmp_path / "census12.json")
    argv = ["census", "--max-n", "12", "--json", "--no-timing", "--out", target]
    tracemalloc.start()
    try:
        assert cli.main(argv) == 0
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 << 20, peak
    digest = hashlib.sha256(Path(target).read_bytes()).hexdigest()
    assert digest == "77e32c264960699ffe44e628f777d32fc92b2f9ccd96af056c18188f93c573a6"


_LOADED_BY_COMMANDS = """
import contextlib, io, os, sys
from groverwalk import cli

def loaded(*names):
    # the command line is read from cli's own table: no command loads the
    # argument parser of the standard library, nor the gettext, locale and
    # shutil modules that it imports
    names += ("argparse", "gettext", "locale", "shutil")
    return " ".join(m for m in names if m in sys.modules)

print("import:" + loaded("dataclasses", "inspect", "fractions", "decimal", "json"))
for argv in (["--help"], ["analyze", "--help"]):
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0
    print("%s:" % " ".join(argv) + loaded("fractions", "decimal", "json"))
for suite in sorted(cli._SUITES):
    assert cli.main(["verify", "--suite", suite, "--out", os.devnull]) == 0
    print("verify %s:" % suite + loaded("fractions", "decimal", "json"))
for argv in (
    ["gen", "--family", "cycle:5"],
    ["analyze", "--family", "kbipartite:4,5", "--json", "--no-timing"],
    ["census", "--max-n", "6", "--json", "--no-timing"],
):
    assert cli.main(argv + ["--out", os.devnull]) == 0
    print("%s:" % argv[0] + loaded("fractions", "decimal"))
"""


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are NamedTuples and CharPoly a slots class, so starting
    # the CLI loads neither module (nor the ast, dis and tokenize behind them).
    # No command builds a Fraction, so none loads fractions or the decimal
    # module behind it, and only the JSON reports load json; the verify
    # suites and help run first, in the one interpreter, before a report
    # loads it. Help is printed from cli's flag table, and no command loads
    # argparse, gettext, locale or shutil.
    # -S keeps site out: a .pth hook of some installs imports inspect itself
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _LOADED_BY_COMMANDS],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 1 + len(cli._SUITES) + 5, lines
    assert all(line.endswith(":") for line in lines), lines


def test_period_block_holds_verdict_and_period(capsys):
    # the failing indices are printed once, in the integrality block
    assert list(PeriodReport._fields) == [
        "verdict",
        "period",
        "failing_indices",
    ]
    assert cli.main(["census", "--max-n", "6", "--json", "--no-timing"]) == 0
    blocks = json.loads(capsys.readouterr().out)["records"]
    for family in ("twotail:3,2", "path:4", "cycle:9"):
        assert cli.main(["analyze", "--family", family, "--json", "--no-timing"]) == 0
        blocks.append(json.loads(capsys.readouterr().out))
    for block in blocks:
        assert set(block["period"]) == {"verdict", "period"}
        assert set(block["integrality"]) == {"failing_indices", "passed"}


def test_analyze_graph_degree_condition_only_for_odd_unicycles(connected_by_n):
    graphs = [g for n in range(2, 7) for g in connected_by_n[n]]
    assert len(graphs) == 142
    kinds = set()
    for g in graphs:
        record = analyze_graph(g)
        odd_unicyclic = classify(g).kind == "odd_unicycle"
        kinds.add(record.classification.kind)
        assert (record.degree_condition is None) == (not odd_unicyclic)
        if not odd_unicyclic:
            assert not record.is_cycle
    assert kinds == {"tree", "bipartite", "odd_unicycle", "other"}


def test_analyze_report_is_census_record_block(tmp_path, capsys):
    assert cli.main(["census", "--max-n", "6", "--json", "--no-timing"]) == 0
    blocks = json.loads(capsys.readouterr().out)["records"]
    records = run_census(6).records
    assert len(blocks) == len(records) == 14
    for i, (block, record) in enumerate(zip(blocks, records)):
        g = record.graph
        assert block["graph"]["edges"] == [list(e) for e in g.edges]
        path = tmp_path / ("g%d.graph" % i)
        path.write_text(write_graph_file(g))
        assert cli.main(["analyze", str(path), "--json", "--no-timing"]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report.pop("spectral_map")["matched"] is True
        assert report == block


# ---------------------------------------------------------------------------
# CLI subprocess behaviour.


def test_cli_gen_analyze_round_trip(tmp_path):
    gen = run_cli("gen", "--family", "cycle:5")
    assert gen.returncode == 0
    path = tmp_path / "c5.graph"
    path.write_text(gen.stdout)

    from_file = run_cli("analyze", str(path), "--json", "--no-timing")
    from_family = run_cli("analyze", "--family", "cycle:5", "--json", "--no-timing")
    assert from_file.returncode == 0
    assert from_file.stdout == from_family.stdout
    report = json.loads(from_file.stdout)
    assert report["period"]["verdict"] == "periodic"
    assert report["period"]["period"] == 5
    assert report["classification"]["kind"] == "odd_unicycle"


def test_cli_analyze_twotail():
    proc = run_cli("analyze", "--family", "twotail:3,1", "--json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["period"]["period"] == 60
    assert report["charpoly"]["matrix"] == "transition"
    assert report["degree_condition"]["kind"] == "one_degree_four"
    assert report["spectral_map"]["matched"] is True


def test_cli_analyze_tree_has_no_degree_condition():
    proc = run_cli("analyze", "--family", "path:4", "--json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["classification"]["kind"] == "tree"
    assert "degree_condition" not in report
    assert isinstance(report["period"]["verdict"], str)


def test_cli_fraction_and_float_rendering():
    proc = run_cli("analyze", "--family", "cycle:3", "--json", "--no-timing")
    report = json.loads(proc.stdout)
    coeffs = report["charpoly"]["ascending"]
    assert coeffs == ["-1/4", "-3/4", "0/1", "1/1"]
    assert isinstance(report["spectral_map"]["max_residual"], str)
    float(report["spectral_map"]["max_residual"])


def test_census_ascending_is_fraction_rendering(capsys):
    # the "p/q" strings written from the integer form are the reduced
    # Fraction coefficients, on every census record with n <= 9
    assert cli.main(["census", "--max-n", "9", "--json", "--no-timing"]) == 0
    blocks = json.loads(capsys.readouterr().out)["records"]
    records = run_census(9).records
    assert len(blocks) == len(records) == 247
    for block, record in zip(blocks, records):
        want = ["%d/%d" % (c.numerator, c.denominator) for c in record.charpoly.coeffs]
        assert block["charpoly"]["ascending"] == want


def test_cli_output_builds_no_fraction_coefficients(monkeypatch, capsys):
    # census and analyze write their reports from the integer form alone
    def refuse(*args):
        raise AssertionError("Fraction coefficients built")

    monkeypatch.setattr(CharPoly, "coeffs", property(refuse))
    monkeypatch.setattr(CharPoly, "__getitem__", refuse)
    assert cli.main(["census", "--max-n", "7", "--json", "--no-timing"]) == 0
    assert json.loads(capsys.readouterr().out)["summary"]["total_records"] == 37
    for family in ("twotail:3,2", "path:4", "kbipartite:2,3", "cycle:9"):
        assert cli.main(["analyze", "--family", family]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["spectral_map"]["matched"] is True
        float(report["timing"]["seconds"])


def test_cli_determinism():
    runs = [
        run_cli("census", "--max-n", "5", "--json", "--no-timing").stdout
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    pretty = run_cli("census", "--max-n", "5", "--no-timing").stdout
    assert json.loads(pretty) == json.loads(runs[0])


def test_cli_census_summary():
    proc = run_cli("census", "--max-n", "5", "--json", "--no-timing")
    assert proc.returncode == 0
    report = json.loads(proc.stdout)
    assert report["summary"]["total_records"] == 6
    assert report["summary"]["budget_hits"] == 0
    odd = report["summary"]["odd_periodic"]
    assert [entry["n"] for entry in odd] == [3, 5]
    assert [entry["period"] for entry in odd] == [3, 5]
    assert len(report["records"]) == 6


def test_cli_timing_present_by_default():
    proc = run_cli("analyze", "--family", "cycle:3", "--json")
    report = json.loads(proc.stdout)
    assert "timing" in report
    assert float(report["timing"]["seconds"]) >= 0.0


def test_cli_out_file(tmp_path):
    target = tmp_path / "report.json"
    proc = run_cli(
        "analyze", "--family", "cycle:4", "--json", "--no-timing", "--out", str(target)
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    report = json.loads(target.read_text())
    assert report["period"]["period"] == 4


def test_census_out_file_is_whole_or_absent(tmp_path, monkeypatch, capsys):
    # over the cap nothing is opened; a failure after the first record
    # removes the partial file, while stdout keeps what it was sent
    target = tmp_path / "census.json"
    argv = ["census", "--max-n", "6", "--json", "--no-timing"]
    assert cli.main(["census", "--max-n", "13", "--out", str(target)]) == 2
    assert not target.exists()
    assert "exceeds the limit 12" in capsys.readouterr().err
    calls = []

    def analyze(g):
        calls.append(g)
        if len(calls) == 5:
            raise ResidualExceededError("forced failure on the fifth class")
        return analyze_graph(g)

    monkeypatch.setattr(cli, "analyze_graph", analyze)
    assert cli.main(argv + ["--out", str(target)]) == 2
    assert not target.exists()
    assert capsys.readouterr().err == "error: forced failure on the fifth class\n"
    calls.clear()
    assert cli.main(argv) == 2
    assert capsys.readouterr().out.startswith('{"max_n":6,"records":[{')


@pytest.mark.parametrize(
    "argv",
    [
        ("analyze", "--family", "nosuch:3"),
        ("analyze", "--family", "twotail:4,2"),
        ("analyze", "/nonexistent/never.graph"),
        ("analyze",),
        ("census", "--max-n", "13"),
        ("gen",),
        ("census", "--max-n", "5", "--k-max", "10"),
        ("verify", "--suite", "table1", "--family", "cycle:5", "--json"),
        ("verify", "--suite", "table1", "--no-timing"),
        ("census", "--family", "cycle:5"),
        ("analyze", "--family", "cycle:5", "--max-n", "5"),
        ("gen", "--family", "cycle:3", "--json"),
        ("gen", "--family", "cycle:3", "--no-timing"),
        ("verify", "--suite", "chebyshev", "--k", ""),
        ("verify", "--suite", "chebyshev", "--r", "6..2"),
        ("verify", "--suite", "chebyshev", "--r", "2.."),
        ("verify", "--suite", "spectral-map", "--max-n", "3"),
        ("verify", "--suite", "identities", "--k", "99"),
    ],
    ids=[
        "bad-kind",
        "even-cycle-family",
        "missing-file",
        "no-source",
        "over-cap",
        "gen-no-family",
        "removed-k-max",
        "verify-unread-family-json",
        "verify-unread-no-timing",
        "census-unread-family",
        "analyze-unread-max-n",
        "gen-unread-json",
        "gen-unread-no-timing",
        "empty-span",
        "reversed-span",
        "open-span",
        "spectral-map-unread-max-n",
        "identities-unread-k",
    ],
)
def test_cli_exit_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.strip()


def test_cli_closed_stdout_ends_quietly():
    # the reader of a 321 kB census leaves after 100 bytes, so later writes
    # meet a closed pipe: the run stops with the status of a process stopped
    # by SIGPIPE, 128 + 13, and writes nothing to stderr
    child = subprocess.Popen(
        [sys.executable, "-m", "groverwalk", "census", "--max-n", "9"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=_child_env(),
    )
    assert child.stdout.read(100).startswith(b'{\n  "max_n": 9,')
    child.stdout.close()
    assert child.wait(timeout=120) == 141
    assert child.stderr.read() == b""
    child.stderr.close()


def test_verify_flags_reach_only_the_suite_that_reads_them(monkeypatch, capsys):
    # --k and --r are read by chebyshev and --max-n by main-theorem, which
    # alone fill in their defaults; any other suite refuses the flag before
    # it runs
    seen = {}
    for suite in cli._SUITES:
        monkeypatch.setitem(
            cli._SUITES, suite, lambda args: seen.update({args.suite: args}) or []
        )
    reader = {"--k": "chebyshev", "--r": "chebyshev", "--max-n": "main-theorem"}
    for suite in sorted(cli._SUITES):
        assert cli.main(["verify", "--suite", suite]) == 0
        for flag, value in (("--k", "3"), ("--r", "2..3"), ("--max-n", "5")):
            if reader[flag] == suite:
                continue
            assert cli.main(["verify", "--suite", suite, flag, value]) == 2
            err = capsys.readouterr().err
            assert err == "error: suite %s does not read %s\n" % (suite, flag)
    flags = {suite: (a.k, a.r, a.max_n) for suite, a in seen.items()}
    assert flags == {
        "chebyshev": ("3,5,7", "2..6", None),
        "identities": (None, None, None),
        "main-theorem": (None, None, cli.ENUMERATION_CAP),
        "spectral-map": (None, None, None),
        "table1": (None, None, None),
    }


@pytest.mark.parametrize("command", ["analyze", "gen"])
@pytest.mark.parametrize("family", ["twotail:3,1000000", "path:1000000000", "kbipartite:9,8"])
def test_cli_family_over_arc_cap(command, family, monkeypatch, capsys):
    # the cap is read from the closed form, so the graph is never built
    def refuse(spec):
        raise AssertionError("built %s" % (spec,))

    monkeypatch.setattr(cli, "make_family", refuse)
    assert cli.main([command, "--family", family]) == 2
    assert "at most %d" % cli.ARC_CAP in capsys.readouterr().err


@pytest.mark.parametrize(
    "span",
    [("--r", "2..100"), ("--k", "3,201"), ("--k", "131,3,5")],
    ids=["long-tails", "long-cycle", "unsorted-list"],
)
def test_cli_chebyshev_span_over_arc_cap(span, monkeypatch, capsys):
    # the largest case is checked from its closed form, so no graph is built
    def refuse(k, r):
        raise AssertionError("built twotail:%d,%d" % (k, r))

    monkeypatch.setattr(periodicity, "two_tail_graph", refuse)
    monkeypatch.setattr(cli, "two_tail_graph", refuse)
    assert cli.main(["verify", "--suite", "chebyshev", *span]) == 2
    assert "at most %d" % cli.ARC_CAP in capsys.readouterr().err


def test_cli_chebyshev_span_at_arc_cap(capsys):
    # twotail:9,27 has 126 arcs, the most a two-tail can have within
    # ARC_CAP = 128, and twotail:9,28 has 130
    assert cli.main(["verify", "--suite", "chebyshev", "--k", "9", "--r", "28"]) == 0
    assert capsys.readouterr().out.endswith("suite chebyshev: pass\n")
    assert cli.main(["verify", "--suite", "chebyshev", "--k", "9", "--r", "29"]) == 2
    assert "k=9 r=29 has 130 arcs" in capsys.readouterr().err


def test_cli_chebyshev_failing_case_is_reported(monkeypatch, capsys):
    # a ResidualExceededError fails its own case; the rest still run and
    # verify exits 1, not 2
    check = periodicity.chebyshev_eigen_check

    def failing(k, r):
        if (k, r) == (5, 3):
            raise ResidualExceededError("T_2 does not divide the transition charpoly")
        return check(k, r)

    monkeypatch.setattr(cli, "chebyshev_eigen_check", failing)
    assert cli.main(["verify", "--suite", "chebyshev", "--k", "3,5", "--r", "2..3"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "ok   chebyshev k=3 r=2: max residual 0.000e+00",
        "ok   chebyshev k=3 r=3: max residual 0.000e+00",
        "ok   chebyshev k=5 r=2: max residual 0.000e+00",
        "FAIL chebyshev k=5 r=3: T_2 does not divide the transition charpoly",
        "ok   chebyshev grid max residual 0.000e+00",
        "suite chebyshev: fail (1 cases)",
    ]


def test_cli_arc_cap_boundary(capsys):
    # path:65 has exactly ARC_CAP arcs, path:66 two more
    assert cli.ARC_CAP == 128
    assert cli.main(["gen", "--family", "path:65"]) == 0
    assert capsys.readouterr().out.startswith("65 64\n")
    assert cli.main(["gen", "--family", "path:66"]) == 2
    assert "path:66 has 130 arcs" in capsys.readouterr().err


def test_cli_graph_file_over_arc_cap(tmp_path, capsys):
    path = tmp_path / "big.graph"
    path.write_text("66 65\n" + "".join("%d %d\n" % (i, i + 1) for i in range(65)))
    assert cli.main(["analyze", str(path)]) == 2
    assert "130 arcs" in capsys.readouterr().err


def test_cli_graph_file_refused_from_its_header(tmp_path, capsys):
    # the declared m is checked before any edge line is parsed, so the
    # malformed second line is never read
    path = tmp_path / "huge.graph"
    path.write_text("1000001 1000000\nx y\n")
    assert cli.main(["analyze", str(path)]) == 2
    assert "at most %d" % cli.ARC_CAP in capsys.readouterr().err


def test_cli_one_line_graph_file_gets_a_short_error(tmp_path, capsys):
    # a header and 4,999 edges on one line, under the character cap with no
    # break: the error names line 1 and quotes only the start of it
    path = tmp_path / "oneline.graph"
    edges = " ".join("%d %d" % (i, i + 1) for i in range(4999))
    path.write_text("5000 4999 " + edges)
    assert path.stat().st_size <= MAX_FILE_CHARS
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "line 1: expected two integers, got '5000 4999 0 1" in err
    assert len(err) < 200


def test_cli_graph_file_over_char_cap_gets_a_short_error(tmp_path, capsys):
    # a header and 49,999 edges on one line, 10^5 tokens and 578 KB:
    # refused by its length after one bounded read
    path = tmp_path / "oneline.graph"
    edges = " ".join("%d %d" % (i, i + 1) for i in range(49999))
    path.write_text("50000 49999 " + edges)
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "exceeds %d characters" % MAX_FILE_CHARS in err
    assert len(err) < 200


def test_cli_rejects_malformed_file(tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("2 1\n0 0\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "loop" in proc.stderr.lower()


def test_cli_non_utf8_graph_file_gets_a_short_error(tmp_path, capsys):
    path = tmp_path / "bad.graph"
    path.write_bytes(b"3 3\n0 1\n1 2\n0 2\xff\n")
    assert cli.main(["analyze", str(path)]) == 2
    err = capsys.readouterr().err
    assert "not UTF-8 text at byte offset 15" in err
    assert len(err) < 200 and "Traceback" not in err
    # the offset counts from the first byte of the file, a byte-order mark too
    path.write_bytes(b"\xef\xbb\xbf3 3\n0 1\xc3\n")
    assert cli.main(["analyze", str(path)]) == 2
    assert "not UTF-8 text at byte offset 10" in capsys.readouterr().err


def test_cli_byte_order_mark_is_dropped(tmp_path, capsys):
    text = b"3 3\n0 1\n1 2\n0 2\n"
    reports = []
    for name, data in (("plain.graph", text), ("bom.graph", b"\xef\xbb\xbf" + text)):
        path = tmp_path / name
        path.write_bytes(data)
        assert cli.main(["analyze", str(path), "--json", "--no-timing"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        reports.append(out)
    assert reports[0] == reports[1]


def run_main(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, err.getvalue()


def assert_clean_exit(code, err):
    # a report or a one-line error; an uncaught exception fails the test
    assert code in (0, 2), (code, err)
    assert len(err) < 200, err
    assert "Traceback" not in err, err


# integers near the ones a valid input holds, and up to 80 digits long
_numbers = st.one_of(
    st.integers(-2, 12),
    st.builds(
        lambda sign, digits: sign * 10**digits - 1,
        st.sampled_from([1, -1]),
        st.integers(1, 80),
    ),
)

_graph_lines = st.lists(st.tuples(_numbers, _numbers), min_size=1, max_size=14).map(
    lambda pairs: "".join("%d %d\n" % p for p in pairs).encode()[:256]
)

# a short pattern repeated, as in a line of NULs or of escapes
_repeated_bytes = st.builds(
    lambda chunk, times: (chunk * times)[:256],
    st.binary(min_size=1, max_size=3),
    st.integers(1, 128),
)

_family_texts = st.one_of(
    st.text(),
    st.text(min_size=100, max_size=400),
    st.builds(
        lambda kind, params: "%s:%s" % (kind, ",".join(map(str, params))),
        st.sampled_from(["cycle", "path", "kbipartite", "twotail", "Cycle ", "x", ""]),
        st.lists(_numbers, max_size=3),
    ),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(data=st.one_of(st.binary(max_size=256), _graph_lines, _repeated_bytes))
def test_cli_fuzzed_graph_file_exits_cleanly(data, tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz") / "input.graph"
    path.write_bytes(data)
    assert_clean_exit(*run_main(["analyze", str(path), "--json", "--no-timing"]))


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(text=_family_texts)
def test_cli_fuzzed_family_exits_cleanly(text):
    for command in ("analyze", "gen"):
        assert_clean_exit(*run_main([command, "--family=" + text]))


_span_texts = st.one_of(
    st.text(),
    st.builds("{}..{}".format, _numbers, _numbers),
    st.lists(_numbers, max_size=4).map(lambda values: ",".join(map(str, values))),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(flag=st.sampled_from(["--k", "--r"]), text=_span_texts)
def test_cli_fuzzed_chebyshev_span_exits_cleanly(flag, text):
    assert_clean_exit(*run_main(["verify", "--suite", "chebyshev", "%s=%s" % (flag, text)]))


def _runs_census(text: str) -> bool:
    try:
        return 1 <= int(text) <= 12
    except ValueError:
        return False


# texts for --max-n, none of which runs a census: a valid value is at most 12
_max_n_texts = st.one_of(
    st.text(),
    _numbers.map(str),
    st.integers(1, 5000).map(lambda digits: "9" * digits),
).filter(lambda text: not _runs_census(text))


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(text=_max_n_texts)
def test_cli_fuzzed_max_n_exits_cleanly(text):
    for argv in (["census"], ["verify", "--suite", "main-theorem"]):
        assert_clean_exit(*run_main(argv + ["--max-n=" + text]))


# the zero digits of scripts whose digits int() reads as it reads 0-9:
# Arabic-Indic, Extended Arabic-Indic, Devanagari and fullwidth
_FOREIGN_ZEROS = (0x0660, 0x06F0, 0x0966, 0xFF10)


def _lenient(value: int, style) -> str:
    """value, 0..99, spelled as int() reads it and no input parser does:
    two digits with "_" between them, or two digits of another script."""
    digits = "%02d" % value
    if style == "_":
        text = digits[0] + "_" + digits[1]
    else:
        text = "".join(chr(style + int(d)) for d in digits)
    assert int(text) == value
    return text


_styles = st.sampled_from(("_",) + _FOREIGN_ZEROS)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(at=st.integers(0, 7), style=_styles)
def test_cli_fuzzed_lenient_graph_file_token_exits_2(at, style, tmp_path_factory):
    # the triangle, with one token respelled
    tokens = "3 3 0 1 1 2 0 2".split()
    tokens[at] = _lenient(int(tokens[at]), style)
    path = tmp_path_factory.mktemp("lenient") / "input.graph"
    path.write_text("%s %s\n%s %s\n%s %s\n%s %s\n" % tuple(tokens), encoding="utf-8")
    code, err = run_main(["analyze", str(path), "--json", "--no-timing"])
    assert code == 2 and "non-integer token" in err, (tokens, err)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    template=st.sampled_from(["cycle:%s", "path:%s", "twotail:3,%s", "kbipartite:%s,2"]),
    value=st.integers(3, 9),
    style=_styles,
)
def test_cli_fuzzed_lenient_family_parameter_exits_2(template, value, style):
    family = template % _lenient(value, style)
    for command in ("analyze", "gen"):
        code, err = run_main([command, "--family=" + family])
        assert code == 2 and "non-integer parameter" in err, (family, err)


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    flag=st.sampled_from(["--k", "--r"]),
    template=st.sampled_from(["%s", "3,%s", "2..%s"]),
    value=st.integers(3, 5),
    style=_styles,
)
def test_cli_fuzzed_lenient_chebyshev_span_exits_2(flag, template, value, style):
    span = template % _lenient(value, style)
    code, err = run_main(["verify", "--suite", "chebyshev", "%s=%s" % (flag, span)])
    assert code == 2 and "non-integer value" in err, (flag, span, err)


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(value=st.integers(3, 7), style=_styles)
def test_cli_fuzzed_lenient_max_n_exits_2(value, style):
    text = _lenient(value, style)
    for argv in (["census"], ["verify", "--suite", "main-theorem"]):
        code, err = run_main(argv + ["--max-n=" + text])
        assert code == 2 and "non-integer value" in err, (argv, text, err)


# ---------------------------------------------------------------------------
# The command-line reader.


@pytest.mark.parametrize(
    "argv, error",
    [
        (["census", "--max-n", "5", "--k-max", "10"], "census does not read '--k-max'"),
        # no prefix of a flag stands for it
        (["analyze", "--fam", "cycle:5"], "analyze does not read '--fam'"),
        (["gen", "--fam=cycle:5"], "gen does not read '--fam'"),
        (["analyze", "--family"], "--family needs a value"),
        (["analyze", "a.graph", "b.graph"], "unexpected argument 'b.graph'"),
        (["census", "extra"], "unexpected argument 'extra'"),
        (["census", "--json=yes"], "--json takes no value"),
        (["analyze", "--no-timing="], "--no-timing takes no value"),
        (["verify"], "verify needs --suite"),
        (["verify", "--suite", "nosuch"], "unknown suite 'nosuch'; choose from "),
        (["verify", "--k", "3"], "verify needs --suite"),
        (["gen"], "gen needs --family"),
        (["gen", "--out", "x.graph"], "gen needs --family"),
        (["nosuch"], "unknown command 'nosuch'; choose from analyze, census, verify, gen"),
        (["--json"], "unknown command '--json'"),
        ([], "no command given; choose from analyze, census, verify, gen"),
        (["census", "-" + "x" * 500], "census does not read '-xxxx"),
        (["nosuch" * 100], "unknown command 'nosuchnosuch"),
    ],
)
def test_cli_usage_error_is_one_line_and_exit_two(argv, error, tmp_path, monkeypatch):
    # a usage error leaves main with 2 and one error line that quotes at
    # most 60 characters of the offending text, and no SystemExit; nothing
    # is built and no --out file is opened
    monkeypatch.chdir(tmp_path)
    monkeypatch.setattr(cli, "iter_odd_unicyclic", None)
    monkeypatch.setattr(cli, "make_family", None)
    code, err = run_main(argv + ["--out", "report.txt"] if argv[:1] == ["census"] else argv)
    assert code == 2
    assert err.startswith("error: " + error), err
    assert err.count("\n") == 1 and len(err) < 200, err
    assert not list(tmp_path.iterdir())


def test_cli_reads_flags_from_the_table(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    # --flag=value, a value that starts with -, and the last of a repeated
    # flag, which wins
    argv = ["gen", "--family=cycle:4", "--out", "-o.graph", "--family", "cycle:3"]
    assert cli.main(argv) == 0
    assert (tmp_path / "-o.graph").read_text() == write_graph_file(cli.cycle_graph(3))
    # -- before a path that starts with -
    assert cli.main(["analyze", "--json", "--no-timing", "--", "-o.graph"]) == 0
    by_path = capsys.readouterr().out
    assert cli.main(["analyze", "--family", "cycle:3", "--json", "--no-timing"]) == 0
    assert capsys.readouterr().out == by_path
    assert cli.main(["analyze", "-o.graph"]) == 2
    assert capsys.readouterr().err == "error: analyze does not read '-o.graph'\n"


@pytest.mark.parametrize("command", [None] + list(cli._COMMANDS))
@pytest.mark.parametrize("flag", ["--help", "-h"])
def test_cli_help_lists_every_flag(command, flag, capsys):
    argv = [flag] if command is None else [command, flag]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert out.startswith("usage: groverwalk %s [FLAGS]\n" % (command or "COMMAND"))
    names = cli._COMMANDS if command is None else cli._COMMANDS[command][1]
    listed = {line.split()[0] for line in out.splitlines() if line.startswith("  ")}
    assert listed == set(names)
    # help stops the reading: a flag after it is not checked
    assert cli.main(argv + ["--nosuch"]) == 0
    assert capsys.readouterr().out == out


# every flag of the table with its default; --max-n's default differs
# between census and verify, but both are values, not switches
_TABLE = {
    name: default for _, flags in cli._COMMANDS.values() for name, (default, _) in flags.items()
}
_FLAGS = sorted(name for name in _TABLE if name[0] == "-")
_SWITCHES = sorted(name for name, default in _TABLE.items() if default is False)
_UNKNOWN = ["--fam", "--k-max", "--suit", "--no-tim", "--js", "-x", "--FAMILY", "--fam=cycle:5"]
_free_text = st.one_of(st.text(max_size=12), st.sampled_from(["cycle:5", "3", "2..3", "table1"]))
# one step of the reader: a token that never takes the next one as its
# value, or a flag with its value, which may be any token at all
_step = st.one_of(
    st.sampled_from(_SWITCHES + ["-h", "--help", "--"]).map(lambda t: [t]),
    st.builds(lambda f, v: [f + "=" + v], st.sampled_from(_FLAGS), _free_text),
    st.builds(
        lambda f, v: [f, v],
        st.sampled_from(_FLAGS),
        st.one_of(_free_text, st.sampled_from(_FLAGS)),
    ),
    _free_text.filter(lambda t: t not in _FLAGS).map(lambda t: [t]),
)


@settings(derandomize=True, database=None, deadline=None, max_examples=300)
@given(
    command=st.sampled_from(list(cli._COMMANDS) * 4 + ["nosuch", "-h", "", "--json"]),
    steps=st.lists(_step, max_size=5),
    unknown=st.sampled_from(_UNKNOWN),
    tail=st.lists(st.one_of(_free_text, st.sampled_from(_FLAGS)), max_size=3),
)
def test_cli_fuzzed_argv_exits_cleanly(command, steps, unknown, tail, tmp_path_factory):
    # the unknown flag is read as a flag or, after --, as a path, so every
    # list ends in help, a usage error or a missing file: no census runs
    # and no --out file is opened
    argv = [command] + [token for step in steps for token in step] + [unknown] + tail
    cwd = os.getcwd()
    os.chdir(tmp_path_factory.getbasetemp())
    try:
        code, err = run_main(argv)
    finally:
        os.chdir(cwd)
    assert_clean_exit(code, err)
    assert code == 0 or err.startswith("error: "), (argv, err)
    if command != "-h" and ["-h"] not in steps and ["--help"] not in steps:
        assert code == 2, argv  # no help was asked for


def test_cli_verify_table1():
    proc = run_cli("verify", "--suite", "table1")
    assert proc.returncode == 0
    assert "suite table1: pass" in proc.stdout
    assert "FAIL" not in proc.stdout


@pytest.mark.parametrize(
    "span, error",
    [
        (("--k", "99"), "k=99 r=6 has 218 arcs"),
        (("--k", ""), "holds no values"),
        (("--r", "2..1000000000000"), "has 4000000000010 arcs"),
    ],
    ids=["k-over-arc-cap", "empty-k", "huge-r"],
)
def test_cli_verify_checks_spans_only_for_chebyshev(span, error, monkeypatch, capsys):
    # table1 reads neither --k nor --r, so it refuses the flag, whatever the span
    assert cli.main(["verify", "--suite", "table1", *span]) == 2
    err = capsys.readouterr().err
    assert err == "error: suite table1 does not read %s\n" % span[0]

    # chebyshev rejects the same span before it builds a graph
    def refuse(k, r):
        raise AssertionError("built twotail:%d,%d" % (k, r))

    monkeypatch.setattr(periodicity, "two_tail_graph", refuse)
    monkeypatch.setattr(cli, "two_tail_graph", refuse)
    assert cli.main(["verify", "--suite", "chebyshev", *span]) == 2
    assert error in capsys.readouterr().err


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    # a failing case must surface as exit 1 and a fail line, not a crash
    monkeypatch.setitem(
        cli._SUITES, "table1", lambda args: [("forced case", False, "wrong period")]
    )
    assert cli.main(["verify", "--suite", "table1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL forced case: wrong period" in out
    assert "suite table1: fail (1 cases)" in out


def test_cli_verify_tally_keeps_only_failures(monkeypatch, capsys):
    # a failing instance of a tallied identity is listed and fails its summary
    check = cli.matching_split_check
    monkeypatch.setattr(
        cli, "matching_split_check", lambda g, t: t != 1 and check(g, t)
    )
    assert cli.main(["verify", "--suite", "identities"]) == 1
    lines = capsys.readouterr().out.splitlines()
    fails = [line for line in lines if line.startswith("FAIL matching split k=")]
    assert len(fails) == 10
    assert all(line.endswith(" t=1: mismatch") for line in fails)
    assert "FAIL matching split, 55 instances" in lines
    assert "ok   tail recurrence, 130 instances" in lines
    assert lines[-1] == "suite identities: fail (11 cases)"
    assert sum(line.startswith("FAIL") for line in lines) == 11


@pytest.mark.parametrize("max_n", ["2", "0", "-4"])
def test_cli_main_theorem_below_smallest_cycle(max_n, monkeypatch, capsys):
    # no odd cycle fits, so the suite would pass on an empty census
    def refuse(*args, **kwargs):
        raise AssertionError("ran the census")

    monkeypatch.setattr(cli, "iter_odd_unicyclic", refuse)
    assert cli.main(["verify", "--suite", "main-theorem", "--max-n", max_n]) == 2
    err = capsys.readouterr().err
    assert "--max-n >= 3" in err and max_n in err


def test_cli_main_theorem_at_smallest_cycle(capsys):
    assert cli.main(["verify", "--suite", "main-theorem", "--max-n", "3"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert "ok   odd-periodic record n=3" in lines[0]
    assert lines[-1] == "suite main-theorem: pass"


def test_cli_verify_chebyshev_span():
    proc = run_cli("verify", "--suite", "chebyshev", "--k", "3", "--r", "2..3")
    assert proc.returncode == 0
    assert "suite chebyshev: pass" in proc.stdout


def test_console_script_available(capsys):
    exe = shutil.which("groverwalk")
    if exe is None:
        # not installed: the entry point it would be installed from, matched
        # as text because Python 3.10 has no tomllib
        text = (Path(SRC).parent / "pyproject.toml").read_text(encoding="utf-8")
        script = r'^\[project\.scripts\]\ngroverwalk = "groverwalk\.cli:main"$'
        assert re.search(script, text, re.MULTILINE), "no groverwalk script"
    else:
        proc = subprocess.run(
            [exe, "gen", "--family", "cycle:3"], capture_output=True, text=True
        )
        assert proc.returncode == 0
        assert proc.stdout.startswith("3 3")
    assert cli.main(["gen", "--family", "cycle:3"]) == 0
    assert capsys.readouterr().out.startswith("3 3\n")


# sha256 of the stdout of each run, recorded once and identical under
# Python 3.10 to 3.13; a change to any byte of these reports shows here
PINNED_OUTPUTS = {
    "census --max-n 9 --json --no-timing": "268846ee8d58b1e2a75af7a8160612fd8b962919d02f53db64f45a380d31779e",
    "census --max-n 5 --no-timing": "d0dbbe8f6292568ff18a427b4491a41a9efff148731bbee1b4584572113ef3f0",
    "analyze --family twotail:3,2 --json --no-timing": "d380138d097f00ecee9b439fd4a19b62671969c7bc85d8682360e38f63c1def0",
    "analyze --family path:12 --json --no-timing": "7de4598a1fba49abd6b020306cfd0a1f3207fb73f42737245e9cd3ff42f97a14",
    "analyze --family kbipartite:4,5 --json --no-timing": "051e08c25434289649fd58bfcfe4cb3949fdc0f1fed46c648a98093e166673b3",
    "analyze --family twotail:5,3 --json --no-timing": "8546b13744128a886551fc0034a3f9c20eeedf46c9464a9940096ca23ba42bbb",
    "analyze --family cycle:9 --json --no-timing": "bfb6232473b879ad4fda059d0715652dd2c045a29d707611f3881f0b4fbc52f5",
    "verify --suite table1": "f79af9af2f1edeec4c88c31921f4577a92753fdba5939367dca9ccdb8df6e84e",
    "verify --suite spectral-map": "d75c2e9ce90ea2a6a9d541ff2c709c355b02b4f18455fbe048f9422f8321716f",
    "verify --suite identities": "93a67e6387264cb9eb26527ee5eefefec015bcb2b4c0a242ab8bec4a2a724bf4",
    "verify --suite chebyshev": "316c273ac19576c54fec70ba1dce350755f7f224e06d238493b6c5c7c4e99376",
    "verify --suite main-theorem": "b4f4bf58f65d8507f44a3e653d2c71e05155723b29f90c8625ff77b907138e88",
    "verify --suite chebyshev --k 3,5,7,9 --r 2..16": "1f2b2cee215b30ffdd180c73d3f78a082d1c6e119063da7d227b3cfb8b7a2b1d",
}


@pytest.mark.parametrize("command", sorted(PINNED_OUTPUTS))
def test_cli_output_bytes_are_pinned(command, capsys):
    assert cli.main(command.split(" ")) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == PINNED_OUTPUTS[command]
