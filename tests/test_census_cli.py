import hashlib
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from groverwalk import cli, periodicity
from groverwalk.linalg import CharPoly
from groverwalk.census import analyze_graph, run_census
from groverwalk.exceptions import ResidualExceededError
from groverwalk.graphs import classify, peel_leaves, write_graph_file
from groverwalk.periodicity import PeriodReport
from groverwalk.walk import transition_charpoly


SRC = str(Path(__file__).resolve().parent.parent / "src")


def run_cli(*argv, **kwargs):
    # the child needs src on its path even when only pytest's config adds it
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "groverwalk", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
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
    assert result.budget_hits() == ()


def test_census_record_consistency():
    for record in run_census(5).records:
        assert record.charpoly.degree == record.graph.n
        rep = record.period_report
        if rep.verdict == "refuted_by_integrality":
            assert rep.failing_indices
        else:
            assert rep.failing_indices == ()


def test_census_peels_each_record_once():
    # classify and the structural charpoly share one leaf peel per graph
    peel_leaves.cache_clear()
    transition_charpoly.cache_clear()
    records = run_census(9).records
    assert len(records) == 247
    assert peel_leaves.cache_info().misses == 247


def test_identities_suite_builds_each_branch_frame_once(capsys):
    # the 10 two-tail graphs of the suite each get one frame, however many
    # identity instances read it
    periodicity.branch_frame.cache_clear()
    assert cli.main(["verify", "--suite", "identities"]) == 0
    assert capsys.readouterr().out.endswith("suite identities: pass\n")
    assert periodicity.branch_frame.cache_info().misses == 10


def test_cli_import_skips_dataclasses_and_inspect():
    # the records are NamedTuples and CharPoly a slots class, so starting
    # the CLI loads neither module (nor the ast, dis and tokenize behind them).
    # -S keeps site out: a .pth hook of some installs imports inspect itself
    code = (
        "import sys, groverwalk.cli; "
        "print(' '.join(m for m in ('dataclasses', 'inspect') if m in sys.modules))"
    )
    env = dict(os.environ, PYTHONPATH=SRC)
    proc = subprocess.run(
        [sys.executable, "-S", "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == ""


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
    ],
)
def test_cli_exit_two(argv):
    proc = run_cli(*argv)
    assert proc.returncode == 2
    assert proc.stderr.strip()


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


def test_cli_rejects_malformed_file(tmp_path):
    path = tmp_path / "loop.graph"
    path.write_text("2 1\n0 0\n")
    proc = run_cli("analyze", str(path))
    assert proc.returncode == 2
    assert "loop" in proc.stderr.lower()


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
    # table1 reads neither --k nor --r, so their spans cannot stop it
    assert cli.main(["verify", "--suite", "table1", *span]) == 0
    assert capsys.readouterr().out.endswith("suite table1: pass\n")

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

    monkeypatch.setattr(cli, "run_census", refuse)
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


def test_console_script_available():
    exe = shutil.which("groverwalk")
    if exe is None:
        pytest.skip("console script not on PATH in this environment")
    proc = subprocess.run(
        [exe, "gen", "--family", "cycle:3"], capture_output=True, text=True
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("3 3")


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
