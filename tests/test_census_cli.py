import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from groverwalk import cli
from groverwalk.census import run_census
from groverwalk.periodicity import graph_hash


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
    assert paw.integrality_failures == (2, 3, 4)


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
        assert rep.graph_hash == graph_hash(record.graph)
        if rep.verdict == "refuted_by_integrality":
            assert rep.failing_indices == record.integrality_failures
        else:
            assert record.integrality_failures == ()


def test_census_budget_marks_record():
    result = run_census(4, bit_budget=10)
    hits = result.budget_hits()
    assert hits
    for record in hits:
        assert record.period_report is None
        assert "budget" in record.budget_note
        # the certificate runs only after the integrality filter passed
        assert record.integrality_failures == ()
    # the run still covers every class
    assert len(result.records) == 2


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
    assert report["period"]["candidate_source"] == "cyclotomic"
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
    ],
    ids=[
        "bad-kind",
        "even-cycle-family",
        "missing-file",
        "no-source",
        "over-cap",
        "gen-no-family",
        "removed-k-max",
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
        raise AssertionError("built %s" % spec)

    monkeypatch.setattr(cli, "make_family", refuse)
    assert cli.main([command, "--family", family]) == 2
    assert "at most %d" % cli.ARC_CAP in capsys.readouterr().err


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


def test_cli_verify_failure_exit_code(monkeypatch, capsys):
    # a failing case must surface as exit 1 and a fail line, not a crash
    monkeypatch.setitem(
        cli._SUITES, "table1", lambda args: [("forced case", False, "wrong period")]
    )
    assert cli.main(["verify", "--suite", "table1"]) == 1
    out = capsys.readouterr().out
    assert "FAIL forced case: wrong period" in out
    assert "suite table1: fail (1 cases)" in out


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
