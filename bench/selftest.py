"""Show that each reference check rejects a corrupted output.

Usage (from the repository root): python3 bench/selftest.py

Runs the CLI on small inputs, confirms that the untouched outputs pass,
then corrupts one field at a time and confirms that the check raises
CheckError. Exits 0 when every corruption is caught.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import reference
from run import Runner, run_child

CENSUS_MAX_N = 7
ANALYZE_SPEC = "twotail:3,1"  # period 60 = 2^2 * 3 * 5


def _cli(runner: Runner, *args: str) -> str:
    child = run_child(runner.cli(*args), runner.env)
    if child.code != 0:
        raise SystemExit("groverwalk %s exited %d" % (" ".join(args), child.code))
    return child.stdout.decode()


def _periodic_index(report: dict) -> int:
    return next(
        i for i, rec in enumerate(report["records"])
        if rec["period"]["verdict"] == "periodic" and rec["graph"]["n"] > 3
    )


def _refuted_index(report: dict) -> int:
    return next(
        i for i, rec in enumerate(report["records"])
        if rec["period"]["verdict"] == "refuted_by_integrality"
    )


def census_corruptions(report: dict):
    """(name, corrupted report) pairs for a census report."""
    p = _periodic_index(report)
    r = _refuted_index(report)
    period = report["records"][p]["period"]["period"]

    def edit(fn):
        out = copy.deepcopy(report)
        fn(out)
        return out

    def set_period(value):
        return lambda out: out["records"][p]["period"].__setitem__("period", value)

    def flip(rec):
        rec["integrality"]["passed"] = not rec["integrality"]["passed"]

    def drop(out):
        del out["records"][r]
        out["summary"]["total_records"] -= 1

    def duplicate(out):
        out["records"].append(copy.deepcopy(out["records"][r]))
        out["summary"]["total_records"] += 1

    def bump_coefficient(out):
        coeffs = out["records"][r]["charpoly"]["ascending"]
        coeffs[0] = str(Fraction(coeffs[0]) + 1)

    def pass_refuted(out):
        rec = out["records"][r]
        rec["integrality"] = {"failing_indices": [], "passed": True}

    for q in (2, 3, 5):
        yield "census period times %d" % q, edit(set_period(period * q))
        if period % q == 0:
            yield "census period over %d" % q, edit(set_period(period // q))
    yield "census record dropped", edit(drop)
    yield "census record duplicated", edit(duplicate)
    yield "census passed flag flipped", edit(lambda out: flip(out["records"][r]))
    yield "census refuted record marked passed", edit(pass_refuted)
    yield "census charpoly coefficient", edit(bump_coefficient)
    yield "census budget hit", edit(lambda out: out["summary"].__setitem__("budget_hits", 1))


def analyze_corruptions(report: dict):
    period = report["period"]["period"]

    def edit(path, value):
        out = copy.deepcopy(report)
        target = out
        for key in path[:-1]:
            target = target[key]
        target[path[-1]] = value
        return out

    for q in (2, 3, 5, 7):
        yield "analyze period times %d" % q, edit(("period", "period"), period * q)
        if period % q == 0:
            yield "analyze period over %d" % q, edit(("period", "period"), period // q)
    yield "analyze integrality flipped", edit(("integrality", "passed"), False)
    coeffs = list(report["charpoly"]["ascending"])
    coeffs[1] = "%s" % (Fraction(coeffs[1]) - Fraction(1, 2))
    yield "analyze charpoly coefficient", edit(("charpoly", "ascending"), coeffs)


def verify_corruptions(texts: dict):
    spec = texts["spectral-map"]
    yield "spectral-map", "spectral-map count", spec.replace("on 142 connected", "on 141 connected")
    ident = texts["identities"]
    yield "identities", "identities FAIL line", "FAIL matching split: mismatch\n" + ident
    cheb = texts["chebyshev"].splitlines()
    dropped = "\n".join(line for line in cheb if "k=5 r=3:" not in line) + "\n"
    yield "chebyshev", "chebyshev case missing", dropped
    yield "chebyshev", "chebyshev suite fails", texts["chebyshev"].replace(": pass", ": fail (1 cases)")


def main() -> int:
    runner = Runner()
    census_text = _cli(runner, "census", "--max-n", str(CENSUS_MAX_N), "--json", "--no-timing")
    analyze_text = _cli(runner, "analyze", "--family", ANALYZE_SPEC, "--json", "--no-timing")
    verify_texts = {
        "spectral-map": _cli(runner, "verify", "--suite", "spectral-map"),
        "identities": _cli(runner, "verify", "--suite", "identities"),
        "chebyshev": _cli(runner, "verify", "--suite", "chebyshev", "--k", "3,5", "--r", "2..4"),
    }
    span = {"k_list": (3, 5), "r_list": (2, 3, 4)}

    def check_verify(suite, text):
        extra = span if suite == "chebyshev" else {}
        return reference.check_verify(text, suite, **extra)

    reference.check_census(census_text, CENSUS_MAX_N)
    reference.check_analyze(analyze_text, ANALYZE_SPEC)
    for suite, text in verify_texts.items():
        check_verify(suite, text)
    print("ok   untouched outputs pass")

    cases = []
    census = json.loads(census_text)
    for name, bad in census_corruptions(census):
        cases.append((name, lambda b=bad: reference.check_census(json.dumps(b), CENSUS_MAX_N)))
    analyze = json.loads(analyze_text)
    for name, bad in analyze_corruptions(analyze):
        cases.append((name, lambda b=bad: reference.check_analyze(json.dumps(b), ANALYZE_SPEC)))
    for suite, name, bad in verify_corruptions(verify_texts):
        cases.append((name, lambda s=suite, b=bad: check_verify(s, b)))

    missed = 0
    for name, check in cases:
        try:
            check()
        except reference.CheckError as err:
            print("ok   %s rejected: %s" % (name, err))
        else:
            missed += 1
            print("MISS %s accepted" % name)
    print("%d of %d corruptions rejected" % (len(cases) - missed, len(cases)))
    return 1 if missed else 0


if __name__ == "__main__":
    sys.exit(main())
