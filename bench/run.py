"""Benchmark for the groverwalk command line.

Usage (from the repository root):

    python3 bench/run.py --workload census --seed 1 --seconds 40 --trace 0

Each workload is a fixed list of CLI commands. One round runs every command
once, each in a fresh interpreter, so the per-process enumeration caches
never carry over from one operation to the next, just as for a user who
calls the CLI twice. Rounds repeat while the next one is expected to end
within --seconds; a run makes at least one round and only whole rounds.
Every output is checked against the independent computations in
reference.py.

--trace 0 reports the end-to-end metrics. On a shared virtual machine the
CPU speed can drift by a fifth or more from one minute to the next, so
every command is followed by a run of calibrate.py, a fixed workload that
imports nothing from the program, and then by one setup sample. Each
command's wall and CPU time are divided by the mean of the calibration
runs just before and after it, and each setup sample by the calibration
run just before it. Every figure is then given in seconds on a machine
whose calibration run takes REFERENCE_CALIBRATE_S. wall_s and cpu_s are
the sums over the round's commands of those figures, each command's
figure taken as its median over the run's rounds. peak_rss_mib is the
largest of the commands' median peak RSS. setup_s is the median of the
setup samples: the time for a fresh interpreter to import the CLI and
build its parser. The same medians read off the clock, before dividing,
go on the stamp line as clock_wall_s, clock_cpu_s and clock_setup_s.

--trace 1 runs every command untraced and then traced through
traced_cli.py, and reports the per-layer metrics.

The last line of stdout is the result object; the line before it stamps
the run with the Python version, git SHA and CPU count. The workloads take
no random input, so --seed is only recorded.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

import reference
from measure import RUSAGE_PREFIX
from traced_cli import MODULES, TRACE_PREFIX

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 4  # before the rounds; one more follows every calibration
# about calibrate.py's median wall and CPU time on the machine the benchmark
# was written on; the end-to-end times are scaled to a machine this fast
REFERENCE_CALIBRATE_S = 0.5
CENSUS_MAX_N = 8

DEEP_PERIOD_FAMILIES = ("twotail:3,2", "path:12", "kbipartite:4,5")
CHEBYSHEV_K = (3, 5, 7, 9)
CHEBYSHEV_R = tuple(range(2, 17))


@dataclass(frozen=True)
class Operation:
    label: str
    argv: tuple[str, ...]
    check: Callable[[str], None]  # raises reference.CheckError on a bad output


def _analyze(spec: str) -> Operation:
    return Operation(
        "analyze " + spec,
        ("analyze", "--family", spec, "--json", "--no-timing"),
        lambda text: reference.check_analyze(text, spec),
    )


def _verify(suite: str, *extra: str, **span) -> Operation:
    return Operation(
        "verify " + suite,
        ("verify", "--suite", suite) + extra,
        lambda text: reference.check_verify(text, suite, **span),
    )


WORKLOADS = {
    "census": [
        Operation(
            "census --max-n %d" % CENSUS_MAX_N,
            ("census", "--max-n", str(CENSUS_MAX_N), "--json", "--no-timing"),
            lambda text: reference.check_census(text, CENSUS_MAX_N),
        )
    ],
    "deep-period": [_analyze(spec) for spec in DEEP_PERIOD_FAMILIES],
    "verify": [
        _verify("spectral-map"),
        _verify("identities"),
        _verify(
            "chebyshev",
            "--k",
            ",".join(map(str, CHEBYSHEV_K)),
            "--r",
            "%d..%d" % (CHEBYSHEV_R[0], CHEBYSHEV_R[-1]),
            k_list=CHEBYSHEV_K,
            r_list=CHEBYSHEV_R,
        ),
    ],
}


@dataclass
class Child:
    code: int
    wall: float
    cpu: float
    rss_mib: float
    stdout: bytes
    stderr: bytes


def run_child(argv: list[str], env: dict) -> Child:
    """Run one command to its end through measure.py."""
    proc = subprocess.Popen(
        [sys.executable, str(ROOT / "bench" / "measure.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        err: list[bytes] = []
        reader = threading.Thread(target=lambda: err.append(proc.stderr.read()))
        reader.start()
        out = proc.stdout.read()
        reader.join()
        proc.wait()
    finally:
        if proc.returncode is None:
            # the session holds measure.py and the command it started
            with contextlib.suppress(ProcessLookupError):
                os.killpg(proc.pid, signal.SIGKILL)
            proc.wait()
        proc.stdout.close()
        proc.stderr.close()
    stderr, found, record = err[0].rpartition(RUSAGE_PREFIX.encode())
    if not found:
        return Child(proc.returncode or -1, 0.0, 0.0, 0.0, out, err[0])
    usage = json.loads(record)
    return Child(
        code=usage["code"],
        wall=usage["wall_s"],
        cpu=usage["cpu_s"],
        rss_mib=usage["maxrss_kib"] / 1024.0,
        stdout=out,
        stderr=stderr,
    )


def child_env() -> dict:
    """The caller's environment without its Python settings.

    PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED and the like would change
    what is measured. Without them the sources' bytecode is cached in
    src/groverwalk/__pycache__, as an installed package's would be, so no
    timed run compiles the sources anew.
    """
    env = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


class Runner:
    """Runs operations, checks their outputs and counts failures."""

    def __init__(self):
        self.env = child_env()
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self._checked: dict[tuple[str, str], bool] = {}

    def cli(self, *args: str) -> list[str]:
        return [sys.executable, "-m", "groverwalk", *args]

    def traced(self, *args: str) -> list[str]:
        return [sys.executable, str(ROOT / "bench" / "traced_cli.py"), *args]

    def operation(self, op: Operation, traced: bool) -> tuple[Child, dict | None]:
        argv = self.traced(*op.argv) if traced else self.cli(*op.argv)
        child = run_child(argv, self.env)
        trace = None
        if traced:
            lines = child.stderr.decode(errors="replace").splitlines()
            if lines and lines[-1].startswith(TRACE_PREFIX):
                trace = json.loads(lines[-1][len(TRACE_PREFIX):])
        self.attempted += 1
        ok = child.code == 0 and (not traced or trace is not None)
        if not ok:
            print(
                "FAILED %s: exit %d\n%s"
                % (op.label, child.code, child.stderr.decode(errors="replace")[-2000:]),
                file=sys.stderr,
            )
        else:
            ok = self._check(op, child.stdout)
        if not ok:
            self.failed += 1
        return child, trace

    def _check(self, op: Operation, stdout: bytes) -> bool:
        # checks are pure functions of the output, so identical output is
        # checked once per run
        key = (op.label, hashlib.sha256(stdout).hexdigest())
        if key not in self._checked:
            try:
                op.check(stdout.decode())
                self._checked[key] = True
            except (
                reference.CheckError,
                ValueError,
                LookupError,
                TypeError,
                AttributeError,
            ) as err:
                print("CHECK FAILED %s: %r" % (op.label, err), file=sys.stderr)
                self._checked[key] = False
                self.correct = False
        return self._checked[key]

    def calibration(self) -> Child:
        """One run of calibrate.py, the gauge of the machine's speed."""
        child = run_child([sys.executable, str(ROOT / "bench" / "calibrate.py")], self.env)
        if child.code != 0:
            raise SystemExit("calibrate.py exited %d" % child.code)
        return child

    def setup_sample(self) -> float:
        """Wall time of a fresh interpreter importing the CLI and building
        its parser (`--help` exits right after parsing)."""
        child = run_child(self.cli("--help"), self.env)
        if child.code != 0:
            raise SystemExit("groverwalk --help exited %d" % child.code)
        return child.wall


def _rounds(seconds: float, round_fn) -> list:
    """Whole rounds, as many as are expected to end within `seconds`.

    A round is expected to last as long as the rounds before it did on
    average, so a run ends close to `seconds` and never starts a round it
    cannot finish in time, whatever the machine's speed.
    """
    results = []
    start = perf_counter()
    while True:
        results.append(round_fn())
        elapsed = perf_counter() - start
        if elapsed * (len(results) + 1) / len(results) > seconds:
            return results


def end_to_end(runner: Runner, ops: list[Operation], seconds: float) -> tuple[dict, dict]:
    """(metrics, the same medians read off the clock, for the stamp line)."""
    # the calibration run before the next command; each command is gauged
    # by the mean of the calibration runs just before and just after it,
    # and each setup sample by the calibration run just before it
    before = [runner.calibration()]
    setup = [(runner.setup_sample(), before[0]) for _ in range(SETUP_REPEATS)]

    def one_round():
        rows = []
        for op in ops:
            child = runner.operation(op, traced=False)[0]
            after = runner.calibration()
            rows.append((child, before[0], after))
            before[0] = after
            setup.append((runner.setup_sample(), after))
        return rows

    rounds = _rounds(seconds, one_round)

    def per_command(value) -> list[float]:
        # each command's median over the rounds: a slow spell that hits one
        # command in one round moves no figure
        return [statistics.median(value(*round_[i]) for round_ in rounds) for i in range(len(ops))]

    def gauged(field: str):
        return lambda c, pre, post: (
            REFERENCE_CALIBRATE_S * getattr(c, field) / ((getattr(pre, field) + getattr(post, field)) / 2)
        )

    metrics = {
        "wall_s": {"value": sum(per_command(gauged("wall"))), "unit": "s"},
        "cpu_s": {"value": sum(per_command(gauged("cpu"))), "unit": "s"},
        "peak_rss_mib": {"value": max(per_command(lambda c, pre, post: c.rss_mib)), "unit": "MiB"},
        "setup_s": {
            "value": REFERENCE_CALIBRATE_S * statistics.median(t / cal.wall for t, cal in setup),
            "unit": "s",
        },
    }
    clock = {
        "clock_wall_s": sum(per_command(lambda c, pre, post: c.wall)),
        "clock_cpu_s": sum(per_command(lambda c, pre, post: c.cpu)),
        "clock_setup_s": statistics.median(t for t, _ in setup),
        "calibrate_wall_s": statistics.median(post.wall for r in rounds for _, _, post in r),
        "calibrate_cpu_s": statistics.median(post.cpu for r in rounds for _, _, post in r),
        "rounds": len(rounds),
    }
    return metrics, clock


def _layer_metrics(traces: list[dict], output_bytes: int) -> dict:
    """Per-layer metrics of one traced round (its commands summed)."""
    calls, yields, incl, self_s, counters = (Counter() for _ in range(5))
    bits_max = 0
    for t in traces:
        calls.update(t["calls"])
        yields.update(t["yields"])
        incl.update(t["inclusive_s"])
        self_s.update(t["self_s"])
        counts = dict(t["counters"])
        bits_max = max(bits_max, counts.pop("entry_bits_max"))
        counters.update(counts)

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    def seconds(*spans: str) -> float:
        return sum(incl[span] for span in spans)

    m = {
        "families.enumerate_s": (
            seconds("families.enumerate_connected", "families.enumerate_odd_unicyclic"), "s"),
        "families.canonical_form_calls": (calls["families.canonical_form"], "count"),
        "families.classes_per_candidate": (
            ratio(counters["classes_enumerated"], calls["families.canonical_form"]),
            "ratio"),
        "graphs.classify_s": (seconds("graphs.classify"), "s"),
        "graphs.matchings_yielded": (yields["graphs.enumerate_matchings"], "count"),
        "walk.operator_build_s": (
            seconds("walk.build_grover_operator", "walk.build_transition_matrix"), "s"),
        "walk.spectral_map_s": (seconds("walk.spectral_map_check"), "s"),
        "walk.transition_spectrum_calls": (calls["walk.transition_spectrum"], "count"),
        "linalg.charpoly_s": (seconds("linalg.charpoly_exact"), "s"),
        "linalg.charpoly_calls": (calls["linalg.charpoly_exact"], "count"),
        "linalg.charpoly_per_graph": (
            ratio(counters["transition_charpolys"], counters["charpoly_graphs"]), "ratio"),
        "linalg.mat_mul_calls": (calls["linalg.mat_mul"], "count"),
        "linalg.mat_mul_s": (seconds("linalg.mat_mul"), "s"),
        "linalg.mat_pow_calls": (calls["linalg.mat_pow"], "count"),
        "linalg.scalar_mults": (counters["scalar_mults"], "computed_count"),
        "linalg.entry_bits_max": (bits_max, "bits"),
        "linalg.eigensolve_s": (seconds("linalg.eigenvalues_symmetric"), "s"),
        "periodicity.find_period_s": (seconds("periodicity.find_period"), "s"),
        "periodicity.find_period_calls": (calls["periodicity.find_period"], "count"),
        "periodicity.filter_refuted": (counters["filter_refuted"], "count"),
        "periodicity.filter_passed": (counters["filter_passed"], "count"),
        "periodicity.products_per_period": (
            ratio(counters["products_in_find_period"], counters["certified_period_sum"]),
            "ratio"),
        "periodicity.identity_checks_s": (
            seconds(
                "periodicity.cycle_matching_identity_check",
                "periodicity.tail_recurrence_check",
                "periodicity.matching_split_check",
                "periodicity.branch_integrality_instances",
            ),
            "s"),
        "periodicity.chebyshev_s": (seconds("periodicity.chebyshev_eigen_check"), "s"),
        "census.run_census_s": (seconds("census.run_census"), "s"),
        "cli.output_bytes": (output_bytes, "bytes"),
    }
    for module in MODULES:
        m[module + ".self_s"] = (self_s[module], "s")
    m["trace.hooks_s"] = (self_s["trace"], "s")
    return m


def per_layer(runner: Runner, ops: list[Operation], seconds: float) -> dict:
    def one_round():
        # each command runs untraced and then traced, back to back, so that
        # a drift in machine speed between them stays small
        untraced = 0.0
        results = []
        for op in ops:
            untraced += runner.operation(op, traced=False)[0].wall
            results.append(runner.operation(op, traced=True))
        layers = _layer_metrics(
            [trace for _, trace in results if trace is not None],
            sum(len(child.stdout) for child, _ in results),
        )
        traced = sum(child.wall for child, _ in results)
        layers["trace.wall_s"] = (traced, "s")
        layers["trace.overhead_s"] = (traced - untraced, "s")
        return layers

    rounds = _rounds(seconds, one_round)
    return {
        name: {"value": statistics.median_low(r[name][0] for r in rounds), "unit": unit}
        for name, (_, unit) in rounds[0].items()
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the commands it started (see run_child)
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (ROOT / "src" / "groverwalk" / "cli.py").is_file():
        print("no groverwalk sources under %s" % (ROOT / "src"), file=sys.stderr)
        return 2
    runner = Runner()
    # one call to write the bytecode before anything is timed
    run_child(runner.cli("--help"), runner.env)

    ops = WORKLOADS[args.workload]
    clock = {}
    if args.trace:
        metrics = per_layer(runner, ops, args.seconds)
    else:
        metrics, clock = end_to_end(runner, ops, args.seconds)
    stamp = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "python": platform.python_version(),
        "git_sha": git_sha(),
        "cpu_count": os.cpu_count(),
        "attempted": runner.attempted,
        "failed": runner.failed,
        **clock,
    }
    print(json.dumps({"stamp": stamp}, sort_keys=True))
    print(
        json.dumps(
            {
                "correct": runner.correct,
                "attempted": runner.attempted,
                "failed": runner.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
