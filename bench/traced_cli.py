"""Run the groverwalk CLI with a span around every public function.

Usage: python3 bench/traced_cli.py <groverwalk arguments>

Every public function of every groverwalk module is wrapped, and the
wrapper replaces the function in each module that binds it: periodicity,
census, cli and walk import charpoly_exact, mat_mul, mat_pow and
transition_spectrum by name, so patching the defining module alone would
miss their calls. Spans are aggregated in memory: calls and outermost
inclusive time per function, self time per module (a span's duration
minus the time its child spans cover), and the counters that need a
function's arguments or result. The CLI writes its output as usual; the
trace goes to stderr as one JSON line after TRACE_PREFIX.
"""

from __future__ import annotations

import importlib
import inspect
import json
import sys
from time import perf_counter

TRACE_PREFIX = "BENCH-TRACE "
MODULES = ("cli", "census", "families", "graphs", "linalg", "periodicity", "walk")


class Tracer:
    def __init__(self):
        self.stack = []  # [module, start, child seconds] per open span
        self.depth = {}  # span name -> open calls, so recursion counts once
        self.calls = {}
        self.inclusive = {}
        self.yields = {}  # generator span name -> items yielded
        self.self_time = {name: 0.0 for name in MODULES}
        self.self_time["trace"] = 0.0
        self.counters = {
            "scalar_mults": 0,
            "entry_bits_max": 0,
            "products_in_find_period": 0,
            "certified_period_sum": 0,
            "filter_refuted": 0,
            "filter_passed": 0,
            "transition_charpolys": 0,
        }
        self.transition_graphs = {}  # id(matrix) -> (matrix, graph key)
        self.charpoly_graphs = set()
        self.enumerated = {}  # id(graph) -> graph, every class handed out

    def enter(self, span: str, module: str) -> None:
        self.calls[span] = self.calls.get(span, 0) + 1
        self.depth[span] = self.depth.get(span, 0) + 1
        self.stack.append([module, perf_counter(), 0.0])

    def leave(self, span: str) -> None:
        end = perf_counter()
        module, start, child = self.stack.pop()
        duration = end - start
        self.self_time[module] += duration - child
        self.depth[span] -= 1
        if not self.depth[span]:
            self.inclusive[span] = self.inclusive.get(span, 0.0) + duration
        if self.stack:
            self.stack[-1][2] += duration

    def hook(self, fn, *args) -> None:
        # counter work is charged to "trace", not to the calling layer
        start = perf_counter()
        fn(*args)
        spent = perf_counter() - start
        self.self_time["trace"] += spent
        if self.stack:
            self.stack[-1][2] += spent

    # -- counters that read arguments or results -------------------------

    def after_mat_mul(self, args, result) -> None:
        a, b = args[0], args[1]
        self.counters["scalar_mults"] += a.rows * a.cols * b.cols
        bits = max(
            x.numerator.bit_length() + x.denominator.bit_length()
            for row in result.entries
            for x in row
        )
        if bits > self.counters["entry_bits_max"]:
            self.counters["entry_bits_max"] = bits
        if self.depth.get("periodicity.find_period"):
            self.counters["products_in_find_period"] += 1

    def after_find_period(self, args, result) -> None:
        if result.verdict == "periodic":
            self.counters["certified_period_sum"] += result.period

    def after_integrality_filter(self, args, result) -> None:
        self.counters["filter_refuted" if result else "filter_passed"] += 1

    def after_build_transition_matrix(self, args, result) -> None:
        g = args[0]
        self.transition_graphs[id(result.matrix)] = (result.matrix, (g.n, g.edges))

    def after_charpoly_exact(self, args, result) -> None:
        seen = self.transition_graphs.get(id(args[0]))
        if seen is not None and seen[0] is args[0]:
            self.counters["transition_charpolys"] += 1
            self.charpoly_graphs.add(seen[1])

    def after_enumerate_connected(self, args, result) -> None:
        for g in result:
            self.enumerated[id(g)] = g

    after_enumerate_odd_unicyclic = after_enumerate_connected

    def summary(self) -> dict:
        return {
            "calls": self.calls,
            "yields": self.yields,
            "inclusive_s": self.inclusive,
            "self_s": self.self_time,
            "counters": dict(
                self.counters,
                charpoly_graphs=len(self.charpoly_graphs),
                classes_enumerated=len(self.enumerated),
            ),
        }


def _wrap(tracer: Tracer, fn, span: str, module: str):
    after = getattr(tracer, "after_" + fn.__name__, None)

    if inspect.isgeneratorfunction(fn):
        # a generator's span covers each resumption, not the consumer's loop
        def traced_gen(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                tracer.enter(span, module)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    tracer.leave(span)
                tracer.yields[span] = tracer.yields.get(span, 0) + 1
                yield item

        return traced_gen

    def traced(*args, **kwargs):
        tracer.enter(span, module)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.leave(span)
        if after is not None:
            tracer.hook(after, args, result)
        return result

    return traced


def install(tracer: Tracer):
    """Wrap every public function and rebind it wherever it is bound."""
    package = importlib.import_module("groverwalk")
    modules = {name: importlib.import_module("groverwalk." + name) for name in MODULES}
    wrappers = {}
    for name, module in modules.items():
        for attr, value in vars(module).items():
            if (
                inspect.isfunction(value)
                and value.__module__ == module.__name__
                and not attr.startswith("_")
            ):
                wrappers[value] = _wrap(tracer, value, "%s.%s" % (name, attr), name)
    for module in [package, *modules.values()]:
        for attr, value in list(vars(module).items()):
            if inspect.isfunction(value) and value in wrappers:
                setattr(module, attr, wrappers[value])
    return modules["cli"]


def main(argv: list[str]) -> int:
    tracer = Tracer()
    cli = install(tracer)
    try:
        return cli.main(argv)
    finally:
        sys.stdout.flush()
        sys.stderr.write(TRACE_PREFIX + json.dumps(tracer.summary()) + "\n")


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
