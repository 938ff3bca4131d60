"""A fixed pure-Python workload that gauges the machine's current speed.

Usage: python3 bench/calibrate.py

It does a fixed amount of the two kinds of arithmetic that carry
groverwalk's time. The exact kind multiplies Fraction matrices: the Grover
arc operator U of the triangle with two pendant vertices on one corner
(10 arcs, period 60) by its own powers. U is periodic, so the entries of
U^k stay small and every product costs about the same. The float kind runs
cyclic Jacobi sweeps on a fixed symmetric matrix, as eigensolves do. It
prints nothing and imports nothing from groverwalk: its time changes with the machine, never with the program. The
benchmark runs it between commands and divides each command's time by the
calibration time around it (see run.py).
"""

from __future__ import annotations

import math
from fractions import Fraction

EDGES = ((0, 1), (1, 2), (0, 2), (0, 3), (0, 4))
PRODUCTS = 60
JACOBI_SIZE = 12
JACOBI_SWEEPS = 600


def grover_operator() -> list[list[Fraction]]:
    """U[(b, c)][(a, b)] = 2/deg(b) - [c = a], on the graph's arcs."""
    arcs = [(a, b) for a, b in EDGES] + [(b, a) for a, b in EDGES]
    degree: dict[int, int] = {}
    for a, b in EDGES:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    return [
        [
            Fraction(2, degree[b]) - (c == a) if b == b2 else Fraction(0)
            for a, b in arcs
        ]
        for b2, c in arcs
    ]


def jacobi_sweep(a: list[list[float]]) -> None:
    """One cyclic Jacobi sweep, rotating every off-diagonal pair in place."""
    n = len(a)
    for p in range(n - 1):
        for q in range(p + 1, n):
            if a[p][q] == 0.0:
                continue
            theta = (a[q][q] - a[p][p]) / (2.0 * a[p][q])
            t = (1.0 if theta >= 0 else -1.0) / (abs(theta) + math.sqrt(theta * theta + 1.0))
            c = 1.0 / math.sqrt(t * t + 1.0)
            s = t * c
            for k in range(n):
                akp, akq = a[k][p], a[k][q]
                a[k][p], a[k][q] = c * akp - s * akq, s * akp + c * akq
            for k in range(n):
                apk, aqk = a[p][k], a[q][k]
                a[p][k], a[q][k] = c * apk - s * aqk, s * apk + c * aqk


def main() -> None:
    u = grover_operator()
    columns = list(zip(*u))
    power = u
    for _ in range(PRODUCTS):
        power = [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in power]
    for _ in range(JACOBI_SWEEPS):
        # a fresh matrix each time, so every sweep has rotations to do
        a = [
            [1.0 / (1 + i + j) + (i == j) * (i + 1) for j in range(JACOBI_SIZE)]
            for i in range(JACOBI_SIZE)
        ]
        jacobi_sweep(a)


if __name__ == "__main__":
    main()
