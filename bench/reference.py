"""A frozen calibration kernel for run.py.

The host this benchmark was written on is shared: the CPU time of one and
the same query moved by up to 40% within seconds as other tenants' load came
and went.  This kernel is a fixed piece of code of the same kind as
heislab's work -- Euclidean row reduction of a small integer matrix with its
transform, in the style of heislab.zlattice at the commit that added the
benchmark -- kept here so that changes to the program never change it.
run.py times it before and after every round of queries and divides the
round's query times by its slowdown against NOMINAL_S.  In a test on that
host this cut the variation of 8-sample windows of a fixed query from a CV
of 0.10 to 0.04 (nzct) and from 0.08 to 0.04 (lattice), better than a kernel
of polynomial arithmetic over dicts did (0.06 for both).
"""

from __future__ import annotations

import time

# CPU seconds of work() on the host the baseline was taken on, at its usual
# speed (median of 300 timings, best of three each).
NOMINAL_S = 0.003

_ROWS = [[((i * 7919 + j * 104729 + i * j * 31) % 101) - 50 for j in range(14)] for i in range(16)]


def _row_reduce(rows: list) -> list:
    """Row-style echelon form by Euclidean row operations, tracking the
    unimodular transform."""
    n, dim = len(rows), len(rows[0])
    U = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    r = 0
    for col in range(dim):
        while True:
            pivots = [i for i in range(r, n) if rows[i][col]]
            if not pivots:
                break
            i0 = min(pivots, key=lambda i: (abs(rows[i][col]), i))
            rows[r], rows[i0] = rows[i0], rows[r]
            U[r], U[i0] = U[i0], U[r]
            done = True
            for i in range(r + 1, n):
                if rows[i][col]:
                    q = rows[i][col] // rows[r][col]
                    rows[i] = [a - q * b for a, b in zip(rows[i], rows[r])]
                    U[i] = [a - q * b for a, b in zip(U[i], U[r])]
                    if rows[i][col]:
                        done = False
            if done:
                break
        if r < n and rows[r][col]:
            r += 1
    return rows


def work():
    for _ in range(4):
        _row_reduce([list(row) for row in _ROWS])


def slowdown() -> float:
    """CPU time of work() now over NOMINAL_S, best of three."""
    best = float("inf")
    for _ in range(3):
        t0 = time.process_time()
        work()
        best = min(best, time.process_time() - t0)
    return best / NOMINAL_S
