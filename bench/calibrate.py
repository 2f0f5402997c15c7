"""Reference kernel that runs beside the timed passes, on the second core.

    python3 bench/calibrate.py

Repeats one fixed slice of work, a pure-Python loop and a NumPy stencil on
a 280x280 array, and prints each slice's `time.monotonic()` start and end
on one line, until it is terminated. The kernel belongs to the benchmark
and does not import dropmaze, so its slice time follows the machine's
speed and nothing else. `run.py` scales each pass by it (see README.md,
*Reference speed*).
"""

from __future__ import annotations

import time

import numpy as np


def main() -> int:
    grid = np.random.default_rng(0).random((280, 280))
    while True:
        start = time.monotonic()
        total = 0
        for i in range(200_000):
            total += i * i
        field = grid.copy()
        for _ in range(60):
            field[1:-1, 1:-1] = 0.25 * (field[:-2, 1:-1] + field[2:, 1:-1]
                                        + field[1:-1, :-2] + field[1:-1, 2:])
        print(start, time.monotonic(), flush=True)


if __name__ == "__main__":
    raise SystemExit(main())
