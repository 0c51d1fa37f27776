"""A fixed reference kernel that measures how fast the machine runs right now.

The benchmark runs on a few cores of a shared host whose speed drifts: the
same job, repeated back to back, takes 0.5 s for a stretch of seconds and
0.8 s for the next, and CPU time moves with wall time.  A run of 20 seconds
can sit entirely in a fast or a slow stretch, so raw job times of the same
code spread by more than any useful regression bound.

``kernel_seconds`` times a fixed piece of work of the same kind the library
does (tuples, frozensets, dicts, sorting, and small numpy tables), without
calling the library.  The benchmark runs it between jobs and divides each
job's time by the mean of the kernel times just before and just after it.
A change to the library moves the job time but not the kernel time; a change
of machine speed moves both.
"""

from __future__ import annotations

import random
import subprocess
import sys
import time

import numpy as np

# Kernel seconds that a normalised time is scaled to: a normalised time is the
# wall time the job would take on a machine that runs the kernel in this long.
NOMINAL_KERNEL_S = 0.05


def _kernel() -> int:
    rng = random.Random(12345)
    counts: dict[tuple[int, ...], int] = {}
    for _ in range(6000):
        clause = tuple(sorted(rng.sample(range(64), 4)))
        counts[clause] = counts.get(clause, 0) + 1
    keys = sorted(counts, key=lambda c: (len(c), c))
    seen = set()
    for c in keys:
        seen.add(frozenset(v if v % 3 else -v for v in c))
    table = np.arange(1, 33, dtype=np.float64).reshape(2, 2, 2, 2, 2) / 32.0
    acc = 0.0
    for i in range(300):
        t = table * (1.0 + i / 300.0)
        acc += float(np.log(t.sum(axis=(0, 2)) + 1.0).max())
    return len(seen) + int(acc)


def kernel_seconds() -> float:
    """Wall seconds for one run of the reference kernel."""
    t0 = time.perf_counter()
    _kernel()
    return time.perf_counter() - t0


class Kernel:
    """Times the kernel in ``processes`` processes at once.

    A job that keeps two cores busy (``run_fis`` with jobs=2) slows with
    either core, and one process timing the kernel tracks it poorly: over ten
    seeds of ``fis_qmr`` the pass time scaled by a one-process kernel spread
    more than the raw time.  So the kernel runs here and, at the same moment,
    in each of ``processes - 1`` helper processes, and ``seconds`` is the mean.
    A helper is this file run as a script; ``close`` ends and waits for it.
    """

    def __init__(self, processes: int) -> None:
        self._helpers = [
            subprocess.Popen(
                [sys.executable, __file__],
                stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
            )
            for _ in range(processes - 1)
        ]

    def seconds(self) -> float:
        for helper in self._helpers:
            helper.stdin.write("\n")
            helper.stdin.flush()
        times = [kernel_seconds()]
        times += [float(helper.stdout.readline()) for helper in self._helpers]
        return sum(times) / len(times)

    def close(self) -> None:
        for helper in self._helpers:
            helper.stdin.close()
        for helper in self._helpers:
            helper.wait(timeout=60)
            helper.stdout.close()
        self._helpers = []

    def __enter__(self) -> "Kernel":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


if __name__ == "__main__":
    # Helper loop: one kernel run per input line, until stdin closes.
    for _ in sys.stdin:
        print(kernel_seconds(), flush=True)
