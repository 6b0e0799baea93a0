"""Speed of the CPU the benchmark runs on, measured between operations.

The hosts this benchmark runs on share their cores: the same process can run
at half speed one second and full speed the next, and the share of slow time
drifts over minutes.  A fixed pure-Python workload that does what the
program does most (tuples, sets and dicts of small ints, big-int and
``Fraction`` arithmetic) is timed just before and just after every operation,
on the same CPU, and the operation's wall time is scaled by
``REFERENCE_S / (mean of the two calibration times)``: the seconds the
operation would have taken on a machine where one calibration sample takes
``REFERENCE_S``.  The workload never touches ``toricfano``, so a change to the
program moves the scaled times and not the scale.
"""

from __future__ import annotations

import time
from fractions import Fraction

# Wall seconds of one sample on a 2-vCPU x86-64 cloud VM at its usual speed;
# a fixed constant, so scaled times stay comparable between runs and commits.
REFERENCE_S = 0.012
_REPEATS = 2


def _workload() -> int:
    table: dict[tuple[int, int], int] = {}
    blocks = [frozenset(range(i, i + 5)) for i in range(24)]
    acc = 0
    for i in range(2400):
        key = (i % 37, i * 7 % 23)
        table[key] = table.get(key, 0) + 1
        small = blocks[i % 24]
        big = blocks[(i * 5) % 24] | small
        if small <= big and {x % 3 for x in small if x in big}:
            acc += len(big)
    m = 1
    for i in range(1, 300):
        m = m * (i | 1) % (1 << 127) + i
        acc += m.bit_length()
    f = Fraction(0)
    for i in range(1, 120):
        f += Fraction(i, i + 2)
    return acc + len(table) + f.numerator % 7


def sample() -> float:
    """Wall seconds of one sample: ``_REPEATS`` runs of the fixed workload."""
    start = time.perf_counter()
    for _ in range(_REPEATS):
        _workload()
    return time.perf_counter() - start


if __name__ == "__main__":
    for _ in range(10):
        print(f"{sample():.4f}")
