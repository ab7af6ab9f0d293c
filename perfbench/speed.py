"""Machine-speed calibration for timings taken on a shared, drifting CPU.

On a small shared VM the speed of one vCPU drifts by up to 2x within a
minute while the program does not change.  A fixed, stdlib-only reference
unit (Fraction arithmetic, small and big int list arithmetic, dict
updates: the kinds of work ``bredon`` does) is timed right before and right
after each operation, outside the timed region.  An operation's time is
scaled by ``UNIT_MS`` over the mean unit time of its two brackets, which
gives its time at the reference speed where one unit takes ``UNIT_MS``.
The reference unit never calls ``bredon``, so a change to the program
cannot move it.
"""

from __future__ import annotations

import time
from fractions import Fraction

#: Nominal time of one reference unit: the unit of speed-scaled milliseconds.
UNIT_MS = 1.0
#: A calibration sample lasts at least this long, and this share of the operation it brackets.
MIN_SAMPLE_S = 0.002
SAMPLE_SHARE = 0.1

_MODULUS = 7**200


def _unit() -> int:
    acc = Fraction(0)
    counts: dict[int, int] = {}
    row = list(range(16))
    big = 3**150
    for i in range(1, 120):
        acc += Fraction(i, 7) * Fraction(3, i + 1)
        counts[i % 13] = counts.get(i % 13, 0) + i
        row = [a + i * b for a, b in zip(row, reversed(row))]
        big = (big * (i + 12345)) % _MODULUS
    return acc.numerator + len(counts) + row[0] + big


def sample(seconds: float = MIN_SAMPLE_S) -> float:
    """Mean milliseconds per reference unit over at least ``seconds``."""
    units = 0
    start = time.perf_counter()
    while True:
        _unit()
        units += 1
        elapsed = time.perf_counter() - start
        if elapsed >= seconds:
            return elapsed * 1000 / units


def budget(op_seconds: float) -> float:
    return max(MIN_SAMPLE_S, SAMPLE_SHARE * op_seconds)


def scale(before_ms: float, after_ms: float) -> float:
    """Factor from measured seconds to reference-speed seconds."""
    return 2 * UNIT_MS / (before_ms + after_ms)
