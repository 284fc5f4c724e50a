"""Host-speed probe: one fixed task, timed at regular moments of a pass.

The machines this benchmark runs on share their cores with other tenants.
The same pass can take 25-75 % longer in one minute than in the next, and
each vCPU drifts on its own, so a probe on another core or between passes
misses it.  A pass process therefore runs this task every ``EVERY_S``
seconds while it works (from a ``SIGALRM`` handler, so the samples fall on
the same core and at the same moments as the work), and ``run.py`` rescales
the run's times by the median samples.  The task never touches
``loglimset``, so no change to the program can move it.

How much a slow spell slows a piece of code depends on what the code
does, and the kind of slow spell changes from hour to hour.  The task
therefore mixes three parts of about equal time, each close to what the
program does: Fraction sums over scattered keys of a dict, a small exact
Gaussian elimination, and reads at scattered indices of a 300 000-entry
list.  Measured against the dual-random passes, each part alone tracked
them at a log-log slope between 0.5 and 1.3, depending on the hour; the
mix tracked them at about 0.9 and halved the pass-to-pass spread.  Its
tables add about 12 MB to every pass process's peak RSS.
"""

from __future__ import annotations

import signal
import statistics
import time
from fractions import Fraction

EVERY_S = 0.05  # interval between samples while a pass runs
LOOKUPS = 300
READS = 3000

_TABLE = {(i * 7919) % 40009: Fraction(i, i % 13 + 1) for i in range(20000)}
_KEYS = list(_TABLE)
_MATRIX = [[Fraction((i * 7 + j * 3) % 11 - 5, (i + j) % 4 + 1) for j in range(7)] for i in range(6)]
_LIST = list(range(1000, 301000))

samples: list[float] = []


def task() -> float:
    """Run the fixed task once; record and return its duration."""
    started = time.perf_counter()
    acc = Fraction(0)
    j = 1
    for _ in range(LOOKUPS):
        j = (j * 1103515245 + 12345) % 2147483648
        acc += _TABLE[_KEYS[j % len(_KEYS)]]
    rows = [row[:] for row in _MATRIX]
    for c, pivot in enumerate(rows):
        for r, row in enumerate(rows):
            if r != c and row[c]:
                f = row[c] / pivot[c]
                rows[r] = [a - f * b for a, b in zip(row, pivot)]
    total = 0
    for k in range(READS):
        total += _LIST[k * 3563550 % len(_LIST)]
    spent = time.perf_counter() - started
    samples.append(spent)
    return spent


def _on_alarm(signum, frame) -> None:
    task()


def start() -> None:
    """Sample every ``EVERY_S`` seconds of wall time from now on."""
    signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, EVERY_S, EVERY_S)


def stop() -> None:
    signal.setitimer(signal.ITIMER_REAL, 0, 0)


def spent() -> float:
    """Time spent in the task so far, to subtract from timed intervals."""
    return sum(samples)


def median_sample() -> float:
    """Stop sampling; the median task time of this process."""
    stop()
    return statistics.median(samples or [task()])
