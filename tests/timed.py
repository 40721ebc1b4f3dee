"""Timing for the scaling guards, as a ratio of two calls.

The machine's speed drifts by up to about 1.4 times within seconds, and
a cold or busy suite slows whatever runs first.  So both calls run once
untimed, then alternate within every round: a drift meets both calls of
a round alike, and a busy moment spoils only the rounds it touches.  A
guard bounds the best round's ratio.
"""

import gc
import time


def round_ratios(slow, fast, rounds):
    """The time of ``slow()`` over that of ``fast()``, one ratio per round,
    after one warm-up call of each."""
    slow()
    fast()
    ratios = []
    for _ in range(rounds):
        times = []
        for run in (slow, fast):
            gc.collect()
            start = time.perf_counter()
            run()
            times.append(time.perf_counter() - start)
        ratios.append(times[0] / times[1])
    return ratios
