"""Seeded open-loop arrival schedules.

The benchmark generates its own load rather than using
``repro.serve.loadgen``, so a change to the measured package cannot
change the load it is measured under.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

import numpy as np


def poisson_schedule(rng: np.random.Generator, rate_per_s: float,
                     duration_s: float) -> List[float]:
    """Send times (seconds from the start) of a Poisson process.

    The process is conditioned on its expected count: ``round(rate *
    duration)`` arrivals placed uniformly at random in ``[0, duration)``,
    which is a Poisson process given that count.  Fixing the count keeps
    the offered load the same for every seed, so seeds vary only where
    the requests fall.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    n = int(round(rate_per_s * duration_s))
    return [float(t) for t in np.sort(rng.uniform(0.0, duration_s, size=n))]


def exact_mix(rng: np.random.Generator, shares, n: int) -> List[int]:
    """``n`` category indices in a seeded random order, with each category
    appearing ``shares[i] * n`` times (largest remainders round)."""
    shares = np.asarray(shares, dtype=float) / float(sum(shares))
    counts = np.floor(shares * n).astype(int)
    rest = np.argsort(-(shares * n - counts), kind="stable")
    counts[rest[: n - counts.sum()]] += 1
    mix = np.repeat(np.arange(len(shares)), counts)
    rng.shuffle(mix)
    return [int(i) for i in mix]


def run_open_loop(schedule: Sequence[float], send: Callable[[int, float], None],
                  clock: Callable[[], float] = time.perf_counter,
                  sleep: Callable[[float], None] = time.sleep) -> List[float]:
    """Call ``send(i, due)`` for each scheduled time, on this thread.

    ``due`` is the absolute ``clock()`` time request ``i`` was scheduled
    for; latency is timed from it, so a stall that delays later sends is
    charged to them.  Returns each send's lateness in seconds.
    """
    start = clock()
    lag = []
    for i, offset in enumerate(schedule):
        due = start + offset
        wait = due - clock()
        if wait > 0:
            sleep(wait)
        lag.append(max(0.0, clock() - due))
        send(i, due)
    return lag
