"""The machine's speed, sampled while a pass runs, to scale its times by.

On a shared host the same pure-Python work runs up to twice as fast or as
slow from one stretch of seconds or minutes to the next, as other tenants
load the physical core.  A pass of 6-14 s then reads differently with the same code
and inputs, and a run holds too few passes for their median to settle.

A `Sampler` interrupts the pass every INTERVAL_S with SIGALRM and times a
fixed reference loop (`reference_sample`, about 1.5 ms, independent of
functorlab).  The mean sample time over the pass (`scale`) says how fast the process
ran during it; `scale()` is NOMINAL_S over that mean.  A time multiplied by
it reads as on a machine whose reference sample takes exactly NOMINAL_S.
The samples' own time (about 3% of a pass) is taken out of the pass time.
"""
from __future__ import annotations

import signal
import time

NOMINAL_S = 0.0015
INTERVAL_S = 0.05
SETUP_SAMPLES = 60  # back to back, after set-up: about 0.1 s
TRIM = 0.05


def reference_sample() -> float:
    """Seconds taken by a fixed loop of dict updates keyed by ints and
    tuples, and of small and big integer arithmetic."""
    start = time.perf_counter()
    d: dict = {}
    s = 0
    for i in range(3000):
        d[i & 255] = d.get(i & 255, 0) + i
        s += i * i % 7
    x = 3 ** 200
    for i in range(600):
        key = (i & 31, i & 7)
        d[key] = d.get(key, 0) + 1
        x = (x * 7 + i) % (5 ** 300)
    return time.perf_counter() - start


class Sampler:
    """Reference samples taken on a timer while the body of a `with` runs."""

    def __init__(self):
        self.samples: list = []

    def _on_alarm(self, signum, frame):
        self.samples.append(reference_sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._on_alarm)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.samples:  # a pass shorter than one interval
            self.samples.append(reference_sample())
        return False

    def take(self, count: int) -> "Sampler":
        """Sample `count` times back to back instead of on a timer."""
        self.samples += [reference_sample() for _ in range(count)]
        return self

    @property
    def spent_s(self) -> float:
        return sum(self.samples)

    def scale(self) -> float:
        """NOMINAL_S over the mean sample, the slowest and the fastest TRIM
        of the samples left out: a sample that the scheduler happens to stall
        for a few ms would otherwise move the mean far more than the same
        stall moves the pass."""
        ordered = sorted(self.samples)
        cut = int(len(ordered) * TRIM)
        kept = ordered[cut:len(ordered) - cut]
        return NOMINAL_S / (sum(kept) / len(kept))
