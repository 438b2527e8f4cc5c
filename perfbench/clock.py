"""Timing at a fixed reference speed of the host.

The benchmark's host is shared: its speed for the emulator's kind of
code swings by up to about 1.6x, in phases from tens of milliseconds to
minutes, and that moves every wall time of a run together. So the host's
speed is sampled with a short fixed piece of work, a pure-Python integer
loop, ``BRACKET`` times just before and just after each timed call and,
while a :class:`Clock` runs, every ``INTERVAL_S`` during the call from a
timer signal. A call's wall time is scaled to the speed at which one
sample takes ``REF_S``:

    seconds = wall seconds * REF_S / median of the call's samples

Interpreted code like the emulator's slows down with that loop about
one for one, over phases as long as a run. A sample of dict, list and
small numpy work, tried first, left about twice the residual: over
10-second windows the emulator's calls slowed down by about twice as
much as it did, in log terms. The loop touches no memory, so the call
it interrupts does not slow it down by evicting its data.

A change that makes the program faster shows in full; a slow phase of
the host mostly does not. The wall time is kept next to the scaled time.

This module imports nothing from edgegraph, so it can time its imports.
"""

import signal
import statistics
import time

REF_S = 100e-6  # seconds of one sample at the reference speed
BRACKET = 3  # samples just before and just after each call
INTERVAL_S = 0.005  # period of the samples taken during a call

LOOP = 1000  # iterations of one sample


def sample() -> float:
    """Seconds of one run of the fixed work: the host's speed now."""
    t0 = time.perf_counter()
    s = 0
    for i in range(LOOP):
        s += i * i % 7
    return time.perf_counter() - t0


class Clock:
    """Times calls at the reference speed.

    Used as a context manager, it also samples the speed every
    ``INTERVAL_S`` from ``SIGALRM`` while calls run, which long calls
    need; outside it, only the samples around each call count.
    """

    def __init__(self):
        self.wall_s = 0.0  # wall seconds of every call timed so far
        self._samples: list = []
        self._previous = None

    def _tick(self, signum, frame) -> None:
        self._samples.append(sample())

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._tick)
        signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._previous)

    def timed(self, fn, *args, **kwargs):
        """(result, seconds at the reference speed, wall seconds) of one call."""
        around = [sample() for _ in range(BRACKET)]
        first = len(self._samples)
        t0 = time.perf_counter()
        out = fn(*args, **kwargs)
        wall = time.perf_counter() - t0
        self.wall_s += wall
        during = self._samples[first:]
        around += [sample() for _ in range(BRACKET)]
        return out, wall * REF_S / statistics.median(around + during), wall
