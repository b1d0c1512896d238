"""Run on whichever CPU is fast right now.

On a shared host each vCPU switches every few seconds between a fast state
and one about 1.35 times slower (another tenant busy on the same physical
core), and the vCPUs switch independently of each other. A run that stays
on one vCPU mixes the two speeds in a proportion that changes from run to
run. Before each request the benchmark therefore times a short fixed probe
on every CPU it is allowed to use and pins itself to the fastest. The
probe is benchmark code and never changes with the program. Only this
process's own affinity is changed, and `unpin` gives back the CPUs it
started with.

The fast state itself drifts by tens of percent over minutes, and the
probe drifts with it. `at_reference_speed` scales a time measured while
the probe took a given time (the run's median) to the time it would take
where the probe takes REFERENCE_S.
"""

from __future__ import annotations

import os
from time import perf_counter

PROBE_REPEATS = 3
# `probe()` at the reference speed: about its median over 20 runs of the
# benchmark on a 2-vCPU Intel Xeon VM, so scaled times read close to wall
# seconds there.
REFERENCE_S = 0.0012


def probe() -> float:
    """Best of PROBE_REPEATS timings of about 1 ms of fixed Python work."""
    best = float("inf")
    for _ in range(PROBE_REPEATS):
        t0 = perf_counter()
        s = 0
        for i in range(20000):
            s += i * i
        best = min(best, perf_counter() - t0)
    return best


def at_reference_speed(seconds: float, probe_s: float) -> float:
    """`seconds`, measured while `probe()` took `probe_s`, scaled to the
    speed at which it takes REFERENCE_S."""
    return seconds * REFERENCE_S / probe_s


class Pinner:
    """Pins this process to the fastest of the CPUs it started with."""

    def __init__(self) -> None:
        self.allowed = frozenset(os.sched_getaffinity(0))
        self.can_pin = len(self.allowed) > 1

    def pin_fastest(self) -> tuple[int | None, float]:
        """Pin to the allowed CPU on which `probe` runs fastest now; return
        that CPU and its probe time. With one allowed CPU, or once setting
        the affinity has failed, only probe and return None for the CPU."""
        if not self.can_pin:
            return None, probe()
        times = {}
        try:
            for cpu in sorted(self.allowed):
                os.sched_setaffinity(0, {cpu})
                times[cpu] = probe()
            best = min(times, key=times.__getitem__)
            os.sched_setaffinity(0, {best})
        except OSError:
            self.can_pin = False
            self.unpin()
            return None, probe()
        return best, times[best]

    def unpin(self) -> None:
        try:
            os.sched_setaffinity(0, self.allowed)
        except OSError:
            pass
