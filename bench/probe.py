"""A fixed yardstick for host speed: :func:`probe` times a miniature batching loop.

Host times are reported at a reference host speed.  Each timed interval is
divided by the probe's time measured right around it and multiplied by
:data:`REFERENCE_S`.  Other tenants of a shared machine slow the probe and
the simulator alike, for spells of seconds to minutes, so the ratio cancels
most of that drift.  A change to the simulator moves only the numerator.

The loop does what the simulator does most: it allocates small objects,
appends to lists, filters a batch and makes small numpy arrays.  It shares no
code with the simulator, and it must never change, because it defines the
unit of every host time.
"""

import time

import numpy as np

#: The probe's time on the host that produced the baseline (fastest of many runs).
REFERENCE_S = 0.076


class _Request:
    __slots__ = ("length", "done", "times")

    def __init__(self, length: int) -> None:
        self.length = length
        self.done = 0
        self.times: list[float] = []


def probe() -> float:
    """Seconds this host takes to run the fixed loop once."""
    start = time.perf_counter()
    queue = [_Request(n) for n in np.random.default_rng(0).integers(16, 400, size=3000).tolist()]
    running: list[_Request] = []
    samples = []
    clock = 0.0
    while queue or running:
        while queue and len(running) < 64:
            running.append(queue.pop())
        clock += 0.02 + 1e-5 * len(running)
        for request in running:
            request.done += 1
            request.times.append(clock)
        samples.append((clock, len(running), sum(r.done for r in running)))
        if len(samples) % 16 == 0:
            np.searchsorted(np.cumsum(np.array([r.length - r.done for r in running])), 500)
        running = [r for r in running if r.done < r.length]
    return time.perf_counter() - start


class Yardstick:
    """Converts measured host seconds to reference seconds, probing around each interval.

    Call :meth:`scale` right after each timed interval: it probes again and
    divides by the faster of the probes just before and just after the
    interval, so both ends of the interval see the host's current speed.
    """

    def __init__(self) -> None:
        self.probes = [probe()]

    def scale(self, seconds: float) -> float:
        """``seconds`` measured just now, expressed at the reference host speed."""
        self.probes.append(probe())
        return seconds * REFERENCE_S / min(self.probes[-2:])
