"""Percentiles, the tail-sample rule, process memory and host speed."""

from __future__ import annotations

import bisect
import contextlib
import math
import resource
import signal
import statistics
import time
from dataclasses import dataclass, field

#: A tail percentile is reported only with this many samples beyond it.
MIN_BEYOND = 10


def percentile(values, q: float) -> float:
    """The ``q``-quantile (0 <= q <= 1) by linear interpolation.

    Matches ``statistics.quantiles(values, method="inclusive")`` at its
    cut points; one value is its own every quantile.
    """
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = q * (len(ordered) - 1)
    low = math.floor(rank)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (rank - low)


def beyond(n: int, q: float) -> int:
    """How many of ``n`` samples lie beyond the ``q``-quantile.

    ``n - ceil(q * n)``: 200 samples leave 10 beyond p95, 199 leave 9.
    """
    return n - math.ceil(round(q * n, 9))


def supports(n: int, q: float) -> bool:
    """Whether ``n`` samples leave at least ``MIN_BEYOND`` beyond ``q``."""
    return beyond(n, q) >= MIN_BEYOND


def peak_rss_mb() -> float:
    """Peak resident set size of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


#: Seconds between two host probes.
PROBE_EVERY = 0.1
#: The probe's time at the host speed every timing is scaled to.
PROBE_REF_S = 0.001


def probe_seconds() -> float:
    """Seconds that one fixed piece of pure-Python work takes right now."""
    start = time.perf_counter()
    counts: dict[int, int] = {}
    for i in range(6000):
        counts[i % 997] = counts.get(i % 997, 0) + i
    sorted(str(i) for i in range(1500))
    return time.perf_counter() - start


@dataclass
class HostProbe:
    """Times :func:`probe_seconds` at most every ``PROBE_EVERY`` seconds.

    :meth:`scale` turns a timing into one at the host speed where the
    probe takes ``PROBE_REF_S``, from the probes taken around it.
    """

    #: When each probe ran (``perf_counter``), and how long it took.
    times: list[float] = field(default_factory=list)
    seconds: list[float] = field(default_factory=list)

    def tick(self) -> float:
        """Probe if the last probe is ``PROBE_EVERY`` old; the seconds spent."""
        start = time.perf_counter()
        if self.times and start - self.times[-1] < PROBE_EVERY:
            return 0.0
        self.seconds.append(probe_seconds())
        self.times.append(time.perf_counter())
        return self.times[-1] - start

    @contextlib.contextmanager
    def during(self):
        """Probe every ``PROBE_EVERY`` seconds while the body runs.

        For requests that run for seconds: a ``SIGALRM`` handler probes
        between two bytecodes of the main thread.  Yields a list whose
        only item is the seconds the probes have taken so far.
        """
        spent = [0.0]

        def probe(signum, frame):
            spent[0] += self.tick()

        previous = signal.signal(signal.SIGALRM, probe)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY, PROBE_EVERY)
        try:
            yield spent
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, previous)

    def scale(self, start: float, end: float) -> float:
        """The factor for a timing from ``start`` to ``end``.

        The probe time it uses is the median of the probes that ran in
        that interval and the nearest one on each side of it.
        """
        low = bisect.bisect_left(self.times, start)
        high = bisect.bisect_right(self.times, end)
        around = self.seconds[max(low - 1, 0):high + 1]
        return PROBE_REF_S / statistics.median(around)
