"""The paced interconnect: one rank's link as a FIFO on a virtual clock.

``TrainingConfig.link_gbps`` gives every rank its own upload link.  A
link is an asynchronous resource, not a sleeping thread: *reserving* it
for ``nbytes`` books the interval

    start   = max(now, link_free_at)
    arrival = start + nbytes / rate

and returns at once, so the caller goes back to backward while the
bytes are "on the wire".  Whoever consumes the payload (the collective
for that bucket) sleeps out whatever is left of ``arrival`` — only the
wire time that nothing else covered ever reaches the step.  This is
the wait-free backpropagation rule the paper's epoch-time figures and
the S-SGD DAG model assume.

This module is the only place wall-clock pacing is computed; pacing
never touches gradient data or RNG streams.
"""

from __future__ import annotations

import time
from collections import Counter
from typing import Callable, Iterable, Mapping

from ..telemetry.tracer import NULL_TRACER, TraceEvent

__all__ = ["LinkClock", "BucketUploads", "sleep_until"]


def sleep_until(
    deadline_ns: int,
    clock: Callable[[], int] = time.perf_counter_ns,
    sleep: Callable[[float], None] = time.sleep,
) -> None:
    """Block until ``clock()`` has reached ``deadline_ns``."""
    remaining = deadline_ns - clock()
    if remaining > 0:
        sleep(remaining / 1e9)


class LinkClock:
    """One rank's link for one step attempt.

    Times are integer nanoseconds on the tracer's clock
    (``time.perf_counter_ns``), so every reservation is traced as a
    ``transfer`` span that *is* the link's occupancy interval: spans of
    one link never overlap and each lasts exactly ``nbytes / rate``.
    """

    def __init__(
        self,
        bytes_per_s: float,
        tracer=NULL_TRACER,
        track: int = 0,
        clock: Callable[[], int] = time.perf_counter_ns,
        sleep: Callable[[float], None] = time.sleep,
    ):
        self._ns_per_byte = 1e9 / bytes_per_s
        self._tracer = tracer
        self._track = track
        self._clock = clock
        self._sleep = sleep
        #: when the last reserved byte arrives (0 = never used)
        self.free_at_ns = 0

    def reserve(self, nbytes: int) -> int:
        """Queue ``nbytes`` behind the link's backlog; returns arrival (ns).

        Zero bytes reserve nothing and arrive now.
        """
        now = self._clock()
        if nbytes <= 0:
            return now
        start = max(now, self.free_at_ns)
        duration = round(nbytes * self._ns_per_byte)
        self.free_at_ns = start + duration
        if self._tracer.enabled:
            self._tracer.record(
                TraceEvent("transfer", self._track, start, duration)
            )
        return self.free_at_ns

    def drain(self) -> None:
        """Block until everything reserved so far has arrived."""
        sleep_until(self.free_at_ns, self._clock, self._sleep)


class BucketUploads:
    """Readiness hook: reserve the link as each bucket's last gradient lands.

    Call it with the parameter names a backward layer just finished
    (the ``on_ready`` contract of :meth:`RankWorker.compute`);
    ``arrivals`` maps each completed bucket to the time its upload
    lands.
    """

    def __init__(
        self,
        link: LinkClock,
        bucket_of_name: Mapping[str, int],
        bucket_nbytes: Mapping[int, int],
    ):
        self._link = link
        self._bucket_of = bucket_of_name
        self._nbytes = bucket_nbytes
        self._owed = Counter(bucket_of_name.values())
        self.arrivals: dict[int, int] = {}

    def __call__(self, names: Iterable[str]) -> None:
        for name in names:
            index = self._bucket_of[name]
            self._owed[index] -= 1
            if self._owed[index] == 0:
                self.arrivals[index] = self._link.reserve(
                    self._nbytes[index]
                )
