"""LinkClock: the per-rank FIFO link, on an injected clock."""

import pytest

from repro.runtime.link import BucketUploads, LinkClock, sleep_until
from repro.telemetry import Tracer


class FakeTime:
    """A clock that only moves when told to, or when slept on."""

    def __init__(self, now_ns=1_000):
        self.now_ns = now_ns
        self.slept = []

    def clock(self):
        return self.now_ns

    def sleep(self, seconds):
        self.slept.append(seconds)
        self.now_ns += round(seconds * 1e9)


def make_link(time, bytes_per_s=1e9, **kw):
    # 1e9 B/s: one byte occupies the link for one nanosecond
    return LinkClock(
        bytes_per_s, clock=time.clock, sleep=time.sleep, **kw
    )


class TestLinkClock:
    def test_back_to_back_reservations_queue_fifo(self):
        time = FakeTime()
        link = make_link(time)
        assert link.reserve(100) == 1_100
        # the clock has not moved: the second upload waits its turn
        assert link.reserve(50) == 1_150
        time.now_ns = 1_120  # mid-way through the first upload
        assert link.reserve(10) == 1_160

    def test_idle_gap_restarts_at_now(self):
        time = FakeTime()
        link = make_link(time)
        link.reserve(100)
        time.now_ns = 5_000  # long after the link drained
        assert link.reserve(100) == 5_100

    def test_zero_bytes_reserve_nothing(self):
        time = FakeTime()
        tracer = Tracer()
        link = make_link(time, tracer=tracer)
        assert link.reserve(0) == time.now_ns
        assert link.free_at_ns == 0
        assert tracer.events() == []

    def test_fresh_clock_per_attempt_inherits_no_backlog(self):
        time = FakeTime()
        make_link(time).reserve(10_000)
        # a retried attempt opens a new link at the same instant
        assert make_link(time).reserve(100) == 1_100

    def test_reservations_are_traced_as_occupancy_intervals(self):
        time = FakeTime()
        tracer = Tracer()
        link = make_link(time, bytes_per_s=0.5e9, tracer=tracer, track=3)
        link.reserve(100)
        link.reserve(40)
        spans = [
            (e.name, e.track, e.start_ns, e.duration_ns)
            for e in tracer.events()
        ]
        assert spans == [
            ("transfer", 3, 1_000, 200),
            ("transfer", 3, 1_200, 80),
        ]

    def test_drain_sleeps_only_the_residual(self):
        time = FakeTime()
        link = make_link(time)
        link.reserve(1_000)
        time.now_ns += 400  # backward ran underneath the upload
        link.drain()
        assert time.slept == [pytest.approx(600e-9)]
        link.drain()  # already arrived: no second sleep
        assert len(time.slept) == 1


def test_sleep_until_a_past_deadline_returns_at_once():
    time = FakeTime(now_ns=500)
    sleep_until(100, time.clock, time.sleep)
    assert time.slept == []


def test_bucket_uploads_reserve_when_the_last_gradient_lands():
    time = FakeTime()
    link = make_link(time)
    uploads = BucketUploads(
        link, {"fc2.w": 0, "fc2.b": 0, "fc1.w": 1}, {0: 300, 1: 500}
    )
    uploads(["fc2.w"])
    assert uploads.arrivals == {}  # bucket 0 still owes fc2.b
    time.now_ns = 2_000
    uploads(["fc2.b"])
    assert uploads.arrivals == {0: 2_300}
    uploads(["fc1.w"])  # queued behind bucket 0
    assert uploads.arrivals == {0: 2_300, 1: 2_800}
