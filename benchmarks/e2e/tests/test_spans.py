"""Self-time arithmetic: nested spans, and spans on two threads."""

import threading

from spans import SpanRecorder


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_is_duration_minus_direct_children():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("step"):
        clock.now = 2.0
        with recorder.span("exchange"):
            clock.now = 3.0
            with recorder.span("encode"):
                clock.now = 4.0
            clock.now = 5.0
        clock.now = 6.0
        with recorder.span("apply"):
            clock.now = 7.0
        clock.now = 10.0
    by_name = {span.name: span for span in recorder.spans}
    assert by_name["step"].duration == 10.0
    # exchange (3 s) and apply (1 s) are direct children; encode is not
    assert by_name["step"].self_time == 6.0
    assert by_name["exchange"].self_time == 2.0
    assert by_name["encode"].self_time == 1.0
    assert by_name["encode"].parent == "exchange"
    assert by_name["step"].parent is None
    # the rows add up to the wall: nothing is counted twice or lost
    assert sum(span.self_time for span in recorder.spans) == 10.0


def test_same_name_nesting_counts_once():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    with recorder.span("decode"):
        clock.now = 1.0
        with recorder.span("decode"):
            clock.now = 3.0
        clock.now = 4.0
    assert recorder.calls("decode") == 1
    assert recorder.self_seconds("decode") == 4.0


def test_spans_on_another_thread_do_not_touch_this_threads_self_time():
    clock = FakeClock()
    recorder = SpanRecorder(clock)
    entered = threading.Event()
    release = threading.Event()

    def rank():
        with recorder.span("compute"):
            entered.set()
            release.wait(timeout=10)

    thread = threading.Thread(target=rank)
    with recorder.span("step"):
        thread.start()
        assert entered.wait(timeout=10)
        clock.now = 5.0
        release.set()
        thread.join(timeout=10)
        assert not thread.is_alive()
        clock.now = 8.0
    by_name = {span.name: span for span in recorder.spans}
    # the rank's compute overlapped the step but is not its child
    assert by_name["compute"].parent is None
    assert by_name["compute"].thread != by_name["step"].thread
    assert by_name["step"].self_time == 8.0
    assert recorder.self_seconds("compute", parent="step") == 0.0


def test_wrap_times_an_instance_not_its_class():
    class Codec:
        def encode(self, value):
            return value * 2

    recorder = SpanRecorder()
    wrapped, plain = Codec(), Codec()
    seen = []
    recorder.wrap(wrapped, "encode", "encode", lambda a, k, r: seen.append(r))
    assert wrapped.encode(3) == 6 and plain.encode(3) == 6
    assert recorder.calls("encode") == 1
    assert seen == [6]
