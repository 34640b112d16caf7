"""Overhead guard: the NullTracer path is free enough to ignore.

Instrumentation went into the steady-state hot path (engines and
exchanges), so these tests pin the disabled-tracing cost: the shared
null span must stay a trivial context manager whose total per-step
cost is under 2% of the measured step time, and the traced call sites
must not add steady-state allocations to the zero-allocation
workspace path.
"""

import time
import tracemalloc

import numpy as np

from repro.core.algorithm import SynchronousStep
from repro.core.config import TrainingConfig
from repro.telemetry import NULL_TRACER

WORLD_SIZE = 4

#: AlexNet-like shapes (conv, large fc, small fc), scaled down
PARAM_SHAPES = {
    "conv1": (32, 75),
    "fc1": (64, 512),
    "fc2": (10, 64),
}


class _Param:
    def __init__(self, name, shape):
        self.name = name
        self.shape = shape
        self.size = int(np.prod(shape))
        self.kind = "param"


def build_step() -> SynchronousStep:
    config = TrainingConfig(
        scheme="qsgd4",
        exchange="nccl",
        world_size=WORLD_SIZE,
        batch_size=16,
        seed=0,
    )
    return SynchronousStep(
        config, [_Param(n, s) for n, s in PARAM_SHAPES.items()]
    )


def make_grads():
    rngs = [np.random.default_rng(100 + r) for r in range(WORLD_SIZE)]
    return {
        name: [
            rngs[r].normal(size=shape).astype(np.float32)
            for r in range(WORLD_SIZE)
        ]
        for name, shape in PARAM_SHAPES.items()
    }


def run_steps(step, grads, n):
    for _ in range(n):
        for name in PARAM_SHAPES:
            step.aggregate(name, grads[name])


def test_untraced_step_uses_null_tracer():
    step = build_step()
    assert step.tracer is NULL_TRACER
    assert step.exchange.tracer is NULL_TRACER
    assert step.exchange.traffic.counters is None


def test_null_span_cost_is_under_two_percent_of_step_time():
    step = build_step()
    grads = make_grads()
    run_steps(step, grads, 3)  # warm the workspace arena

    timed_steps = 20
    t0 = time.perf_counter()
    run_steps(step, grads, timed_steps)
    step_seconds = (time.perf_counter() - t0) / timed_steps

    # cost of one disabled instrumentation point, measured directly
    span = NULL_TRACER.span
    iterations = 100_000
    t0 = time.perf_counter()
    for _ in range(iterations):
        with span("encode", 0):
            pass
    per_span = (time.perf_counter() - t0) / iterations

    # instrumentation points one step crosses: per parameter, the NCCL
    # path opens an encode and a decode span per rank, plus a counter
    # None-check alongside each — bound generously at twice that
    spans_per_step = 2 * 2 * WORLD_SIZE * len(PARAM_SHAPES)
    overhead = per_span * spans_per_step
    assert overhead < 0.02 * step_seconds, (
        f"null tracing costs {overhead * 1e6:.1f}us of a "
        f"{step_seconds * 1e6:.1f}us step "
        f"({overhead / step_seconds:.2%} > 2%)"
    )


def test_null_instrumentation_points_allocate_nothing():
    # the exact operations the hot path performs per instrumentation
    # point when tracing is off: open/close the shared null span and
    # check the counter sink for None — zero allocations, measured
    span = NULL_TRACER.span
    sink = NULL_TRACER.counter_sink
    tracemalloc.start()
    before, _ = tracemalloc.get_traced_memory()
    for _ in range(10_000):
        with span("encode", 3):
            pass
        if sink is not None:  # pragma: no cover - sink is None
            sink.count_encode(0)
    after, _ = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    # a constant few bytes of loop machinery is fine; any per-call
    # allocation (e.g. a fresh span object) would show as >= 280 KB
    assert after - before < 512


def _steady_state_alloc_per_step(steps: int = 10) -> float:
    step = build_step()
    grads = make_grads()
    run_steps(step, grads, 5)  # arenas reach steady state first
    tracemalloc.start()
    tracemalloc.reset_peak()
    before, _ = tracemalloc.get_traced_memory()
    run_steps(step, grads, steps)
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return max(0, peak - before) / steps


def test_null_traced_hot_path_allocation_stays_at_baseline():
    # the workspace hot path's only steady-state allocations are the
    # pre-existing LinkTraffic transfer records plus, under the
    # compiled kernel backends, transient ctypes argument objects
    # (~KBs/step, vs ~MBs on the allocating path); disabled tracing
    # must not add to them — a span object per encode/decode per rank
    # would add tens of KB/step and show up immediately here
    per_step = _steady_state_alloc_per_step()
    assert per_step < 32_768, f"{per_step:.0f} B/step allocated"
