"""Telemetry: measured per-rank tracing for real training runs.

The subsystem the paper's empirical methodology implies but the repo's
simulator-only observability lacked: a :class:`Tracer` records
nestable, monotonic-clock spans (``compute`` / ``encode`` /
``transfer`` / ``decode`` / ``barrier``) on one track per rank, typed
:class:`Counters` account wire bytes, codec calls and barrier/straggler
waiting, and exporters render a Chrome-trace JSON
(:func:`write_chrome_trace`) or an aggregated :class:`PhaseBreakdown`
mirroring the paper's stacked-bar figures.  Cross-validation against
the calibrated performance simulator lives in
:mod:`repro.telemetry.crossval`.

Tracing defaults off via the shared :data:`NULL_TRACER` no-op (near
zero overhead, nothing allocated in steady state) and is observation
only: traced and untraced runs are bit-identical.  Enable it by
passing a tracer through the config::

    from repro import ParallelTrainer, TrainingConfig
    from repro.telemetry import PhaseBreakdown, Tracer, write_chrome_trace

    tracer = Tracer()
    config = TrainingConfig(scheme="qsgd4", exchange="nccl",
                            world_size=4, tracer=tracer)
    ...  # train as usual
    write_chrome_trace(tracer, "trace.json")
    print(PhaseBreakdown.from_history(history).report())
"""

from .crossval import CrossValidation, RatioRow, cross_validate
from .export import (
    PhaseBreakdown,
    chrome_trace,
    exposed_transfer_seconds,
    write_chrome_trace,
)
from .tracer import (
    COORDINATOR,
    NULL_TRACER,
    PHASES,
    Counters,
    NullTracer,
    TraceEvent,
    Tracer,
)

__all__ = [
    "COORDINATOR",
    "NULL_TRACER",
    "PHASES",
    "Counters",
    "NullTracer",
    "TraceEvent",
    "Tracer",
    "PhaseBreakdown",
    "chrome_trace",
    "exposed_transfer_seconds",
    "write_chrome_trace",
    "CrossValidation",
    "RatioRow",
    "cross_validate",
]
