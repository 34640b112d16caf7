"""Measured per-rank tracing for the live training path.

The simulator in :mod:`repro.simulator` *predicts* how one synchronous
step decomposes into compute / encode / transfer / decode / barrier
time; this module *measures* that decomposition on the actual
:class:`~repro.core.algorithm.SynchronousStep` / engine / exchange
code, which is what the paper's stacked-bar epoch-time figures show.

Two tracer implementations share one duck-typed interface:

* :class:`Tracer` records every span as a timestamped
  :class:`TraceEvent` on a per-track timeline (one track per rank,
  plus a coordinator track) and accumulates typed :class:`Counters`.
  Collection is thread-safe so the threaded engine's rank workers can
  record concurrently.
* :class:`NullTracer` (the default, shared :data:`NULL_TRACER`
  singleton) is a no-op: ``span()`` returns one reusable null context
  manager and the counter sink is ``None``, so the instrumented hot
  path neither allocates nor synchronizes when tracing is off.

Tracing is observation-only by construction: no instrumentation point
touches gradient data, RNG streams, or exchange ordering, so traced
and untraced runs are bit-identical (asserted by
``tests/telemetry/test_trace_identity.py``).
"""

from __future__ import annotations

import threading
import time
from collections import defaultdict
from dataclasses import dataclass

__all__ = [
    "PHASES",
    "COORDINATOR",
    "TraceEvent",
    "Counters",
    "Tracer",
    "NullTracer",
    "NULL_TRACER",
]

#: canonical span names, mirroring the paper's breakdown figures
PHASES = ("compute", "encode", "transfer", "decode", "barrier")

#: track id for work done on the coordinator (exchange-driving) thread
COORDINATOR = -1


@dataclass(frozen=True)
class TraceEvent:
    """One completed span on one track (times from the monotonic clock)."""

    name: str
    track: int
    start_ns: int
    duration_ns: int

    @property
    def seconds(self) -> float:
        return self.duration_ns / 1e9


class Counters:
    """Typed, thread-safe counters for one traced run.

    Attributes:
        encode_calls / decode_calls: quantizer kernel invocations on the
            exchange path (every encoded message is decoded exactly
            once, so the two match — asserted by the parity tests).
        encoded_bytes / decoded_bytes: wire sizes of those messages.
        barrier_wait_seconds: time ranks (and the coordinator) spent
            blocked on step barriers and bucket rendezvous.
        straggler_stall_seconds: injected straggler delay actually slept.
        retries_total: failed step attempts that were re-tried by the
            resilience layer (see :mod:`repro.runtime.resilience`).
        evicted_ranks: ranks removed from the collective after
            exhausting their retries, in eviction order.
        rounds_skipped: micro-steps that ran no exchange because they
            fell inside a periodic-synchronization round
            (``aggregation_frequency > 1``).
        wire_bytes_saved: upload-side estimate of bytes *not* put on
            the wire by those skipped steps (live ranks x per-rank
            encoded payload), the counterpart of ``wire_bytes_total``.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self.encode_calls = 0
        self.decode_calls = 0
        self.encoded_bytes = 0
        self.decoded_bytes = 0
        self.barrier_wait_seconds = 0.0
        self.straggler_stall_seconds = 0.0
        self.retries_total = 0
        self.rounds_skipped = 0
        self.wire_bytes_saved = 0
        self.evicted_ranks: list[int] = []
        self._retries_by: dict[int, int] = defaultdict(int)
        self._sent_by: dict[int, int] = defaultdict(int)
        self._received_by: dict[int, int] = defaultdict(int)
        # per-layer (per gradient stream) accounting, keyed by the
        # exchange key (parameter name); the adaptive bit-width policy
        # consumes these measured profiles to re-derive assignments
        self._layer_encode_calls: dict[str, int] = defaultdict(int)
        self._layer_encoded_bytes: dict[str, int] = defaultdict(int)
        self._layer_decode_calls: dict[str, int] = defaultdict(int)
        self._layer_wire_bytes: dict[str, int] = defaultdict(int)

    # -- wire traffic -----------------------------------------------------
    def count_wire(
        self, src: int, dst: int, nbytes: int, tag: str = ""
    ) -> None:
        """Record ``nbytes`` moving up from ``src`` and down to ``dst``.

        A non-empty ``tag`` (the exchange key, i.e. the parameter name)
        additionally attributes the bytes to that gradient stream for
        the per-layer wire profile.
        """
        with self._lock:
            self._sent_by[src] += nbytes
            self._received_by[dst] += nbytes
            if tag:
                self._layer_wire_bytes[tag] += nbytes

    @property
    def wire_bytes_total(self) -> int:
        """Total bytes moved across links (equals link-traffic totals)."""
        with self._lock:
            return sum(self._sent_by.values())

    def bytes_sent(self, rank: int) -> int:
        """Bytes rank ``rank`` put on the wire ("up")."""
        with self._lock:
            return self._sent_by.get(rank, 0)

    def bytes_received(self, rank: int) -> int:
        """Bytes delivered to rank ``rank`` ("down")."""
        with self._lock:
            return self._received_by.get(rank, 0)

    def count_skipped_round(self, nbytes_saved: int) -> None:
        """Record one exchange-free micro-step of a sync round."""
        with self._lock:
            self.rounds_skipped += 1
            self.wire_bytes_saved += nbytes_saved

    # -- codec calls ------------------------------------------------------
    def count_encode(self, nbytes: int, key: str | None = None) -> None:
        with self._lock:
            self.encode_calls += 1
            self.encoded_bytes += nbytes
            if key:
                self._layer_encode_calls[key] += 1
                self._layer_encoded_bytes[key] += nbytes

    def count_decode(self, nbytes: int, key: str | None = None) -> None:
        with self._lock:
            self.decode_calls += 1
            self.decoded_bytes += nbytes
            if key:
                self._layer_decode_calls[key] += 1

    def layer_profile(self) -> dict[str, dict[str, int]]:
        """Measured per-layer encode-cost and wire-byte profile.

        One record per gradient stream that touched the exchange path:
        ``encode_calls`` / ``encoded_bytes`` measure the codec work the
        stream cost, ``wire_bytes`` the link traffic it generated.
        The dict is sorted by layer name, so identical runs produce
        identical (and directly comparable) profiles — this is the
        input :meth:`repro.quantization.QuantizationPolicy.refit`
        consumes.
        """
        with self._lock:
            names = sorted(
                set(self._layer_encode_calls)
                | set(self._layer_wire_bytes)
                | set(self._layer_decode_calls)
            )
            return {
                name: {
                    "encode_calls": self._layer_encode_calls.get(name, 0),
                    "encoded_bytes": self._layer_encoded_bytes.get(name, 0),
                    "decode_calls": self._layer_decode_calls.get(name, 0),
                    "wire_bytes": self._layer_wire_bytes.get(name, 0),
                }
                for name in names
            }

    # -- waiting ----------------------------------------------------------
    def add_barrier_wait(self, seconds: float) -> None:
        with self._lock:
            self.barrier_wait_seconds += seconds

    def add_straggler_stall(self, seconds: float) -> None:
        with self._lock:
            self.straggler_stall_seconds += seconds

    # -- resilience -------------------------------------------------------
    def count_retry(self, rank: int) -> None:
        """Record one re-attempted step after ``rank`` failed."""
        with self._lock:
            self.retries_total += 1
            self._retries_by[rank] += 1

    def count_eviction(self, rank: int) -> None:
        """Record ``rank`` leaving the collective for good."""
        with self._lock:
            self.evicted_ranks.append(rank)

    def retries(self, rank: int) -> int:
        """Retries attributed to failures of rank ``rank``."""
        with self._lock:
            return self._retries_by.get(rank, 0)

    def to_dict(self) -> dict:
        """JSON-friendly snapshot of every counter.

        The snapshot is stamped with the quantization kernel backend
        active at snapshot time so exported traces attribute their
        encode/decode timings to the backend that produced them.
        """
        from ..quantization import kernels

        with self._lock:
            return {
                "kernel_backend": kernels.backend_name(),
                "wire_bytes_total": sum(self._sent_by.values()),
                "bytes_sent": dict(self._sent_by),
                "bytes_received": dict(self._received_by),
                "encode_calls": self.encode_calls,
                "decode_calls": self.decode_calls,
                "encoded_bytes": self.encoded_bytes,
                "decoded_bytes": self.decoded_bytes,
                "barrier_wait_seconds": self.barrier_wait_seconds,
                "straggler_stall_seconds": self.straggler_stall_seconds,
                "retries_total": self.retries_total,
                "rounds_skipped": self.rounds_skipped,
                "wire_bytes_saved": self.wire_bytes_saved,
                "retries_by_rank": dict(self._retries_by),
                "evicted_ranks": list(self.evicted_ranks),
                "layer_profile": {
                    name: {
                        "encode_calls": self._layer_encode_calls.get(
                            name, 0
                        ),
                        "encoded_bytes": self._layer_encoded_bytes.get(
                            name, 0
                        ),
                        "decode_calls": self._layer_decode_calls.get(
                            name, 0
                        ),
                        "wire_bytes": self._layer_wire_bytes.get(name, 0),
                    }
                    for name in sorted(
                        set(self._layer_encode_calls)
                        | set(self._layer_wire_bytes)
                        | set(self._layer_decode_calls)
                    )
                },
            }


class _Span:
    """One live span; records a :class:`TraceEvent` when it exits."""

    __slots__ = ("_tracer", "_name", "_track", "_start_ns")

    def __init__(self, tracer: "Tracer", name: str, track: int):
        self._tracer = tracer
        self._name = name
        self._track = track
        self._start_ns = 0

    def __enter__(self) -> "_Span":
        self._start_ns = time.perf_counter_ns()
        return self

    def __exit__(self, *exc_info) -> bool:
        end_ns = time.perf_counter_ns()
        self._tracer._record(
            TraceEvent(
                name=self._name,
                track=self._track,
                start_ns=self._start_ns,
                duration_ns=end_ns - self._start_ns,
            )
        )
        return False


class _NullSpan:
    """Reusable no-op context manager (one shared instance, ever)."""

    __slots__ = ()

    def __enter__(self) -> "_NullSpan":
        return self

    def __exit__(self, *exc_info) -> bool:
        return False


_NULL_SPAN = _NullSpan()


class NullTracer:
    """The disabled tracer: every operation is a no-op.

    ``span()`` hands back one shared null context manager and
    ``counter_sink`` is ``None`` (byte-accounting call sites check for
    ``None`` instead of calling through), so steady-state training with
    tracing off performs zero tracing allocations — the overhead-guard
    test pins this, and the e2e ``telemetry.null_span_ns`` metric
    measures the span cost.
    """

    enabled = False
    counter_sink = None

    def span(self, name: str, track: int = COORDINATOR) -> _NullSpan:
        return _NULL_SPAN

    def record(self, event: TraceEvent) -> None:
        pass

    def phase_seconds(self, track: int | None = None) -> dict[str, float]:
        return {}

    def events(self) -> list[TraceEvent]:
        return []

    def clear(self) -> None:
        pass


NULL_TRACER = NullTracer()


class Tracer:
    """Collects spans and counters from one (or more) training runs.

    Spans nest freely — each ``with tracer.span(name, track)`` records
    its own interval — and may be opened concurrently from several
    threads: the threaded engine's rank workers each trace onto their
    own ``track`` while the coordinator traces exchanges onto
    :data:`COORDINATOR`.  Timing uses the monotonic
    ``time.perf_counter_ns`` clock, so wall-clock adjustments never
    corrupt a trace.
    """

    enabled = True

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._events: list[TraceEvent] = []
        self.counters = Counters()

    #: counter sink used by the byte-accounting hot path; ``None`` on
    #: the null tracer so disabled runs skip the call entirely
    @property
    def counter_sink(self) -> Counters:
        return self.counters

    def span(self, name: str, track: int = COORDINATOR) -> _Span:
        """Open a nestable span named ``name`` on ``track``."""
        return _Span(self, name, track)

    def record(self, event: TraceEvent) -> None:
        """Append one already-completed span to the trace.

        This is how spans recorded elsewhere get merged in — the
        process engine's workers each trace locally and ship their
        events back to the coordinator's tracer (``perf_counter_ns``
        reads the system-wide monotonic clock on Linux, so timestamps
        from other processes share this trace's timebase).
        """
        self._record(event)

    def _record(self, event: TraceEvent) -> None:
        with self._lock:
            self._events.append(event)

    def events(self) -> list[TraceEvent]:
        """Snapshot of every completed span, in completion order."""
        with self._lock:
            return list(self._events)

    def tracks(self) -> list[int]:
        """Sorted track ids that recorded at least one span."""
        with self._lock:
            return sorted({event.track for event in self._events})

    def phase_seconds(self, track: int | None = None) -> dict[str, float]:
        """Total seconds per span name (optionally for one track)."""
        totals: dict[str, float] = {}
        with self._lock:
            for event in self._events:
                if track is not None and event.track != track:
                    continue
                totals[event.name] = (
                    totals.get(event.name, 0.0) + event.seconds
                )
        return totals

    def clear(self) -> None:
        """Drop all events and counters (a fresh run on the same tracer)."""
        with self._lock:
            self._events.clear()
        self.counters = Counters()
