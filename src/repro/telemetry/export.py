"""Trace exporters: Chrome ``chrome://tracing`` JSON and phase reports.

Two consumers of a recorded :class:`~repro.telemetry.tracer.Tracer`:

* :func:`chrome_trace` / :func:`write_chrome_trace` — the Chrome trace
  event format (load ``trace.json`` in ``chrome://tracing`` or Perfetto):
  one complete ``"X"`` event per span with microsecond ``ts``/``dur``,
  one ``tid`` (track) per rank plus a named coordinator track.
* :class:`PhaseBreakdown` — the aggregated per-phase seconds of a run,
  mirroring the paper's stacked-bar epoch-time figures (compute vs
  encode vs transfer vs decode), with an explicit ``other`` bucket for
  un-traced step work so the rows always sum to the measured wall time.
* :func:`exposed_transfer_seconds` — how much of the traced wire time
  was *not* hidden behind the sending rank's own compute: the measured
  non-overlapped communication term (t_c^no of arXiv:1711.05979).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Iterable

from .tracer import COORDINATOR, PHASES, TraceEvent, Tracer

__all__ = [
    "chrome_trace",
    "write_chrome_trace",
    "exposed_transfer_seconds",
    "PhaseBreakdown",
]


def _track_label(track: int) -> str:
    return "coordinator" if track == COORDINATOR else f"rank {track}"


def chrome_trace(tracer: Tracer) -> dict:
    """Render a tracer's events as a Chrome trace-event document.

    Returns a dict with a ``traceEvents`` list: one ``ph: "X"``
    (complete) event per span carrying ``ts`` and ``dur`` in
    microseconds relative to the earliest span, ``pid`` 0, and the
    span's track as ``tid``; plus one ``ph: "M"`` ``thread_name``
    metadata event per track so ranks are labelled in the viewer.  The
    coordinator track (:data:`~repro.telemetry.tracer.COORDINATOR`) is
    remapped to the tid after the highest rank, keeping all tids
    non-negative.
    """
    events = tracer.events()
    origin_ns = min((e.start_ns for e in events), default=0)
    max_track = max((e.track for e in events), default=0)
    coord_tid = max(max_track, -1) + 1

    def tid(track: int) -> int:
        return coord_tid if track == COORDINATOR else track

    trace_events: list[dict] = []
    for track in sorted({e.track for e in events}):
        trace_events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": tid(track),
                "args": {"name": _track_label(track)},
            }
        )
    for event in events:
        trace_events.append(
            {
                "name": event.name,
                "cat": "phase",
                "ph": "X",
                "ts": (event.start_ns - origin_ns) / 1e3,
                "dur": event.duration_ns / 1e3,
                "pid": 0,
                "tid": tid(event.track),
            }
        )
    from ..quantization import kernels

    return {
        "traceEvents": trace_events,
        "displayTimeUnit": "ms",
        "otherData": {
            # provenance: which quantization kernel backend produced the
            # encode/decode spans in this trace
            "kernel_backend": kernels.backend_name(),
            "counters": tracer.counters.to_dict(),
        },
    }


def write_chrome_trace(tracer: Tracer, path: str) -> None:
    """Write :func:`chrome_trace` output as JSON to ``path``."""
    with open(path, "w") as fh:
        json.dump(chrome_trace(tracer), fh, indent=1)
        fh.write("\n")


def exposed_transfer_seconds(
    events: Iterable[TraceEvent],
) -> tuple[float, float]:
    """``(exposed, total)`` seconds of the ``transfer`` spans.

    A transfer interval is *exposed* where no ``compute`` span of the
    same track covers it; summed over tracks this is the wire time the
    ranks' own compute did not hide.
    """
    compute: dict[int, list[tuple[int, int]]] = {}
    transfers: list[TraceEvent] = []
    for event in events:
        if event.name == "compute":
            compute.setdefault(event.track, []).append(
                (event.start_ns, event.start_ns + event.duration_ns)
            )
        elif event.name == "transfer":
            transfers.append(event)
    for spans in compute.values():
        spans.sort()
    total_ns = hidden_ns = 0
    for event in transfers:
        start, end = event.start_ns, event.start_ns + event.duration_ns
        total_ns += end - start
        # walk the track's compute spans in time order; ``start`` moves
        # past each one so overlapping spans are not counted twice
        for c_start, c_end in compute.get(event.track, ()):
            lo, hi = max(start, c_start), min(end, c_end)
            if hi > lo:
                hidden_ns += hi - lo
                start = hi
    return (total_ns - hidden_ns) / 1e9, total_ns / 1e9


@dataclass
class PhaseBreakdown:
    """Per-phase seconds of one measured run (the paper's figure unit).

    Attributes:
        label: cell label, e.g. ``"qsgd4/nccl/4gpu"``.
        wall_seconds: measured wall time the phases decompose.
        phase_seconds: traced busy seconds per canonical phase name.
        exposed_transfer_seconds: the part of the ``transfer`` seconds
            no compute of the sending rank covered (``None`` when the
            breakdown was built without the spans themselves).
    """

    label: str
    wall_seconds: float
    phase_seconds: dict[str, float] = field(default_factory=dict)
    exposed_transfer_seconds: float | None = None

    @property
    def traced_seconds(self) -> float:
        """Seconds accounted to a traced phase."""
        return sum(self.phase_seconds.get(name, 0.0) for name in PHASES)

    @property
    def other_seconds(self) -> float:
        """Un-traced step work (data sharding, metric collection...)."""
        return max(0.0, self.wall_seconds - self.traced_seconds)

    @property
    def total_seconds(self) -> float:
        """Sum of every reported row, ``other`` included."""
        return self.traced_seconds + self.other_seconds

    def rows(self) -> list[tuple[str, float]]:
        """(phase, seconds) rows in canonical order, ``other`` last."""
        out = [
            (name, self.phase_seconds.get(name, 0.0)) for name in PHASES
        ]
        out.append(("other", self.other_seconds))
        return out

    def fractions(self) -> dict[str, float]:
        """Share of the total per phase (zeros when nothing measured)."""
        total = self.total_seconds
        if total <= 0.0:
            return {name: 0.0 for name, _ in self.rows()}
        return {name: sec / total for name, sec in self.rows()}

    @classmethod
    def from_tracer(
        cls, tracer: Tracer, wall_seconds: float, label: str = ""
    ) -> "PhaseBreakdown":
        """Aggregate a tracer's spans into one breakdown."""
        phases = tracer.phase_seconds()
        return cls(
            label=label,
            wall_seconds=wall_seconds,
            phase_seconds={
                name: phases.get(name, 0.0) for name in PHASES
            },
            exposed_transfer_seconds=exposed_transfer_seconds(
                tracer.events()
            )[0],
        )

    @classmethod
    def from_history(cls, history) -> "PhaseBreakdown":
        """Aggregate a traced run's :class:`~repro.core.History`.

        Uses the per-epoch phase seconds the trainer records when
        tracing is on and the per-epoch training wall time (test-set
        evaluation is outside both).
        """
        totals = history.phase_totals()
        wall = sum(m.wall_seconds for m in history.epochs)
        return cls(
            label=history.label, wall_seconds=wall, phase_seconds=totals
        )

    def report(self) -> str:
        """Text table of the breakdown, paper-figure style."""
        lines = [f"phase breakdown [{self.label}]"]
        total = self.total_seconds
        for name, seconds in self.rows():
            share = seconds / total if total > 0 else 0.0
            lines.append(f"  {name:9s} {seconds:9.4f} s  {share:6.1%}")
        lines.append(
            f"  {'total':9s} {total:9.4f} s  (wall "
            f"{self.wall_seconds:.4f} s)"
        )
        transfer = self.phase_seconds.get("transfer", 0.0)
        if self.exposed_transfer_seconds is not None and transfer > 0:
            lines.append(
                f"  transfer exposed {self.exposed_transfer_seconds:.4f} s "
                f"of {transfer:.4f} s "
                "(the rest hid behind the sending rank's compute)"
            )
        return "\n".join(lines)
