"""Chrome-trace export schema and phase-breakdown report tests."""

import json

import pytest

from repro.core import EpochMetrics, History
from repro.telemetry import (
    PhaseBreakdown,
    TraceEvent,
    Tracer,
    exposed_transfer_seconds,
    write_chrome_trace,
)
from repro.telemetry.export import chrome_trace
from repro.telemetry.tracer import COORDINATOR


def traced_tracer():
    tracer = Tracer()
    with tracer.span("compute", 0):
        with tracer.span("encode", 0):
            pass
    with tracer.span("compute", 1):
        pass
    with tracer.span("barrier", COORDINATOR):
        pass
    tracer.counters.count_wire(0, 1, 42)
    return tracer


class TestChromeTrace:
    def test_schema(self):
        doc = chrome_trace(traced_tracer())
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        complete = [e for e in events if e["ph"] == "X"]
        metadata = [e for e in events if e["ph"] == "M"]
        assert len(complete) == 4
        # one thread_name metadata record per track (rank 0, 1, coord)
        assert len(metadata) == 3
        for event in complete:
            assert event["cat"] == "phase"
            assert event["ts"] >= 0.0
            assert event["dur"] >= 0.0
            assert event["pid"] == 0
            assert event["tid"] >= 0

    def test_coordinator_track_remapped_after_ranks(self):
        doc = chrome_trace(traced_tracer())
        names = {
            e["args"]["name"]: e["tid"]
            for e in doc["traceEvents"]
            if e["ph"] == "M"
        }
        assert names == {"rank 0": 0, "rank 1": 1, "coordinator": 2}

    def test_timestamps_relative_to_first_span(self):
        doc = chrome_trace(traced_tracer())
        complete = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert min(e["ts"] for e in complete) == 0.0

    def test_counters_embedded(self):
        doc = chrome_trace(traced_tracer())
        assert doc["otherData"]["counters"]["wire_bytes_total"] == 42

    def test_kernel_backend_stamped(self):
        from repro.quantization import kernels

        doc = chrome_trace(traced_tracer())
        assert doc["otherData"]["kernel_backend"] == kernels.backend_name()
        assert (
            doc["otherData"]["counters"]["kernel_backend"]
            == kernels.backend_name()
        )

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(traced_tracer(), str(path))
        doc = json.loads(path.read_text())
        assert doc["traceEvents"]

    def test_empty_tracer_exports(self):
        doc = chrome_trace(Tracer())
        assert doc["traceEvents"] == []


class TestPhaseBreakdown:
    def test_rows_sum_to_wall_time(self):
        breakdown = PhaseBreakdown(
            label="cell",
            wall_seconds=10.0,
            phase_seconds={"compute": 6.0, "encode": 1.5, "decode": 0.5},
        )
        rows = dict(breakdown.rows())
        assert rows["other"] == pytest.approx(2.0)
        assert breakdown.total_seconds == pytest.approx(10.0)
        assert sum(breakdown.fractions().values()) == pytest.approx(1.0)

    def test_overlapped_phases_clamp_other_at_zero(self):
        # threaded engine: traced busy time can exceed wall time
        breakdown = PhaseBreakdown(
            label="cell", wall_seconds=1.0, phase_seconds={"compute": 4.0}
        )
        assert breakdown.other_seconds == 0.0
        assert breakdown.total_seconds == pytest.approx(4.0)

    def test_from_tracer(self):
        breakdown = PhaseBreakdown.from_tracer(
            traced_tracer(), wall_seconds=1.0, label="cell"
        )
        assert breakdown.phase_seconds["compute"] > 0.0
        assert breakdown.phase_seconds["transfer"] == 0.0
        assert "phase breakdown [cell]" in breakdown.report()

    def test_from_history_uses_phase_totals(self):
        history = History(label="qsgd4/mpi/2gpu")
        history.append(
            EpochMetrics(
                epoch=0,
                train_loss=1.0,
                train_accuracy=0.5,
                test_accuracy=0.5,
                comm_bytes=100,
                wall_seconds=2.0,
                compute_seconds=1.0,
                encode_seconds=0.25,
            )
        )
        history.append(
            EpochMetrics(
                epoch=1,
                train_loss=0.9,
                train_accuracy=0.6,
                test_accuracy=0.6,
                comm_bytes=100,
                wall_seconds=2.0,
                compute_seconds=1.0,
                encode_seconds=0.25,
            )
        )
        breakdown = PhaseBreakdown.from_history(history)
        assert breakdown.label == "qsgd4/mpi/2gpu"
        assert breakdown.wall_seconds == pytest.approx(4.0)
        assert breakdown.phase_seconds["compute"] == pytest.approx(2.0)
        assert breakdown.phase_seconds["encode"] == pytest.approx(0.5)


def _span(name, track, start_ms, end_ms):
    return TraceEvent(
        name, track, start_ms * 1_000_000, (end_ms - start_ms) * 1_000_000
    )


class TestExposedTransfer:
    def test_only_the_sending_ranks_compute_hides_a_transfer(self):
        events = [
            _span("compute", 0, 0, 10),
            _span("transfer", 0, 4, 12),  # 6 ms under compute, 2 exposed
            _span("transfer", 0, 12, 15),  # wholly exposed
            _span("compute", 1, 0, 20),
            _span("transfer", 1, 5, 9),  # wholly hidden
            _span("barrier", 0, 10, 15),  # waiting hides nothing
        ]
        exposed, total = exposed_transfer_seconds(events)
        assert total == pytest.approx(0.015)
        assert exposed == pytest.approx(0.005)

    def test_overlapping_compute_spans_are_not_counted_twice(self):
        events = [
            _span("compute", 0, 0, 10),
            _span("compute", 0, 5, 15),
            _span("compute", 0, 2, 4),
            _span("transfer", 0, 0, 20),
        ]
        assert exposed_transfer_seconds(events) == (
            pytest.approx(0.005),
            pytest.approx(0.020),
        )

    def test_no_transfers_is_zero_of_zero(self):
        assert exposed_transfer_seconds([_span("compute", 0, 0, 1)]) == (
            0.0,
            0.0,
        )

    def test_report_prints_the_line_only_for_traced_transfers(self):
        tracer = Tracer()
        tracer.record(_span("compute", 0, 0, 10))
        tracer.record(_span("transfer", 0, 5, 15))
        report = PhaseBreakdown.from_tracer(tracer, wall_seconds=0.015).report()
        assert "transfer exposed 0.0050 s of 0.0100 s" in report.splitlines()[-1]
        from_totals = PhaseBreakdown("cell", 1.0, {"transfer": 0.5})
        assert "transfer exposed" not in from_totals.report()
        unpaced = PhaseBreakdown.from_tracer(traced_tracer(), 1.0)
        assert "transfer exposed" not in unpaced.report()
