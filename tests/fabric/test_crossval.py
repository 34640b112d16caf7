"""Fabric-vs-measured cross-validation: the K=4 simulation anchor."""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.fabric import fabric_cross_validate, single_node
from repro.nn import Dense, Sequential
from repro.telemetry import PhaseBreakdown, Tracer
from repro.telemetry.crossval import DEFAULT_FRACTION_GAP_TOLERANCE

FEATURES = 32
CLASSES = 4
LINK_GBPS = 0.002  # the paced rate the live exchange sleeps on


def synthetic_breakdown(transfer=0.4):
    return PhaseBreakdown(
        label="synthetic",
        wall_seconds=3.0,
        phase_seconds={
            "compute": 1.0,
            "encode": 0.2,
            "decode": 0.1,
            "transfer": transfer,
            "barrier": 50.0,  # rendezvous jitter: must not be charged
        },
    )


class TestFabricCrossValidate:
    def test_rows_and_fractions(self):
        cv = fabric_cross_validate(
            synthetic_breakdown(),
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=10_000,
            steps=3,
            link_gbps=LINK_GBPS,
        )
        assert [r.phase for r in cv.rows] == [
            "compute", "quantize", "communicate",
        ]
        assert sum(r.measured_fraction for r in cv.rows) == (
            pytest.approx(1.0)
        )
        assert sum(r.simulated_fraction for r in cv.rows) == (
            pytest.approx(1.0)
        )
        comm = next(r for r in cv.rows if r.phase == "communicate")
        assert comm.simulated_seconds == pytest.approx(
            cv.prediction.makespan_seconds * 3 * 4
        )

    def test_barrier_jitter_not_charged_to_the_fabric(self):
        # the 50 s barrier above is orchestration overhead; if it
        # leaked into the communicate group no wire model could pass
        cv = fabric_cross_validate(
            synthetic_breakdown(),
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=10_000,
            steps=3,
            link_gbps=LINK_GBPS,
        )
        comm = next(r for r in cv.rows if r.phase == "communicate")
        assert comm.measured_seconds == pytest.approx(0.4)

    def test_compute_and_quantize_carried_from_measurement(self):
        cv = fabric_cross_validate(
            synthetic_breakdown(),
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=10_000,
            steps=3,
            link_gbps=LINK_GBPS,
        )
        by_phase = {r.phase: r for r in cv.rows}
        assert by_phase["compute"].simulated_seconds == pytest.approx(1.0)
        assert by_phase["quantize"].simulated_seconds == pytest.approx(0.3)
        assert by_phase["communicate"].simulated_seconds == (
            pytest.approx(cv.prediction.makespan_seconds * 3 * 4)
        )

    def test_pass_fail_threshold(self):
        cv = fabric_cross_validate(
            synthetic_breakdown(),
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=10_000,
            steps=3,
            link_gbps=LINK_GBPS,
        )
        assert cv.passes(tolerance=1.0)
        assert not cv.passes(tolerance=cv.max_fraction_gap / 2)

    def test_report_contents(self):
        cv = fabric_cross_validate(
            synthetic_breakdown(),
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=10_000,
            steps=3,
            link_gbps=LINK_GBPS,
        )
        report = cv.report()
        assert "fabric cross-validation" in report
        assert "max phase-share gap" in report
        assert "communicate" in report

    def test_topology_world_size_mismatch_rejected(self):
        with pytest.raises(ValueError, match="world_size"):
            fabric_cross_validate(
                synthetic_breakdown(),
                scheme="qsgd4",
                pattern="ring",
                world_size=4,
                total_elements=10_000,
                steps=3,
                topology=single_node(8),
            )

    def test_bad_steps_rejected(self):
        with pytest.raises(ValueError, match="steps"):
            fabric_cross_validate(
                synthetic_breakdown(),
                scheme="qsgd4",
                pattern="ring",
                world_size=4,
                total_elements=10_000,
                steps=0,
            )


class TestLiveAnchor:
    def test_process_engine_k4_anchor_within_tolerance(self):
        # the acceptance anchor: a real K=4 process-engine run, traced,
        # must agree with the fabric's prediction of the same payload
        # over links paced at the same rate
        rng = np.random.default_rng(1)
        x = rng.normal(size=(48, FEATURES)).astype(np.float32)
        y = rng.integers(0, CLASSES, size=48).astype(np.int64)
        tracer = Tracer()
        config = TrainingConfig(
            scheme="qsgd4",
            exchange="nccl",
            world_size=4,
            batch_size=16,
            lr=0.01,
            seed=0,
            tracer=tracer,
            engine="process",
            link_gbps=LINK_GBPS,
        )
        model = Sequential(Dense(FEATURES, CLASSES, "fc", rng))
        with ParallelTrainer(model, config) as trainer:
            history = trainer.fit(x, y, x, y, epochs=1)
        assert not history.failed
        breakdown = PhaseBreakdown.from_history(history)
        elements = sum(
            int(np.prod(p.shape)) for p in model.parameters()
        )
        cv = fabric_cross_validate(
            breakdown,
            scheme="qsgd4",
            pattern="ring",
            world_size=4,
            total_elements=elements,
            steps=3,  # 48 samples / batch 16
            link_gbps=LINK_GBPS,
        )
        assert cv.passes(), cv.report()
        assert cv.max_fraction_gap <= DEFAULT_FRACTION_GAP_TOLERANCE
