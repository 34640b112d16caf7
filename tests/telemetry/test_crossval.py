"""Measured-vs-simulated cross-validation of phase breakdowns."""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.nn import Dense, Sequential
from repro.telemetry import PhaseBreakdown, Tracer, cross_validate

FEATURES = 32
CLASSES = 4


def measured_breakdown(scheme, exchange, world_size=2):
    rng = np.random.default_rng(1)
    x = rng.normal(size=(48, FEATURES)).astype(np.float32)
    y = rng.integers(0, CLASSES, size=48).astype(np.int64)
    tracer = Tracer()
    config = TrainingConfig(
        scheme=scheme,
        exchange=exchange,
        world_size=world_size,
        batch_size=16,
        lr=0.01,
        seed=0,
        tracer=tracer,
    )
    model = Sequential(Dense(FEATURES, CLASSES, "fc", rng))
    with ParallelTrainer(model, config) as trainer:
        history = trainer.fit(x, y, x, y, epochs=1)
    assert not history.failed
    return PhaseBreakdown.from_history(history)


@pytest.mark.parametrize("exchange", ["mpi", "nccl"])
def test_cross_validate_live_cell(exchange):
    world_size = 4
    breakdown = measured_breakdown("qsgd4", exchange, world_size)
    validation = cross_validate(
        breakdown,
        scheme="qsgd4",
        exchange=exchange,
        world_size=world_size,
        network="AlexNet",
    )
    assert validation.prediction.exchange == exchange
    assert validation.predicted_makespan_seconds > 0.0
    phases = [row.phase for row in validation.rows]
    assert phases == ["compute", "quantize", "communicate"]
    assert sum(r.measured_fraction for r in validation.rows) == (
        pytest.approx(1.0)
    )
    assert sum(r.simulated_fraction for r in validation.rows) == (
        pytest.approx(1.0)
    )
    for row in validation.rows:
        assert -1.0 <= row.fraction_gap <= 1.0
    report = validation.report()
    assert "cross-validation" in report
    assert "predicted exchange makespan" in report


def test_makespan_is_the_closed_form_exchange_term():
    # the predicted makespan is the exchange term the paper figures are
    # computed from: double-buffered overlap on MPI (under the
    # serialized sum), quantize then allreduce on NCCL
    breakdown = PhaseBreakdown(
        label="synthetic", wall_seconds=1.0, phase_seconds={"compute": 1.0}
    )
    mpi = cross_validate(
        breakdown, scheme="qsgd4", exchange="mpi", world_size=8
    )
    sim = mpi.prediction
    assert mpi.predicted_makespan_seconds == sim.exchange_seconds
    assert sim.exchange_seconds == pytest.approx(
        sim.iteration_seconds - sim.compute_seconds
    )
    assert mpi.predicted_makespan_seconds < (
        sim.quantize_seconds + sim.comm_seconds
    )

    nccl = cross_validate(
        breakdown, scheme="qsgd4", exchange="nccl", world_size=8
    )
    assert nccl.predicted_makespan_seconds == (
        nccl.prediction.quantize_seconds + nccl.prediction.comm_seconds
    )


def test_gap_gate_and_tolerance_report():
    from repro.telemetry.crossval import DEFAULT_FRACTION_GAP_TOLERANCE

    breakdown = PhaseBreakdown(
        label="synthetic", wall_seconds=1.0, phase_seconds={"compute": 1.0}
    )
    validation = cross_validate(
        breakdown, scheme="qsgd4", exchange="nccl", world_size=8
    )
    assert validation.max_fraction_gap == max(
        abs(row.fraction_gap) for row in validation.rows
    )
    assert validation.passes(tolerance=1.0)
    assert not validation.passes(
        tolerance=validation.max_fraction_gap / 2
    )
    assert validation.passes() == (
        validation.max_fraction_gap <= DEFAULT_FRACTION_GAP_TOLERANCE
    )
    assert "max phase-share gap" in validation.report()
