"""Traced counters agree with the exchange's own traffic accounting.

The tracer's wire-byte counters are fed from
:meth:`repro.comm.base.GradientExchange._send`, the one site that also
counts ``History.comm_bytes``, so parity is structural — these tests pin it across the
scheme x exchange x engine grid, together with the codec-call
invariant (every encoded message is decoded exactly once).
"""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.nn import Dense, Sequential
from repro.telemetry import Tracer

SCHEMES = ("32bit", "qsgd4", "1bit")
EXCHANGES = ("mpi", "nccl", "alltoall")
ENGINES = ("sequential", "threaded")

FEATURES = 64
CLASSES = 4


@pytest.fixture(scope="module")
def dataset():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(64, FEATURES)).astype(np.float32)
    y = rng.integers(0, CLASSES, size=64).astype(np.int64)
    return x, y


def linear_model(seed=1):
    rng = np.random.default_rng(seed)
    return Sequential(Dense(FEATURES, CLASSES, "fc", rng))


def traced_run(dataset, scheme, exchange, engine, world_size=2, epochs=2):
    x, y = dataset
    tracer = Tracer()
    config = TrainingConfig(
        scheme=scheme,
        exchange=exchange,
        engine=engine,
        world_size=world_size,
        batch_size=16,
        lr=0.01,
        seed=0,
        tracer=tracer,
    )
    with ParallelTrainer(linear_model(), config) as trainer:
        history = trainer.fit(x, y, x, y, epochs=epochs)
    return tracer, history


@pytest.mark.parametrize("engine", ENGINES)
@pytest.mark.parametrize("exchange", EXCHANGES)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_wire_bytes_match_history(dataset, scheme, exchange, engine):
    tracer, history = traced_run(dataset, scheme, exchange, engine)
    assert not history.failed
    counters = tracer.counters
    # traffic is reset per epoch, counters accumulate across the run:
    # their total must equal the sum of the per-epoch byte records
    assert counters.wire_bytes_total == history.total_comm_bytes
    assert counters.wire_bytes_total > 0
    # every encoded message crosses the exchange and is decoded once
    assert counters.encode_calls == counters.decode_calls
    assert counters.encoded_bytes == counters.decoded_bytes
    if exchange != "nccl" or scheme != "32bit":
        # the full-precision NCCL ring sums without a codec round-trip;
        # every other cell runs encode/decode kernels on the live path
        assert counters.encode_calls > 0


@pytest.mark.parametrize("engine", ENGINES)
def test_alltoall_wire_is_fanout_of_encoded_bytes(dataset, engine):
    # every encoded message goes to all K peers; the self-link is
    # skipped, so wire bytes are exactly (K-1) x encoded bytes
    world_size = 3
    tracer, history = traced_run(
        dataset, "qsgd4", "alltoall", engine, world_size=world_size
    )
    assert not history.failed
    counters = tracer.counters
    assert counters.encoded_bytes > 0
    assert (
        counters.wire_bytes_total
        == counters.encoded_bytes * (world_size - 1)
    )


def test_per_rank_wire_split_covers_total(dataset):
    tracer, _history = traced_run(dataset, "qsgd4", "mpi", "sequential")
    counters = tracer.counters
    sent = sum(counters.bytes_sent(r) for r in range(2))
    received = sum(counters.bytes_received(r) for r in range(2))
    assert sent == counters.wire_bytes_total
    assert received == counters.wire_bytes_total


def test_epoch_phase_seconds_populated_when_traced(dataset):
    tracer, history = traced_run(dataset, "qsgd4", "mpi", "sequential")
    for metrics in history.epochs:
        assert metrics.compute_seconds is not None
        assert metrics.compute_seconds > 0.0
        assert metrics.encode_seconds > 0.0
        assert metrics.decode_seconds > 0.0
    totals = history.phase_totals()
    assert totals["compute"] == pytest.approx(
        sum(m.compute_seconds for m in history.epochs)
    )
    # sequential engine, free wire: phases partition the step, so the
    # traced busy time can never exceed the measured wall time
    wall = sum(m.wall_seconds for m in history.epochs)
    assert sum(totals.values()) <= wall


def test_untraced_run_leaves_phase_fields_none(dataset):
    x, y = dataset
    config = TrainingConfig(
        scheme="qsgd4", exchange="mpi", world_size=2, batch_size=16,
        lr=0.01, seed=0,
    )
    with ParallelTrainer(linear_model(), config) as trainer:
        history = trainer.fit(x, y, x, y, epochs=1)
    assert history.epochs[0].compute_seconds is None
    assert history.phase_totals() == {
        name: 0.0
        for name in ("compute", "encode", "transfer", "decode", "barrier")
    }
    assert "compute_seconds" not in history.to_dict()["epochs"][0]
