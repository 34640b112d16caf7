"""Link pacing: payload accounting and wall-clock semantics."""

import time

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.nn import Dense, ReLU, Sequential
from repro.telemetry import Tracer, exposed_transfer_seconds


def dataset(n=32, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.normal(size=(n, 8)).astype(np.float32)
    y = rng.integers(0, 4, size=n).astype(np.int64)
    return x, y


def linear_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(Dense(8, 4, "fc", rng))


def make_trainer(**config_kwargs):
    config = TrainingConfig(
        scheme="32bit", batch_size=16, lr=0.01, **config_kwargs
    )
    return ParallelTrainer(linear_model(), config)


class TestPayloadAccounting:
    def test_bucket_payloads_cover_all_parameters(self):
        with make_trainer(world_size=2, link_gbps=1.0) as trainer:
            engine = trainer.engine
            expected = sum(
                engine.step_engine.payload_nbytes(p.name, p.data.shape)
                for p in engine.workers[0].parameters
            )
            assert expected > 0
            assert engine.per_rank_payload_nbytes == expected
            assert (
                sum(engine.bucket_tx_nbytes.values()) == expected
            )

    def test_quantized_payload_smaller_than_fullprec(self):
        payloads = {}
        for scheme in ("32bit", "qsgd4"):
            config = TrainingConfig(
                scheme=scheme,
                batch_size=16,
                world_size=2,
                # force quantization of every matrix
                passthrough_coverage=1.0,
            )
            rng = np.random.default_rng(0)
            model = Sequential(Dense(256, 64, "fc", rng))
            with ParallelTrainer(model, config) as trainer:
                payloads[scheme] = (
                    trainer.engine.per_rank_payload_nbytes
                )
        assert payloads["qsgd4"] < payloads["32bit"] / 4

    def test_single_rank_never_paced(self):
        with make_trainer(world_size=1, link_gbps=0.001) as trainer:
            assert trainer.engine._link_bytes_per_s is None


class TestPacedWallClock:
    @pytest.mark.parametrize("engine", ["sequential", "threaded"])
    def test_paced_step_completes_and_is_exact(self, engine):
        x, y = dataset()
        with make_trainer(world_size=2, engine=engine) as reference:
            loss_free, acc_free = reference.train_step(x[:16], y[:16])
        with make_trainer(
            world_size=2, engine=engine, link_gbps=1.0
        ) as trainer:
            loss, acc = trainer.train_step(x[:16], y[:16])
        # pacing is pure wall-clock; the numbers cannot move
        assert loss == loss_free
        assert acc == acc_free

    def test_sequential_engine_pays_wire_time_serially(self):
        x, y = dataset(n=16)
        with make_trainer(world_size=2) as probe:
            payload = probe.engine.per_rank_payload_nbytes
        # rate such that each rank's upload takes 25 ms
        link_gbps = 8.0 * payload / 0.025 / 1e9
        with make_trainer(world_size=2, link_gbps=link_gbps) as trainer:
            start = time.perf_counter()
            trainer.train_step(x, y)
            elapsed = time.perf_counter() - start
        assert elapsed >= 2 * 0.025


# -- the link model, read back from traced paced runs -------------------------

ENGINES = ["sequential", "threaded", "process"]
STEPS = 2
#: one rank's wire time per sync step in the traced runs below
WIRE_S = 0.02


def deep_model(seed=0):
    rng = np.random.default_rng(seed)
    return Sequential(
        Dense(8, 64, "fc1", rng),
        ReLU(),
        Dense(64, 32, "fc2", rng),
        ReLU(),
        Dense(32, 4, "fc3", rng),
    )


def deep_trainer(engine, wire_s=None, **kw):
    """qsgd4 x nccl x K=2 on the three-layer net, one parameter a bucket."""
    config = dict(
        scheme="qsgd4",
        exchange="nccl",
        world_size=2,
        batch_size=16,
        lr=0.05,
        momentum=0.0,
        seed=3,
        engine=engine,
        passthrough_coverage=1.0,
        comm_bucket_bytes=1,
    )
    config.update(kw)
    if wire_s is not None:
        with ParallelTrainer(
            deep_model(), TrainingConfig(**config)
        ) as probe:
            payload = probe.engine.per_rank_payload_nbytes
        config["link_gbps"] = 8.0 * payload / wire_s / 1e9
    return ParallelTrainer(deep_model(), TrainingConfig(**config))


def span_end(event):
    return event.start_ns + event.duration_ns


class TestLinkModelInTrace:
    @pytest.fixture(scope="class", params=ENGINES)
    def traced(self, request):
        x, y = dataset(n=16 * STEPS)
        tracer = Tracer()
        walls = []
        with deep_trainer(
            request.param, wire_s=WIRE_S, tracer=tracer
        ) as trainer:
            for step in range(STEPS):
                batch = slice(16 * step, 16 * (step + 1))
                start = time.perf_counter()
                trainer.train_step(x[batch], y[batch])
                walls.append(time.perf_counter() - start)
            engine = trainer.engine
            return {
                "engine": request.param,
                "events": tracer.events(),
                "profile": tracer.counters.layer_profile(),
                "encode_calls": tracer.counters.encode_calls,
                "buckets": engine.buckets,
                "wire_s": engine.per_rank_payload_nbytes
                / engine._link_bytes_per_s,
                "walls": walls,
            }

    @staticmethod
    def transfers(traced, rank):
        return sorted(
            (
                e
                for e in traced["events"]
                if e.name == "transfer" and e.track == rank
            ),
            key=lambda e: e.start_ns,
        )

    def test_one_ranks_transfers_queue_and_sum_to_its_payload(self, traced):
        for rank in range(2):
            spans = self.transfers(traced, rank)
            assert spans
            for earlier, later in zip(spans, spans[1:]):
                assert later.start_ns >= span_end(earlier)
            assert sum(e.seconds for e in spans) == pytest.approx(
                STEPS * traced["wire_s"], abs=1e-6
            )

    def test_no_collective_starts_before_its_bucket_arrived(self, traced):
        buckets = traced["buckets"]
        encodes = sorted(
            e.start_ns for e in traced["events"] if e.name == "encode"
        )
        assert len(encodes) == traced["encode_calls"]
        per_rank = [self.transfers(traced, rank) for rank in range(2)]
        # the sequential engine uploads a rank's whole payload at once
        per_step = len(per_rank[0]) // STEPS
        assert per_step in (1, len(buckets))
        cursor = 0
        for step in range(STEPS):
            for bucket in buckets:
                calls = sum(
                    traced["profile"][name]["encode_calls"] // STEPS
                    for name in bucket.names
                    if name in traced["profile"]
                )
                if not calls:
                    continue
                upload = step * per_step + min(bucket.index, per_step - 1)
                arrival = max(span_end(spans[upload]) for spans in per_rank)
                assert encodes[cursor] >= arrival
                cursor += calls
        assert cursor == len(encodes)

    def test_step_wall_is_at_least_one_ranks_wire_time(self, traced):
        serial = 2 if traced["engine"] == "sequential" else 1
        for wall in traced["walls"]:
            assert wall >= serial * traced["wire_s"]

    def test_wire_time_overlaps_the_ranks_own_compute(self, traced):
        exposed, total = exposed_transfer_seconds(traced["events"])
        assert total == pytest.approx(
            2 * STEPS * traced["wire_s"], abs=1e-6
        )
        if traced["engine"] == "sequential":
            # the serial reference: upload strictly after compute
            assert exposed == total
        else:
            assert exposed < total
        if traced["engine"] == "threaded":
            # the readiness hook reserves and returns: a rank's compute
            # spans (microseconds of work here) never contain its sleeps
            compute = sum(
                e.seconds
                for e in traced["events"]
                if e.name == "compute" and e.track == 0
            )
            assert compute < STEPS * traced["wire_s"]


SYNC_MODES = {
    "every-step": {},
    "accumulate": {"aggregation_frequency": 2},
    "local-sgd": {"aggregation_frequency": 2, "sync_mode": "local_sgd"},
}


def fit_digest(engine, wire_s=None, **kw):
    x, y = dataset(n=64)
    with deep_trainer(engine, wire_s=wire_s, **kw) as trainer:
        return trainer.fit(x, y, x[:16], y[:16], epochs=1).digest()


class TestPacingNeverMovesTheTrajectory:
    @pytest.fixture(scope="class")
    def unpaced(self):
        return {
            mode: fit_digest("sequential", **knobs)
            for mode, knobs in SYNC_MODES.items()
        }

    @pytest.mark.parametrize("mode", SYNC_MODES)
    @pytest.mark.parametrize("engine", ENGINES)
    def test_paced_digest_equals_unpaced(self, unpaced, engine, mode):
        digest = fit_digest(engine, wire_s=0.004, **SYNC_MODES[mode])
        assert digest == unpaced[mode]

    def test_retried_paced_step_lands_on_the_uninterrupted_digest(
        self, unpaced
    ):
        digest = fit_digest(
            "threaded",
            wire_s=0.004,
            crash_rank=1,
            crash_step=2,
            crash_transient=True,
            max_retries=1,
            retry_backoff=0.0,
        )
        assert digest == unpaced["every-step"]
