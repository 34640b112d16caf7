"""Bit-identity of the threaded/process and sequential execution engines.

The keystone guarantee of the runtime: for every scheme × exchange ×
world-size combination, running the rank workers concurrently — as
threads sharing the interpreter or as spawned OS processes exchanging
through shared memory — must produce *exactly* the parameter
trajectory of the sequential rank loop — same losses, same test
accuracies, same bytes on the wire, bit-identical weights.  Any
nondeterminism in the barrier, bucketing, RNG streams, reduction
order, or (for the process engine) the spawn/pickle boundary breaks
this.
"""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.models import tiny_alexnet, tiny_resnet


@pytest.fixture(scope="module")
def dataset():
    return make_image_dataset(
        num_classes=4,
        train_samples=64,
        test_samples=32,
        image_size=8,
        noise=0.8,
        seed=0,
    )


def run(engine, dataset, *, scheme, exchange, world_size, model=tiny_alexnet,
        epochs=2, comm_bucket_bytes=1 << 12, policy="static"):
    config = TrainingConfig(
        scheme=scheme,
        policy=policy,
        exchange=exchange,
        world_size=world_size,
        batch_size=16,
        lr=0.01,
        seed=0,
        engine=engine,
        comm_bucket_bytes=comm_bucket_bytes,
    )
    with ParallelTrainer(
        model(num_classes=4, image_size=8, seed=1)
        if model is tiny_alexnet
        else model(num_classes=4, seed=1),
        config,
    ) as trainer:
        history = trainer.fit(
            dataset.train_x,
            dataset.train_y,
            dataset.test_x,
            dataset.test_y,
            epochs=epochs,
        )
        weights = {p.name: p.data.copy() for p in trainer.parameters}
    return history, weights


def assert_identical(run_a, run_b):
    history_a, weights_a = run_a
    history_b, weights_b = run_b
    for attribute in ("train_loss", "test_accuracy", "comm_bytes"):
        assert history_a.series(attribute) == history_b.series(attribute), (
            f"{attribute} series diverged"
        )
    for name, data in weights_a.items():
        assert np.array_equal(data, weights_b[name]), (
            f"parameter {name} not bit-identical"
        )


#: the engines that must reproduce the sequential trajectory bit for bit
CONCURRENT_ENGINES = ["threaded", "process"]
#: (exchange, world size, engine) cells of the scheme grid; the process
#: engine's alltoall cells live in test_process_engine.py
GRID = [
    (exchange, world_size, engine)
    for engine in CONCURRENT_ENGINES
    for world_size in (1, 2, 4)
    for exchange in ("mpi", "nccl")
] + [("alltoall", 4, "threaded")]


class TestEngineParity:
    @pytest.mark.parametrize("exchange, world_size, engine", GRID)
    @pytest.mark.parametrize(
        "scheme",
        ["32bit", "1bit", "qsgd4", "terngrad", "dettmers8", "dettmers8c"],
    )
    def test_matches_sequential(
        self, dataset, scheme, exchange, world_size, engine
    ):
        assert_identical(
            run(
                "sequential",
                dataset,
                scheme=scheme,
                exchange=exchange,
                world_size=world_size,
            ),
            run(
                engine,
                dataset,
                scheme=scheme,
                exchange=exchange,
                world_size=world_size,
            ),
        )

    @pytest.mark.parametrize("engine", CONCURRENT_ENGINES)
    def test_parity_with_batchnorm_model(self, dataset, engine):
        # BN keeps running statistics per replica; parity must survive
        # stateful layers as well as dropout (the alexnet cases)
        assert_identical(
            run(
                "sequential",
                dataset,
                scheme="qsgd4",
                exchange="mpi",
                world_size=2,
                model=tiny_resnet,
            ),
            run(
                engine,
                dataset,
                scheme="qsgd4",
                exchange="mpi",
                world_size=2,
                model=tiny_resnet,
            ),
        )

    @pytest.mark.parametrize("engine", CONCURRENT_ENGINES)
    def test_parity_with_tiny_buckets(self, dataset, engine):
        # one parameter per bucket maximizes overlap scheduling churn
        # (and, for the process engine, arena region count); the
        # exchange order (and RNG stream) must not care
        assert_identical(
            run(
                "sequential",
                dataset,
                scheme="qsgd4",
                exchange="mpi",
                world_size=2,
                comm_bucket_bytes=1,
            ),
            run(
                engine,
                dataset,
                scheme="qsgd4",
                exchange="mpi",
                world_size=2,
                comm_bucket_bytes=1,
            ),
        )

    @pytest.mark.parametrize("engine", CONCURRENT_ENGINES)
    @pytest.mark.parametrize("exchange", ["mpi", "nccl"])
    def test_parity_with_adaptive_policy(self, dataset, exchange, engine):
        # the adaptive policy routes different layers through different
        # codecs on the same wire; the per-layer assignment table must
        # be derived identically inside every engine's workers
        assert_identical(
            run(
                "sequential",
                dataset,
                scheme="qsgd4",
                exchange=exchange,
                world_size=4,
                policy="adaptive",
            ),
            run(
                engine,
                dataset,
                scheme="qsgd4",
                exchange=exchange,
                world_size=4,
                policy="adaptive",
            ),
        )

    @pytest.mark.parametrize("engine", CONCURRENT_ENGINES)
    def test_parity_with_unequal_shards(self, dataset, engine):
        # 64 training samples, batch 16, world 3: every step leaves
        # one rank a short shard; weighting must match exactly
        assert_identical(
            run(
                "sequential",
                dataset,
                scheme="32bit",
                exchange="mpi",
                world_size=3,
            ),
            run(
                engine,
                dataset,
                scheme="32bit",
                exchange="mpi",
                world_size=3,
            ),
        )

    def test_replicas_stay_bit_identical(self, dataset):
        config = TrainingConfig(
            scheme="qsgd4",
            world_size=4,
            batch_size=16,
            lr=0.01,
            seed=0,
            engine="threaded",
        )
        with ParallelTrainer(
            tiny_alexnet(num_classes=4, image_size=8, seed=1), config
        ) as trainer:
            trainer.fit(
                dataset.train_x,
                dataset.train_y,
                dataset.test_x,
                dataset.test_y,
                epochs=1,
            )
            reference = trainer.engine.workers[0]
            for worker in trainer.engine.workers[1:]:
                for ref_param, param in zip(
                    reference.parameters, worker.parameters
                ):
                    assert np.array_equal(ref_param.data, param.data), (
                        f"rank {worker.rank} diverged on {param.name}"
                    )
