"""Elastic fault tolerance: retry with backoff, eviction, degradation.

Three layers under test, each with its bit-identity contract:

* a transiently-failing step is retried and the run's trajectory is
  *exactly* the no-fault trajectory (the retry rewinds the collective
  snapshot and every per-rank module RNG stream);
* a persistently-failing rank is evicted and both engines continue on
  the survivors with identical numerics;
* evicting the last rank before any step ran equals a fresh run at the
  smaller world size, and uneven reshards reweight the gradient mean
  exactly.
"""

import numpy as np
import pytest

from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.models import tiny_alexnet, tiny_resnet
from repro.runtime import RetryPolicy, StepBarrier, TopologyChange
from repro.runtime.barrier import BarrierTimeout
from repro.statetree import flatten
from repro.telemetry import Tracer

ENGINES = ("sequential", "threaded")
TRANSIENT_CRASH = dict(crash_rank=1, crash_step=2, crash_transient=True)
# the model axis: "resnet" is batch-normalised, so every rank carries
# running statistics outside its parameters — state a forward pass
# moves and a rolled-back attempt must rewind.  Those cells also run on
# real processes (the alexnet process cells live in
# test_process_engine.py), once with a real SIGKILL: the respawned rank
# must get its running statistics back from the coordinator's shadow.
RETRY_CELLS = (
    [
        pytest.param(engine, "alexnet", TRANSIENT_CRASH, id=engine)
        for engine in ENGINES
    ]
    + [
        pytest.param(engine, "resnet", TRANSIENT_CRASH, id=f"resnet-{engine}")
        for engine in ENGINES + ("process",)
    ]
    + [
        pytest.param(
            "process", "resnet", dict(kill_points=((1, 2),)),
            id="resnet-process-sigkill",
        )
    ]
)


@pytest.fixture(scope="module")
def dataset():
    return make_image_dataset(
        num_classes=4,
        train_samples=54,
        test_samples=24,
        image_size=8,
        noise=0.8,
        seed=3,
    )


def build_model(model):
    if model == "alexnet":
        return tiny_alexnet(num_classes=4, image_size=8, seed=1)
    return tiny_resnet(
        num_classes=4, blocks_per_stage=1, widths=(4, 8, 8), seed=1
    )


def run(dataset, engine, *, epochs=2, world_size=3, batch_size=18,
        trace=False, barrier_timeout=10.0, model="alexnet", **kw):
    config = TrainingConfig(
        scheme="1bit",
        exchange="mpi",
        world_size=world_size,
        batch_size=batch_size,
        lr=0.05,
        seed=7,
        engine=engine,
        barrier_timeout=barrier_timeout,
        tracer=Tracer() if trace else None,
        **kw,
    )
    with ParallelTrainer(build_model(model), config) as trainer:
        history = trainer.fit(
            dataset.train_x,
            dataset.train_y,
            dataset.test_x,
            dataset.test_y,
            epochs=epochs,
        )
        counters = trainer.engine.tracer.counter_sink
        # every parameter and module buffer of every live rank
        engine = trainer.engine
        weights = flatten(
            {
                str(rank): engine.workers[rank].state_dict(
                    ("params", "buffers")
                )
                for rank in engine.live_ranks
            }
        )
    return history, counters, weights


def rows(history):
    return [
        (m.epoch, m.train_loss, m.train_accuracy, m.test_accuracy,
         m.comm_bytes)
        for m in history.epochs
    ]


class TestRetryPolicy:
    def test_disabled_by_default(self):
        assert not RetryPolicy().enabled
        assert RetryPolicy(max_retries=1).enabled

    def test_backoff_doubles_and_caps(self):
        state = RetryPolicy(
            max_retries=5, base_delay=0.1, max_delay=0.3, jitter=0.0
        ).make_state()
        delays = [state.backoff_delay(a) for a in range(4)]
        assert delays == [
            pytest.approx(0.1),
            pytest.approx(0.2),
            pytest.approx(0.3),
            pytest.approx(0.3),
        ]

    def test_jitter_is_deterministic(self):
        policy = RetryPolicy(max_retries=2, base_delay=0.1, jitter=0.5)
        a = [policy.make_state().backoff_delay(i) for i in range(2)]
        b = [policy.make_state().backoff_delay(i) for i in range(2)]
        assert a == b
        assert all(0.0 < d for d in a)

    def test_from_config(self):
        config = TrainingConfig(
            batch_size=8,
            max_retries=3,
            retry_backoff=0.2,
            seed=11,
        )
        policy = RetryPolicy.from_config(config)
        assert policy.max_retries == 3
        assert policy.base_delay == 0.2
        assert policy.seed == 11

    def test_config_validates_resilience_knobs(self):
        with pytest.raises(ValueError, match="max_retries"):
            TrainingConfig(batch_size=8, max_retries=-1)
        with pytest.raises(ValueError, match="min_world_size"):
            TrainingConfig(batch_size=8, world_size=2, min_world_size=3)


class TestTopologyChange:
    def test_round_trips_through_dict(self):
        change = TopologyChange(
            step=7, rank=1, kind="crash", survivors=(0, 2), retries=2
        )
        assert TopologyChange.from_dict(change.to_dict()) == change

    def test_serializes_with_history(self):
        from repro.core import History

        history = History(label="x")
        history.topology_changes.append(
            TopologyChange(step=1, rank=0, kind="timeout", survivors=(1,))
        )
        restored = History.from_dict(history.to_dict())
        assert restored.topology_changes == history.topology_changes


class TestBarrierDeregister:
    def test_deregistered_party_no_longer_expected(self):
        barrier = StepBarrier(3, timeout=0.2)
        barrier.deregister(2)
        # the remaining two complete the rendezvous alone
        import threading

        results = []

        def waiter():
            results.append(barrier.wait(1))

        thread = threading.Thread(target=waiter)
        thread.start()
        barrier.wait(0)
        thread.join(timeout=2.0)
        assert results == [0]

    def test_deregistered_party_cannot_block_rendezvous(self):
        barrier = StepBarrier(2, timeout=0.2)
        barrier.deregister(1)
        with pytest.raises(BarrierTimeout):
            barrier.wait(1)

    def test_cannot_deregister_last_party(self):
        barrier = StepBarrier(2)
        barrier.deregister(1)
        with pytest.raises(ValueError, match="last barrier party"):
            barrier.deregister(0)


class TestTransientRetry:
    @pytest.mark.parametrize("engine,model,fault", RETRY_CELLS)
    def test_retried_step_leaves_trajectory_unchanged(
        self, dataset, engine, model, fault
    ):
        reference, _, ref_weights = run(dataset, engine, model=model)
        assert not reference.failed
        history, counters, weights = run(
            dataset,
            engine,
            model=model,
            trace=True,
            max_retries=2,
            retry_backoff=0.0,
            **fault,
        )
        assert not history.failed
        assert not history.topology_changes
        assert counters.retries_total == 1
        assert counters.retries(1) == 1
        assert counters.retries(0) == 0
        assert history.digest() == reference.digest()
        for name, data in ref_weights.items():
            assert np.array_equal(data, weights[name])

    def test_retries_exhausted_fails_fast_without_degradation(
        self, dataset
    ):
        history, counters, _ = run(
            dataset,
            "sequential",
            trace=True,
            crash_rank=1,
            crash_step=2,
            max_retries=2,
            retry_backoff=0.0,
        )
        assert history.failed
        (failure,) = history.failures
        assert failure.kind == "crash" and failure.rank == 1
        assert counters.retries_total == 2

    def test_default_config_keeps_fail_fast_contract(self, dataset):
        for engine in ENGINES:
            history, _, _ = run(
                dataset, engine, crash_rank=1, crash_step=2
            )
            assert history.failed
            (failure,) = history.failures
            assert failure.kind == "crash"
            assert failure.rank == 1
            assert failure.step == 2


class TestEviction:
    @pytest.mark.parametrize("engine", ENGINES)
    def test_exhausted_rank_is_evicted_and_run_completes(
        self, dataset, engine
    ):
        history, counters, _ = run(
            dataset,
            engine,
            trace=True,
            crash_rank=1,
            crash_step=2,
            max_retries=1,
            retry_backoff=0.0,
            allow_degraded=True,
        )
        assert not history.failed
        (change,) = history.topology_changes
        assert change.rank == 1
        assert change.step == 2
        assert change.kind == "crash"
        assert change.survivors == (0, 2)
        assert change.retries == 1
        assert counters.evicted_ranks == [1]
        assert counters.retries_total == 1
        assert len(history.epochs) == 2

    def test_engines_agree_after_eviction(self, dataset):
        results = {
            engine: run(
                dataset,
                engine,
                crash_rank=1,
                crash_step=2,
                max_retries=1,
                retry_backoff=0.0,
                allow_degraded=True,
            )
            for engine in ENGINES
        }
        seq_history, _, seq_weights = results["sequential"]
        thr_history, _, thr_weights = results["threaded"]
        assert seq_history.digest() == thr_history.digest()
        for name, data in seq_weights.items():
            assert np.array_equal(data, thr_weights[name])

    @pytest.mark.parametrize("model", ["alexnet", "resnet"])
    def test_engines_agree_after_evicting_the_reference_rank(
        self, dataset, model
    ):
        # rank 0 is retried once (ranks 1 and 2 may have run their
        # forward pass by then, how far differs per engine), then
        # evicted: rank 1 becomes the reference replica and the run
        # evaluates with rank 1's own batchnorm running statistics
        engines = ENGINES + (("process",) if model == "resnet" else ())
        results = {
            engine: run(
                dataset,
                engine,
                model=model,
                crash_rank=0,
                crash_step=2,
                max_retries=1,
                retry_backoff=0.0,
                allow_degraded=True,
            )
            for engine in engines
        }
        seq_history, _, seq_weights = results["sequential"]
        assert seq_history.topology_changes[0].survivors == (1, 2)
        for engine in engines[1:]:
            history, _, weights = results[engine]
            assert history.digest() == seq_history.digest(), engine
            assert weights.keys() == seq_weights.keys()
            for name, data in seq_weights.items():
                assert np.array_equal(data, weights[name]), (engine, name)

    def test_rank0_eviction_keeps_reference_replica_valid(self, dataset):
        history, _, _ = run(
            dataset,
            "threaded",
            epochs=1,
            crash_rank=0,
            crash_step=0,
            max_retries=0,
            allow_degraded=True,
        )
        assert not history.failed
        assert history.topology_changes[0].rank == 0
        assert np.isfinite(history.epochs[-1].test_accuracy)

    def test_min_world_size_blocks_eviction(self, dataset):
        history, _, _ = run(
            dataset,
            "sequential",
            world_size=2,
            batch_size=18,
            crash_rank=1,
            crash_step=0,
            max_retries=0,
            allow_degraded=True,
            min_world_size=2,
        )
        assert history.failed
        assert not history.topology_changes

    def test_straggler_beyond_timeout_evicted_as_timeout(self, dataset):
        self._assert_straggler_evicted_as_timeout(dataset, "threaded")

    def test_process_straggler_beyond_timeout_evicted_as_timeout(
        self, dataset
    ):
        self._assert_straggler_evicted_as_timeout(dataset, "process")

    @staticmethod
    def _assert_straggler_evicted_as_timeout(dataset, engine):
        history, _, _ = run(
            dataset,
            engine,
            epochs=1,
            barrier_timeout=0.3,
            straggler_ranks=(1,),
            straggler_delay=5.0,
            max_retries=0,
            allow_degraded=True,
        )
        assert not history.failed
        (change,) = history.topology_changes
        assert change.rank == 1
        assert change.kind == "timeout"
        assert change.survivors == (0, 2)


class TestDegradedNumerics:
    def test_evicting_last_rank_equals_fresh_smaller_world(self, dataset):
        # survivors 0,1 keep their rank-seeded RNG streams and get the
        # same even reshard a fresh K=2 run computes, so the degraded
        # continuation must be bit-equal to starting at K=2
        fresh, _, fresh_weights = run(
            dataset, "sequential", world_size=2, batch_size=18
        )
        assert not fresh.failed
        for engine in ENGINES:
            degraded, _, weights = run(
                dataset,
                engine,
                world_size=3,
                batch_size=18,
                crash_rank=2,
                crash_step=0,
                max_retries=0,
                allow_degraded=True,
            )
            assert not degraded.failed
            assert degraded.topology_changes[0].survivors == (0, 1)
            assert rows(degraded) == rows(fresh), engine
            for name, data in fresh_weights.items():
                assert np.array_equal(data, weights[name]), (engine, name)

    def test_uneven_reshard_scales_match_exact_global_mean(self, dataset):
        # batch 17 over 2 survivors shards 9/8; the per-rank scale must
        # be n_r * K_live / N so the aggregated mean is sum(n_r g_r)/N
        config = TrainingConfig(
            scheme="32bit",
            world_size=3,
            batch_size=17,
            lr=0.05,
            seed=7,
            engine="sequential",
            crash_rank=1,
            crash_step=0,
            max_retries=0,
            allow_degraded=True,
        )
        with ParallelTrainer(
            tiny_alexnet(num_classes=4, image_size=8, seed=1), config
        ) as trainer:
            x = dataset.train_x[:17]
            y = dataset.train_y[:17]
            trainer.train_step(x, y)
            engine = trainer.engine
            assert engine.live_ranks == [0, 2]
            shards = engine._shard(x, y)
            sizes = {r: shards[r][0].shape[0] for r in engine.live_ranks}
            assert sorted(sizes.values()) == [8, 9]
            scales = engine._grad_scales(shards)
            for rank in engine.live_ranks:
                expected = sizes[rank] * len(engine.live_ranks) / 17
                assert scales.get(rank, 1.0) == pytest.approx(
                    expected, abs=1e-12
                )

    def test_full_topology_has_no_scales(self, dataset):
        config = TrainingConfig(
            scheme="32bit", world_size=3, batch_size=17, seed=7
        )
        with ParallelTrainer(
            tiny_alexnet(num_classes=4, image_size=8, seed=1), config
        ) as trainer:
            shards = trainer.engine._shard(
                dataset.train_x[:17], dataset.train_y[:17]
            )
            # uneven shards, but the full world divides by K exactly as
            # the historical trajectory did — no reweighting
            assert trainer.engine._grad_scales(shards) == {}

    def test_uneven_degraded_run_keeps_engine_parity(self, dataset):
        results = {}
        for engine in ENGINES:
            history, _, weights = run(
                dataset,
                engine,
                world_size=3,
                batch_size=17,
                crash_rank=1,
                crash_step=1,
                max_retries=0,
                allow_degraded=True,
            )
            assert not history.failed
            results[engine] = (history, weights)
        seq_history, seq_weights = results["sequential"]
        thr_history, thr_weights = results["threaded"]
        assert seq_history.digest() == thr_history.digest()
        for name, data in seq_weights.items():
            assert np.array_equal(data, thr_weights[name])


class TestHistoryDigest:
    def make_history(self, loss=1.0):
        from repro.core import EpochMetrics, History

        history = History(label="cell")
        history.append(
            EpochMetrics(
                epoch=0,
                train_loss=loss,
                train_accuracy=0.5,
                test_accuracy=0.25,
                comm_bytes=128,
                wall_seconds=1.0,
            )
        )
        return history

    def test_stable_across_wall_time(self):
        a = self.make_history()
        b = self.make_history()
        b.epochs[0].wall_seconds = 99.0
        assert a.digest() == b.digest()

    def test_sensitive_to_trajectory(self):
        assert (
            self.make_history(1.0).digest()
            != self.make_history(1.0 + 1e-12).digest()
        )

    def test_sensitive_to_label(self):
        from repro.core import History

        assert History(label="a").digest() != History(label="b").digest()
