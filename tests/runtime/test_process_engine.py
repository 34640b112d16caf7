"""Tests for the process-per-rank engine and its shared-memory plumbing.

Covers the arena layout, the cross-process step barrier (against fake
worker handles, so death and silence are deterministic), the full
scheme x exchange bit-identity grid against the sequential engine, and
the resilience/telemetry integration points: kill -> retry, eviction,
fail-fast latching, merged per-rank trace tracks, lr scheduling, and
restoring state onto a live engine.
"""

import os

import numpy as np
import pytest

from repro.core.checkpoint import CheckpointPolicy, TrainingCheckpoint
from repro.core.config import TrainingConfig
from repro.core.trainer import ParallelTrainer
from repro.data import make_image_dataset
from repro.models import tiny_alexnet
from repro.runtime import GradientArena, ProcessStepBarrier, arena_slots
from repro.runtime.buckets import GradientBucket
from repro.telemetry import Tracer

# -- shared-memory arena ----------------------------------------------------

SLOTS = [("w", (3, 4)), ("b", (4,)), ("scalar", ()), ("empty", (0,))]


class TestArenaSlots:
    def test_layout_follows_bucket_plan_order(self):
        buckets = [
            GradientBucket(0, ("fc2.b", "fc2.w"), 80),
            GradientBucket(1, ("fc1.w",), 64),
        ]
        shapes = {"fc1.w": (4, 4), "fc2.w": (4, 4), "fc2.b": (4,)}
        assert arena_slots(buckets, shapes) == [
            ("fc2.b", (4,)),
            ("fc2.w", (4, 4)),
            ("fc1.w", (4, 4)),
        ]


class TestGradientArena:
    def test_regions_are_aligned_and_sized(self):
        arena = GradientArena.create(SLOTS, world_size=3)
        try:
            assert arena.region_nbytes % 64 == 0
            assert arena.region_nbytes >= (12 + 4 + 1 + 0) * 4
            assert arena.total_nbytes == arena.region_nbytes * 4
        finally:
            arena.close()

    def test_created_arena_is_zero_filled(self):
        # views pin the mapping, so they must be dropped before close
        arena = GradientArena.create(SLOTS, world_size=2)
        try:
            dirty = [
                bool(view.any())
                for rank in range(2)
                for view in arena.rank_views(rank).values()
            ]
            dirty += [bool(v.any()) for v in arena.mean_views().values()]
            assert not any(dirty)
        finally:
            arena.close()

    def test_views_are_zero_copy_and_regions_disjoint(self):
        arena = GradientArena.create(SLOTS, world_size=2)
        try:
            arena.rank_views(0)["w"][...] = 1.0
            arena.rank_views(1)["w"][...] = 2.0
            arena.mean_views()["w"][...] = 3.0
            # fresh views over the same buffer observe the writes
            assert (arena.rank_views(0)["w"] == 1.0).all()
            assert (arena.rank_views(1)["w"] == 2.0).all()
            assert (arena.mean_views()["w"] == 3.0).all()
            # and the other parameters in each region stay untouched
            assert not arena.rank_views(0)["b"].any()
            shapes = {
                name: view.shape
                for name, view in arena.rank_views(0).items()
            }
            assert shapes == {
                "w": (3, 4), "b": (4,), "scalar": (), "empty": (0,)
            }
        finally:
            arena.close()

    def test_rank_bounds_are_checked(self):
        arena = GradientArena.create(SLOTS, world_size=2)
        try:
            with pytest.raises(ValueError, match="rank"):
                arena.rank_views(2)
            with pytest.raises(ValueError, match="rank"):
                arena.rank_views(-1)
        finally:
            arena.close()

    def test_close_is_idempotent_and_owner_unlinks(self):
        arena = GradientArena.create(SLOTS, world_size=1)
        name = arena.name
        arena.close()
        arena.close()
        from multiprocessing import shared_memory

        with pytest.raises(FileNotFoundError):
            shared_memory.SharedMemory(name=name)


# -- cross-process step barrier ---------------------------------------------


class _FakeProc:
    """A stand-in worker: a sentinel pipe fd plus an aliveness flag."""

    def __init__(self):
        self.sentinel, self._death_fd = os.pipe()
        self._alive = True

    def is_alive(self):
        return self._alive

    def die(self):
        # closing the write end makes the sentinel fd readable (EOF),
        # exactly how a real process sentinel fires on exit
        self._alive = False
        os.close(self._death_fd)
        self._death_fd = None

    def close(self):
        os.close(self.sentinel)
        if self._death_fd is not None:
            os.close(self._death_fd)


@pytest.fixture()
def fake_world():
    import multiprocessing

    conns, remotes, procs = {}, {}, {}
    for rank in range(3):
        conns[rank], remotes[rank] = multiprocessing.Pipe()
        procs[rank] = _FakeProc()
    yield conns, remotes, procs
    for rank in range(3):
        conns[rank].close()
        if not remotes[rank].closed:
            remotes[rank].close()
        procs[rank].close()


class TestProcessStepBarrier:
    def test_timeout_must_be_positive(self):
        with pytest.raises(ValueError, match="timeout"):
            ProcessStepBarrier(0.0)

    def test_all_ranks_arrive(self, fake_world):
        conns, remotes, procs = fake_world
        for rank in range(3):
            remotes[rank].send(("grads", rank))
        outcome = ProcessStepBarrier(5.0).gather(conns, procs, {0, 1, 2})
        assert outcome.complete
        assert outcome.messages == {r: ("grads", r) for r in range(3)}

    def test_dead_rank_is_reported_immediately(self, fake_world):
        conns, remotes, procs = fake_world
        remotes[0].send(("grads", 0))
        remotes[2].send(("grads", 2))
        procs[1].die()
        outcome = ProcessStepBarrier(5.0).gather(conns, procs, {0, 1, 2})
        assert outcome.dead == (1,)
        assert outcome.missing == ()
        assert sorted(outcome.messages) == [0, 2]

    def test_buffered_last_message_wins_over_death(self, fake_world):
        conns, remotes, procs = fake_world
        remotes[0].send(("grads", "last words"))
        procs[0].die()
        outcome = ProcessStepBarrier(5.0).gather(conns, procs, {0})
        assert outcome.complete
        assert outcome.messages == {0: ("grads", "last words")}

    def test_silent_rank_is_named_at_the_deadline(self, fake_world):
        conns, remotes, procs = fake_world
        remotes[0].send(("grads", 0))
        outcome = ProcessStepBarrier(0.2).gather(conns, procs, {0, 1})
        assert outcome.missing == (1,)
        assert outcome.dead == ()
        assert sorted(outcome.messages) == [0]

    def test_non_pending_ranks_are_ignored(self, fake_world):
        conns, remotes, procs = fake_world
        remotes[0].send(("grads", 0))
        remotes[1].send(("stale", 1))
        outcome = ProcessStepBarrier(5.0).gather(conns, procs, {0})
        assert outcome.complete
        assert outcome.messages == {0: ("grads", 0)}
        # rank 1's message stays queued for whoever asks for it
        assert conns[1].poll(0)


# -- training-level behavior ------------------------------------------------


@pytest.fixture(scope="module")
def dataset():
    return make_image_dataset(
        num_classes=4,
        train_samples=32,
        test_samples=16,
        image_size=8,
        noise=0.8,
        seed=0,
    )


def run(engine, dataset, *, epochs=1, tracer=None, **overrides):
    config = TrainingConfig(
        scheme=overrides.pop("scheme", "1bit"),
        exchange=overrides.pop("exchange", "mpi"),
        world_size=overrides.pop("world_size", 2),
        batch_size=16,
        lr=0.05,
        seed=3,
        engine=engine,
        barrier_timeout=overrides.pop("barrier_timeout", 30.0),
        tracer=tracer,
        **overrides,
    )
    model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
    with ParallelTrainer(model, config) as trainer:
        history = trainer.fit(
            dataset.train_x,
            dataset.train_y,
            dataset.test_x,
            dataset.test_y,
            epochs=epochs,
        )
        weights = [p.data.copy() for p in trainer.parameters]
    return history, weights


_REFERENCE = {}


def sequential_reference(dataset, **kw):
    key = tuple(sorted(kw.items()))
    if key not in _REFERENCE:
        _REFERENCE[key] = run("sequential", dataset, **kw)
    return _REFERENCE[key]


def assert_bit_identical(got, want):
    history, weights = got
    ref_history, ref_weights = want
    assert history.digest() == ref_history.digest()
    for array, ref in zip(weights, ref_weights):
        assert np.array_equal(array, ref)


class TestProcessEngineParityGrid:
    """Full scheme x exchange grid: process == sequential, bit for bit."""

    @pytest.mark.parametrize("exchange", ["mpi", "nccl", "alltoall"])
    @pytest.mark.parametrize(
        "scheme",
        ["32bit", "qsgd16", "qsgd8", "qsgd4", "qsgd2", "1bit*", "1bit"],
    )
    def test_matches_sequential(self, dataset, scheme, exchange):
        got = run("process", dataset, scheme=scheme, exchange=exchange)
        want = sequential_reference(
            dataset, scheme=scheme, exchange=exchange
        )
        assert_bit_identical(got, want)

    def test_lr_schedule_propagates_to_workers(self, dataset):
        got = run("process", dataset, epochs=3, lr_decay=0.8)
        want = sequential_reference(dataset, epochs=3, lr_decay=0.8)
        assert_bit_identical(got, want)


class TestProcessEngineResilience:
    def test_killed_worker_retries_to_identical_digest(self, dataset):
        want = sequential_reference(dataset, epochs=2)
        got = run(
            "process",
            dataset,
            epochs=2,
            kill_points=((1, 1),),
            max_retries=2,
            retry_backoff=0.0,
        )
        assert not got[0].failed
        assert_bit_identical(got, want)

    def test_in_process_engines_degrade_kills_to_crashes(self, dataset):
        # sequential/threaded cannot SIGKILL themselves; the same kill
        # point must surface as an injected crash with identical recovery
        want = sequential_reference(dataset, epochs=2)
        got = run(
            "sequential",
            dataset,
            epochs=2,
            kill_points=((1, 1),),
            max_retries=2,
            retry_backoff=0.0,
        )
        assert_bit_identical(got, want)

    def test_eviction_reshards_survivors(self, dataset):
        kwargs = dict(
            epochs=2,
            kill_points=((1, 1),),
            max_retries=0,
            allow_degraded=True,
            min_world_size=1,
        )
        history, _ = got = run("process", dataset, **kwargs)
        assert not history.failed
        (change,) = history.topology_changes
        assert change.rank == 1 and change.step == 1
        assert change.survivors == (0,)
        assert_bit_identical(got, sequential_reference(dataset, **kwargs))

    def test_fail_fast_latches_worker_failure(self, dataset):
        history, _ = run("process", dataset, kill_points=((1, 1),))
        assert history.failed
        (failure,) = history.failures
        assert failure.kind == "crash"
        assert failure.rank == 1

    def test_worker_error_propagates_with_original_type(self):
        # a real compute error (divergence) in a worker process must
        # reach the caller as the original exception, exactly like the
        # in-process engines — not a retryable failure and not a hang
        from repro.nn import Dense, Sequential

        rng = np.random.default_rng(0)
        x = rng.normal(size=(32, 8)).astype(np.float32)
        y = rng.integers(0, 4, size=32).astype(np.int64)
        x[3, 2] = np.nan  # a broken reader's corrupted feature
        config = TrainingConfig(
            scheme="32bit",
            exchange="mpi",
            world_size=2,
            batch_size=32,
            lr=0.05,
            seed=3,
            engine="process",
            barrier_timeout=30.0,
        )
        model = Sequential(Dense(8, 4, "fc", np.random.default_rng(0)))
        with ParallelTrainer(model, config) as trainer:
            with pytest.raises(FloatingPointError, match="diverged"):
                trainer.train_epoch(x, y)

    def test_straggler_timeout_latches_and_drains(self, dataset):
        # rank 1 outsleeps the barrier on every attempt: the step must
        # surface a timeout failure after retries, and the straggler's
        # late (stale) message must be drained between attempts so the
        # retry does not mistake it for its own arrival
        from repro.runtime.faults import WorkerFailureError

        config = TrainingConfig(
            scheme="1bit",
            exchange="mpi",
            world_size=2,
            batch_size=16,
            lr=0.05,
            seed=3,
            engine="process",
            barrier_timeout=0.5,
            straggler_ranks=(1,),
            straggler_delay=0.7,
            max_retries=1,
            retry_backoff=0.0,
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with ParallelTrainer(model, config) as trainer:
            history = trainer.fit(
                dataset.train_x,
                dataset.train_y,
                dataset.test_x,
                dataset.test_y,
                epochs=1,
            )
            assert history.failed
            (failure,) = history.failures
            assert failure.kind == "timeout"
            assert failure.rank == 1
            # the failure is latched: further stepping refuses fast
            with pytest.raises(WorkerFailureError):
                trainer.engine.train_step(
                    dataset.train_x[:16], dataset.train_y[:16]
                )

    def test_rank_lost_after_apply_is_committed_and_evicts(self, dataset):
        # a rank that delivers its gradients but dies before confirming
        # the update is a *committed* failure: the survivors already
        # applied the step, so the engine must never rewind or retry —
        # it evicts the lost rank, counts the step as done, and keeps
        # training degraded.  SIGSTOP freezes the rank while it waits
        # for the apply verdict (so it cannot race ahead), and SIGKILL
        # right before the end-of-step rendezvous makes its death
        # deterministic at exactly that barrier.
        import signal

        config = TrainingConfig(
            scheme="1bit",
            exchange="mpi",
            world_size=2,
            batch_size=16,
            lr=0.05,
            seed=3,
            engine="process",
            barrier_timeout=30.0,
            allow_degraded=True,
            min_world_size=1,
            max_retries=2,
            retry_backoff=0.0,
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with ParallelTrainer(model, config) as trainer:
            engine = trainer.engine
            classify = engine._classify_grads
            gather = engine._barrier.gather
            gathers = {"count": 0}

            def classify_and_freeze(step, outcome):
                payloads = classify(step, outcome)
                if step == 1:
                    os.kill(engine._procs[1].pid, signal.SIGSTOP)
                return payloads

            def gather_and_kill(conns, procs, pending):
                gathers["count"] += 1
                if gathers["count"] == 4:  # step 1's end-of-step barrier
                    proc = engine._procs[1]
                    os.kill(proc.pid, signal.SIGKILL)
                    proc.join()
                return gather(conns, procs, pending)

            engine._classify_grads = classify_and_freeze
            engine._barrier.gather = gather_and_kill
            history = trainer.fit(
                dataset.train_x,
                dataset.train_y,
                dataset.test_x,
                dataset.test_y,
                epochs=2,
            )
            weights = [p.data.copy() for p in trainer.parameters]
        assert not history.failed
        (change,) = history.topology_changes
        assert change.rank == 1
        assert change.step == 1
        assert change.kind == "crash"
        assert change.survivors == (0,)
        assert all(np.all(np.isfinite(w)) for w in weights)


class TestProcessEngineCloseWithoutFit:
    @pytest.mark.parametrize("scheme", ["1bit", "qsgd4"])
    def test_close_is_clean_and_unlinks_the_arena(
        self, dataset, monkeypatch, scheme
    ):
        from repro.quantization import kernels

        # as in a fresh interpreter that never ran fit(): the kernel
        # backend is selected (and a missing backend's load error is
        # recorded) inside the first exchange, with the arena's gradient
        # views on the stack
        monkeypatch.setattr(kernels, "_active", None)
        monkeypatch.setattr(kernels, "_load_errors", {})
        config = TrainingConfig(
            scheme=scheme,
            exchange="mpi",
            world_size=2,
            batch_size=16,
            seed=3,
            engine="process",
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        trainer = ParallelTrainer(model, config)
        try:
            trainer.train_step(dataset.train_x[:16], dataset.train_y[:16])
            trainer.train_epoch(dataset.train_x, dataset.train_y)
            segment = trainer.engine._arena.name.lstrip("/")
            assert os.path.exists(f"/dev/shm/{segment}")
        finally:
            trainer.close()  # raised BufferError while a view was pinned
        assert not os.path.exists(f"/dev/shm/{segment}")


def _report_blas_threads(logits, labels):
    """A 'loss' that reports the rank's BLAS environment to the parent."""
    raise RuntimeError(
        ",".join(os.environ.get(var, "unset") for var in BLAS_THREAD_VARS)
    )


BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


class TestProcessEngineBlasThreads:
    def spawned_rank_environment(self, dataset):
        config = TrainingConfig(
            scheme="32bit", world_size=2, batch_size=16, engine="process"
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with ParallelTrainer(
            model, config, loss_fn=_report_blas_threads
        ) as trainer:
            with pytest.raises(RuntimeError) as caught:
                trainer.train_step(
                    dataset.train_x[:16], dataset.train_y[:16]
                )
        return str(caught.value)

    def test_ranks_default_to_one_blas_thread(self, dataset, monkeypatch):
        for var in BLAS_THREAD_VARS:
            monkeypatch.delenv(var, raising=False)
        assert self.spawned_rank_environment(dataset) == "1,1,1"
        # the parent's own environment is left as it was
        assert not any(var in os.environ for var in BLAS_THREAD_VARS)

    def test_a_value_the_user_set_wins(self, dataset, monkeypatch):
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "3")
        monkeypatch.setenv("OMP_NUM_THREADS", "2")
        monkeypatch.delenv("MKL_NUM_THREADS", raising=False)
        assert self.spawned_rank_environment(dataset) == "3,2,1"


class TestProcessEngineTelemetry:
    def test_worker_spans_merge_into_per_rank_tracks(self, dataset):
        tracer = Tracer()
        got = run("process", dataset, tracer=tracer)
        # observation must not perturb the trajectory
        assert_bit_identical(got, sequential_reference(dataset))
        tracks = tracer.tracks()
        assert {-1, 0, 1} <= set(tracks)
        for rank in (0, 1):
            phases = tracer.phase_seconds(track=rank)
            assert phases.get("compute", 0.0) > 0.0


@pytest.mark.slow
@pytest.mark.skipif(
    not os.environ.get("REPRO_STRESS"),
    reason="stress test is nightly-only; set REPRO_STRESS=1 to run",
)
class TestProcessEngineKillStress:
    """50 steps under random SIGKILL fire: recovery must stay exact.

    Nightly-only (slow): every kill costs a respawn, and the point of
    the test is volume — enough kills spread over enough steps that
    respawn/replay races which a single-kill test cannot see get a
    chance to fire.  Timeout-bounded twice over: every rendezvous is
    capped by ``barrier_timeout``, and the test asserts its own wall
    clock so a hang fails instead of eating the nightly job.
    """

    def test_digest_equal_recovery_under_random_kills(self, dataset):
        import time

        world_size = 2
        epochs = 25  # 32 samples / batch 16 -> 2 steps/epoch = 50 steps
        rng = np.random.default_rng(2024)
        steps = sorted(
            int(s) for s in rng.choice(50, size=6, replace=False)
        )
        kill_points = tuple(
            (int(rng.integers(world_size)), step) for step in steps
        )
        want = sequential_reference(
            dataset, epochs=epochs, world_size=world_size
        )
        start = time.perf_counter()
        history, weights = got = run(
            "process",
            dataset,
            epochs=epochs,
            world_size=world_size,
            kill_points=kill_points,
            max_retries=3,
            retry_backoff=0.0,
        )
        elapsed = time.perf_counter() - start
        assert not history.failed
        assert_bit_identical(got, want)
        assert elapsed < 240.0, f"stress run took {elapsed:.0f}s"


class TestProcessEngineRestore:
    def test_restore_onto_live_engine_stops_and_respawns(
        self, dataset, tmp_path
    ):
        want = sequential_reference(dataset, epochs=3)
        config = TrainingConfig(
            scheme="1bit",
            exchange="mpi",
            world_size=2,
            batch_size=16,
            lr=0.05,
            seed=3,
            engine="process",
            barrier_timeout=30.0,
        )
        model = tiny_alexnet(num_classes=4, image_size=8, seed=1)
        with ParallelTrainer(model, config) as trainer:
            trainer.fit(
                dataset.train_x,
                dataset.train_y,
                dataset.test_x,
                dataset.test_y,
                epochs=1,
                checkpoint=CheckpointPolicy(
                    directory=str(tmp_path), every_steps=1
                ),
            )
            # the engine's workers are live; restoring must stop them
            # and respawn from the restored shadow state (mid-epoch:
            # step 1 of the 2-step epoch 0)
            checkpoint = TrainingCheckpoint.load(
                str(tmp_path / "ckpt-00000001.npz")
            )
            assert checkpoint.epoch == 0 and checkpoint.batches_done == 1
            history = trainer.fit(
                dataset.train_x,
                dataset.train_y,
                dataset.test_x,
                dataset.test_y,
                epochs=3,
                resume_from=checkpoint,
            )
            weights = [p.data.copy() for p in trainer.parameters]
        assert_bit_identical((history, weights), want)
