"""Deterministic checkpoint/resume: atomicity, round-trips, bit-identity.

The invariant under test: a run checkpointed at step N and resumed
produces *exactly* the history and weights of the uninterrupted run —
including the error-feedback schemes whose per-rank residuals are part
of the trajectory, and across an engine switch at the resume point.
"""

import json

import numpy as np
import pytest

from repro.core import (
    CheckpointError,
    CheckpointPolicy,
    ParallelTrainer,
    TrainingConfig,
    latest_checkpoint,
)
from repro.core.checkpoint import TrainingCheckpoint, config_from_dict
from repro.data import make_image_dataset
from repro.models import tiny_alexnet, tiny_resnet
from repro.statetree import flatten

@pytest.fixture(scope="module")
def dataset():
    return make_image_dataset(
        num_classes=4,
        train_samples=48,
        test_samples=24,
        image_size=8,
        noise=0.8,
        seed=0,
    )


def make_config(**kw):
    defaults = dict(
        scheme="1bit",
        exchange="mpi",
        world_size=2,
        batch_size=16,
        lr=0.05,
        seed=3,
        engine="sequential",
    )
    defaults.update(kw)
    return TrainingConfig(**defaults)


def make_trainer(model="alexnet", **kw):
    # "resnet" is the batch-normalised cell: its running statistics are
    # per-rank state outside every Parameter
    built = (
        tiny_alexnet(num_classes=4, image_size=8, seed=1)
        if model == "alexnet"
        else tiny_resnet(
            num_classes=4, blocks_per_stage=1, widths=(4, 8, 8), seed=1
        )
    )
    return ParallelTrainer(built, make_config(**kw))


def fit(trainer, dataset, epochs, **kw):
    return trainer.fit(
        dataset.train_x,
        dataset.train_y,
        dataset.test_x,
        dataset.test_y,
        epochs=epochs,
        **kw,
    )


def weights_of(trainer):
    """Every parameter and module buffer of every live rank."""
    engine = trainer.engine
    return flatten(
        {
            str(rank): engine.workers[rank].state_dict(("params", "buffers"))
            for rank in engine.live_ranks
        }
    )


def assert_same_run(history_a, weights_a, history_b, weights_b):
    assert history_a.digest() == history_b.digest()
    for name, data in weights_a.items():
        assert np.array_equal(data, weights_b[name]), (
            f"parameter {name} not bit-identical"
        )


class TestCheckpointFiles:
    def test_save_is_atomic_no_tmp_left_behind(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-00000003.npz"]
        assert not any(n.endswith(".tmp") for n in names)

    def test_epoch_boundary_names_carry_step(self, dataset, tmp_path):
        # 48 samples / (batch 16) = 3 steps per epoch
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-00000003.npz", "ckpt-00000006.npz"]

    def test_pruning_keeps_most_recent(self, dataset, tmp_path):
        policy = CheckpointPolicy(directory=tmp_path, every_steps=1, keep=2)
        with make_trainer() as trainer:
            fit(trainer, dataset, epochs=2, checkpoint=policy)
        names = sorted(p.name for p in tmp_path.iterdir())
        assert names == ["ckpt-00000005.npz", "ckpt-00000006.npz"]

    def test_latest_checkpoint_picks_highest_step(self, tmp_path):
        assert latest_checkpoint(tmp_path) is None
        for step in (3, 12, 7):
            (tmp_path / f"ckpt-{step:08d}.npz").write_bytes(b"x")
        (tmp_path / "notes.txt").write_bytes(b"x")
        found = latest_checkpoint(tmp_path)
        assert found is not None and found.name == "ckpt-00000012.npz"

    def test_latest_checkpoint_sorts_numerically(self, tmp_path):
        # regression: discovery must order by the parsed step, never
        # by filename — lexicographically "ckpt-100" < "ckpt-99", so a
        # byte-order pick would resume from step 99 and retrain (or
        # double-train) everything past it
        for name in ("ckpt-99.npz", "ckpt-100.npz", "ckpt-9.npz"):
            (tmp_path / name).write_bytes(b"x")
        assert max(tmp_path.iterdir()).name == "ckpt-99.npz"  # the trap
        found = latest_checkpoint(tmp_path)
        assert found is not None and found.name == "ckpt-100.npz"

    def test_checkpoint_steps_orders_mixed_padding(self, tmp_path):
        from repro.core import checkpoint_steps

        for name in ("ckpt-00000099.npz", "ckpt-100.npz", "ckpt-2.npz"):
            (tmp_path / name).write_bytes(b"x")
        steps = checkpoint_steps(tmp_path)
        assert [step for step, _ in steps] == [2, 99, 100]
        assert steps[-1][1].name == "ckpt-100.npz"
        assert checkpoint_steps(tmp_path / "missing") == []

    def test_load_rejects_future_format(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        ckpt = TrainingCheckpoint.load(path)
        ckpt.meta["version"] = 999
        bad = tmp_path / "bad.npz"
        ckpt.save(bad)
        with pytest.raises(CheckpointError, match="version"):
            TrainingCheckpoint.load(bad)

    def test_meta_is_plain_json(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        ckpt = TrainingCheckpoint.load(latest_checkpoint(tmp_path))
        # round-trips through json without numpy leakage
        meta = json.loads(json.dumps(ckpt.meta))
        assert ckpt.step == 3
        assert config_from_dict(meta["config"]).scheme == "1bit"
        # every leaf of the tree is an array or a JSON value
        for path, leaf in flatten(ckpt.tree).items():
            if not isinstance(leaf, np.ndarray):
                assert json.loads(json.dumps(leaf)) == leaf, path

    def test_checkpoint_written_before_ipc_was_removed_loads(
        self, dataset, tmp_path
    ):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        ckpt = TrainingCheckpoint.load(latest_checkpoint(tmp_path))
        ckpt.meta["config"]["ipc"] = "shm"
        old = ckpt.save(tmp_path / "old.npz")
        with make_trainer() as resumed:
            history = fit(resumed, dataset, epochs=2, resume_from=old)
        assert len(history.epochs) == 2
        assert not hasattr(TrainingCheckpoint.load(old).config, "ipc")

    def test_policy_validation(self, tmp_path):
        with pytest.raises(ValueError, match="every_steps"):
            CheckpointPolicy(directory=tmp_path, every_steps=0)
        with pytest.raises(ValueError, match="every_epochs"):
            CheckpointPolicy(directory=tmp_path, every_epochs=0)
        with pytest.raises(ValueError, match="keep"):
            CheckpointPolicy(directory=tmp_path, keep=0)

    def test_identity_mismatch_rejected(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        with make_trainer(scheme="qsgd4") as other:
            with pytest.raises(ValueError, match="scheme"):
                fit(other, dataset, epochs=2, resume_from=path)


class TestBitIdenticalResume:
    GRID = [
        ("32bit", "mpi", "sequential"),
        ("1bit", "mpi", "sequential"),
        ("1bit", "mpi", "threaded"),
        ("1bit", "mpi", "process"),
        ("1bit*", "nccl", "sequential"),
        ("1bit*", "mpi", "threaded"),
        ("qsgd4", "nccl", "threaded"),
        ("qsgd4", "nccl", "process"),
        ("qsgd4", "alltoall", "sequential"),
        ("terngrad", "mpi", "sequential"),
        ("terngrad", "nccl", "threaded"),
        ("dettmers8", "mpi", "threaded"),
        ("dettmers8", "nccl", "process"),
        ("dettmers8c", "mpi", "sequential"),
    ]

    @pytest.mark.parametrize("scheme,exchange,engine", GRID)
    def test_resume_matches_uninterrupted(
        self, dataset, tmp_path, scheme, exchange, engine
    ):
        kw = dict(scheme=scheme, exchange=exchange, engine=engine)
        with make_trainer(**kw) as trainer:
            reference = fit(trainer, dataset, epochs=3)
            ref_weights = weights_of(trainer)
        with make_trainer(**kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        with make_trainer(**kw) as trainer:
            resumed = fit(trainer, dataset, epochs=3, resume_from=path)
            res_weights = weights_of(trainer)
        assert_same_run(reference, ref_weights, resumed, res_weights)

    @pytest.mark.parametrize("engine", ["sequential", "process"])
    def test_adaptive_policy_resume_matches_uninterrupted(
        self, dataset, tmp_path, engine
    ):
        # the checkpoint carries the frozen per-layer assignment table;
        # the resumed run must route every gradient exactly as the
        # uninterrupted run did
        kw = dict(
            scheme="qsgd4", policy="adaptive", exchange="nccl",
            engine=engine,
        )
        with make_trainer(**kw) as trainer:
            reference = fit(trainer, dataset, epochs=3)
            ref_weights = weights_of(trainer)
        with make_trainer(**kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        carried = TrainingCheckpoint.load(path).tree["step"][
            "policy_assignments"
        ]
        assert carried
        with make_trainer(**kw) as trainer:
            resumed = fit(trainer, dataset, epochs=3, resume_from=path)
            res_weights = weights_of(trainer)
            assert trainer.step_engine.policy.assignments == carried
        assert_same_run(reference, ref_weights, resumed, res_weights)

    def test_policy_mismatch_rejected(self, dataset, tmp_path):
        # "policy" is an identity field: a static checkpoint must not
        # silently resume as adaptive (the trajectories diverge)
        with make_trainer(scheme="qsgd4", policy="static") as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        with make_trainer(scheme="qsgd4", policy="adaptive") as other:
            with pytest.raises(ValueError, match="policy"):
                fit(other, dataset, epochs=2, resume_from=path)

    def test_error_feedback_residuals_round_trip(self, dataset, tmp_path):
        # 1bit's per-rank residuals are trajectory state: dropping them
        # at the resume point would visibly change every later step
        kw = dict(scheme="1bit", exchange="mpi")
        with make_trainer(**kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
            live = trainer.step_engine.state_dict()["ranks"]
        ckpt = TrainingCheckpoint.load(latest_checkpoint(tmp_path))
        with make_trainer(**kw) as trainer:
            ckpt.restore(trainer)
            restored = trainer.step_engine.state_dict()["ranks"]
            assert restored.keys() == live.keys() == {"0", "1"}
            for rank, held in live.items():
                saved = held["residuals"]
                loaded = restored[rank]["residuals"]
                assert saved.keys() == loaded.keys()
                nonzero = 0
                for name in saved:
                    assert np.array_equal(saved[name], loaded[name])
                    nonzero += int(np.any(saved[name]))
                assert nonzero > 0, "residuals were all zero — not a test"

    def test_mid_epoch_resume_is_bit_identical(self, dataset, tmp_path):
        kw = dict(scheme="1bit", exchange="mpi")
        with make_trainer(**kw) as trainer:
            reference = fit(trainer, dataset, epochs=2)
            ref_weights = weights_of(trainer)
        # checkpoint after every step; resume from step 4 = mid-epoch 1
        with make_trainer(**kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(
                    directory=tmp_path, every_steps=1, keep=None,
                    every_epochs=None,
                ),
            )
        path = tmp_path / "ckpt-00000004.npz"
        assert path.exists()
        ckpt = TrainingCheckpoint.load(path)
        assert ckpt.epoch == 1 and ckpt.batches_done == 1
        with make_trainer(**kw) as trainer:
            resumed = fit(trainer, dataset, epochs=2, resume_from=ckpt)
            res_weights = weights_of(trainer)
        assert_same_run(reference, ref_weights, resumed, res_weights)

    @pytest.mark.parametrize(
        "writer,resumer",
        [
            ("sequential", "threaded"),
            ("sequential", "process"),
            ("process", "sequential"),
            ("process", "threaded"),
        ],
    )
    def test_cross_engine_resume(self, dataset, tmp_path, writer, resumer):
        # the engine is not an identity field: a checkpoint written by
        # one engine resumed on another continues the same trajectory
        kw = dict(scheme="1bit*", exchange="mpi")
        with make_trainer(engine="sequential", **kw) as trainer:
            reference = fit(trainer, dataset, epochs=3)
            ref_weights = weights_of(trainer)
        with make_trainer(engine=writer, **kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        path = latest_checkpoint(tmp_path)
        with make_trainer(engine=resumer, **kw) as trainer:
            resumed = fit(trainer, dataset, epochs=3, resume_from=path)
            res_weights = weights_of(trainer)
        assert_same_run(reference, ref_weights, resumed, res_weights)

    @pytest.mark.parametrize(
        "writer,resumer,model",
        [
            pytest.param("process", "sequential", "alexnet",
                         id="process-sequential"),
            pytest.param("threaded", "process", "alexnet",
                         id="threaded-process"),
        ]
        # the batch-normalised model, on every engine: each rank's
        # running statistics are state outside every Parameter, and a
        # checkpoint that drops them resumes to a different trajectory
        + [
            pytest.param(engine, engine, "resnet", id=f"resnet-{engine}")
            for engine in ("sequential", "threaded", "process")
        ],
    )
    def test_mid_epoch_resume_lands_on_different_engine(
        self, dataset, tmp_path, writer, resumer, model
    ):
        # mid-epoch state (shuffle position, partial epoch metrics) must
        # survive the engine switch, not just epoch boundaries
        kw = dict(scheme="1bit", exchange="mpi", model=model)
        with make_trainer(engine="sequential", **kw) as trainer:
            reference = fit(trainer, dataset, epochs=2)
            ref_weights = weights_of(trainer)
        with make_trainer(engine=writer, **kw) as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(
                    directory=tmp_path, every_steps=1, keep=None,
                    every_epochs=None,
                ),
            )
        path = tmp_path / "ckpt-00000004.npz"
        ckpt = TrainingCheckpoint.load(path)
        assert ckpt.epoch == 1 and ckpt.batches_done == 1
        with make_trainer(engine=resumer, **kw) as trainer:
            resumed = fit(trainer, dataset, epochs=2, resume_from=ckpt)
            res_weights = weights_of(trainer)
        assert_same_run(reference, ref_weights, resumed, res_weights)

    def test_resumed_history_contains_prior_epochs(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=2,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        with make_trainer() as trainer:
            resumed = fit(
                trainer,
                dataset,
                epochs=3,
                resume_from=latest_checkpoint(tmp_path),
            )
        assert [m.epoch for m in resumed.epochs] == [0, 1, 2]


class TestDamagedCheckpoints:
    """Every way a file can be wrong has one name: CheckpointError."""

    @pytest.fixture()
    def good(self, dataset, tmp_path):
        with make_trainer() as trainer:
            fit(
                trainer,
                dataset,
                epochs=1,
                checkpoint=CheckpointPolicy(directory=tmp_path),
            )
        return latest_checkpoint(tmp_path)

    @pytest.mark.parametrize("keep", [0, 10, 0.5, -30])
    def test_truncated_archive(self, good, keep):
        data = good.read_bytes()
        cut = int(len(data) * keep) if isinstance(keep, float) else keep
        good.write_bytes(data[:cut])
        with pytest.raises(CheckpointError, match=good.name):
            TrainingCheckpoint.load(good)

    def test_archive_missing_one_member(self, good, tmp_path):
        import zipfile

        lost = "step/ranks/0/residuals/fc6.W"
        torn = tmp_path / "torn.npz"
        with zipfile.ZipFile(good) as src, zipfile.ZipFile(torn, "w") as dst:
            assert f"{lost}.npy" in src.namelist()
            for item in src.infolist():
                if item.filename != f"{lost}.npy":
                    dst.writestr(item, src.read(item))
        with pytest.raises(CheckpointError, match=lost):
            TrainingCheckpoint.load(torn)

    def test_parameter_the_trainer_expects_is_absent(self, good):
        ckpt = TrainingCheckpoint.load(good)
        del ckpt.tree["params"]["fc6.W"]
        with make_trainer() as trainer:
            with pytest.raises(CheckpointError, match="params/fc6.W"):
                ckpt.restore(trainer)

    def test_shape_mismatch_names_the_path(self, good):
        ckpt = TrainingCheckpoint.load(good)
        ckpt.tree["params"]["fc6.W"] = np.zeros((3, 3), dtype=np.float32)
        with make_trainer() as trainer:
            with pytest.raises(CheckpointError, match=r"params/fc6\.W.*shape"):
                ckpt.restore(trainer)
