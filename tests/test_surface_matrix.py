"""The surface matrix: every scheme name on every surface.

Generated from the registry: each ``SCHEME_NAMES`` entry plus one
example of each extension syntax, crossed with every surface that takes
a scheme.  A cell either runs to a digest/result, or — for a name
``make_quantizer`` rejects — refuses at the boundary with the
choices-listing ``ValueError`` (argparse prints it and exits 2) before
a worker is spawned or a job stored.  ``TypeError``, ``KeyError``, a
``failed`` job with a traceback, or one surface accepting what another
refuses all fail the matrix.
"""

import re

import numpy as np
import pytest

from repro.cli import main
from repro.core import ParallelTrainer, TrainingCheckpoint, TrainingConfig
from repro.core.checkpoint import save_checkpoint
from repro.core.runspec import RunSpec
from repro.quantization import SCHEME_NAMES
from repro.serve import JobSpec, JobState, JobStore
from repro.serve.runner import run_job
from repro.simulator.costmodel import cached_cost_model

VALID = SCHEME_NAMES + ("aqsgd4", "topk0.01", "terngrad2.5")
#: a typo, and the family name ``repro trace`` once took with ``--bits``
INVALID = ("bogus", "qsgd")

TINY = {
    "train_samples": 16, "test_samples": 8, "batch_size": 8,
    "world_size": 2,
}
TINY_FLAGS = [
    "--train-samples", "16", "--test-samples", "8", "--batch-size", "8",
]


def digest_of(out: str) -> str:
    return re.search(r"history digest: ([0-9a-f]{64})", out).group(1)


def train(scheme, tmp_path, capsys):
    assert main(["train", "--scheme", scheme, "--epochs", "1",
                 *TINY_FLAGS]) == 0
    return digest_of(capsys.readouterr().out)


def trace(scheme, tmp_path, capsys):
    assert main(["trace", "--scheme", scheme, "--gpus", "2", "--crossval",
                 "--output", str(tmp_path / "trace.json"),
                 *TINY_FLAGS]) == 0
    out = capsys.readouterr().out
    assert "wire bytes:" in out and "cross-validation" in out
    return out


def train_then_resume(scheme, tmp_path, capsys):
    base = ["train", "--scheme", scheme, *TINY_FLAGS]
    assert main(base + ["--epochs", "2"]) == 0
    reference = digest_of(capsys.readouterr().out)
    assert main(base + ["--epochs", "1",
                        "--checkpoint-dir", str(tmp_path)]) == 0
    capsys.readouterr()
    assert main(["resume", str(tmp_path), "--epochs", "2"]) == 0
    assert digest_of(capsys.readouterr().out) == reference
    return reference


def fabric(scheme, tmp_path, capsys):
    assert main(["fabric", "--scheme", scheme, "--ranks", "8",
                 "--pattern", "ring", "--elements", "10000"]) == 0
    out = capsys.readouterr().out
    assert f"ring/{scheme}" in out and "ms makespan" in out
    return out


def simulator(scheme, tmp_path, capsys):
    model = cached_cost_model("AlexNet", scheme, 4)
    assert model.total_whole_bytes > 0 and model.total_groups >= 0
    assert model.quant_work_units(2.0) >= 0
    return model


def serve(scheme, tmp_path, capsys):
    store = JobStore(tmp_path / "root")
    try:
        spec = JobSpec.from_dict({**TINY, "scheme": scheme, "epochs": 1})
    except ValueError:
        assert list(store.jobs_dir.iterdir()) == []
        raise
    record = store.submit(spec)
    assert run_job(store.job_dir(record.job_id)) == 0
    result = store.read_result(record.job_id)
    assert result["state"] == JobState.SUCCEEDED, result
    return result["digest"]


def checkpoint(scheme, tmp_path, capsys):
    spec = RunSpec.from_flat({**TINY, "scheme": scheme}, "train")
    ds = spec.build_dataset()
    with ParallelTrainer(spec.build_model(), spec.config) as trainer:
        trainer.train_step(ds.train_x[:8], ds.train_y[:8])
        path = save_checkpoint(trainer, spec.checkpoint_policy(tmp_path))
        expected = [p.data.copy() for p in trainer.parameters]
    loaded = TrainingCheckpoint.load(path)
    assert loaded.config == spec.config
    with ParallelTrainer(spec.build_model(), loaded.config) as fresh:
        loaded.restore(fresh)
        for param, saved in zip(fresh.parameters, expected):
            np.testing.assert_array_equal(param.data, saved)
    return path


SURFACES = [train, trace, train_then_resume, fabric, simulator, serve,
            checkpoint]


@pytest.mark.parametrize("surface", SURFACES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("scheme", VALID)
def test_valid_scheme_works(scheme, surface, tmp_path, capsys):
    surface(scheme, tmp_path, capsys)


@pytest.mark.parametrize("surface", SURFACES, ids=lambda f: f.__name__)
@pytest.mark.parametrize("scheme", INVALID)
def test_invalid_scheme_refused_with_choices(
    scheme, surface, tmp_path, capsys
):
    with pytest.raises((ValueError, SystemExit)) as refusal:
        surface(scheme, tmp_path, capsys)
    if refusal.type is SystemExit:
        assert refusal.value.code == 2
        message = capsys.readouterr().err
    else:
        message = str(refusal.value)
    assert f"unknown scheme {scheme!r}" in message
    for choice in ("qsgd4", "terngrad", "aqsgd<bits>", "topk<density>"):
        assert choice in message
    # refused at the boundary: nothing ran, nothing was written
    assert list(tmp_path.rglob("*.npz")) == []
    assert list(tmp_path.rglob("record.json")) == []


def test_train_and_serve_agree_on_the_trajectory(tmp_path, capsys):
    # the same cell through two surfaces is the same run
    store = JobStore(tmp_path / "root")
    spec = JobSpec.from_dict({
        **TINY, "scheme": "qsgd4", "epochs": 1, "train_samples": 16,
        "test_samples": 8, "lr": 0.01,
    })
    record = store.submit(spec)
    assert run_job(store.job_dir(record.job_id)) == 0
    assert main(["train", "--scheme", "qsgd4", "--epochs", "1",
                 *TINY_FLAGS]) == 0
    assert store.read_result(record.job_id)["digest"] == digest_of(
        capsys.readouterr().out
    )
