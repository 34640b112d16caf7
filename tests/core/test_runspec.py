"""The run spec: one declaration per knob, every surface derived from it."""

from __future__ import annotations

import argparse
import importlib.util
import re
from dataclasses import dataclass, fields
from pathlib import Path

import pytest

import repro.cli
import repro.core.checkpoint
import repro.core.config
import repro.core.runspec as runspec
import repro.runtime.engine
import repro.serve.daemon
import repro.simulator.costmodel
from repro.cli import build_parser
from repro.core import TrainingConfig
from repro.core.checkpoint import IDENTITY_FIELDS
from repro.core.config import SURFACES, identity_fields, knob
from repro.core.runspec import RunSpec
from repro.serve import JobSpec

REPO = Path(__file__).parents[2]


def knob_table() -> str:
    """README's knob table as ``tools/knob_table.py`` renders it."""
    spec = importlib.util.spec_from_file_location(
        "knob_table", REPO / "tools" / "knob_table.py"
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool.knob_table()


#: option -> default of ``repro train`` / ``repro trace`` at the commit
#: before the parsers were derived from the schema
PARENT_FLAGS = {
    "train": {
        "--model": "alexnet", "--scheme": "32bit", "--policy": "static",
        "--exchange": "mpi", "--engine": "sequential", "--ipc": "shm",
        "--world-size": 2, "--batch-size": 32, "--epochs": 5, "--lr": 0.01,
        "--momentum": 0.9, "--seed": 0, "--aggregation-frequency": 1,
        "--sync-mode": "allreduce", "--model-seed": 1, "--classes": 4,
        "--image-size": 8, "--train-samples": 256, "--test-samples": 128,
        "--link-gbps": None, "--barrier-timeout": 30.0,
        "--straggler-ranks": [], "--straggler-delay": 0.0,
        "--crash-rank": None, "--crash-step": None,
        "--crash-transient": False, "--kill-point": [], "--max-retries": 0,
        "--retry-backoff": 0.05, "--allow-degraded": False,
        "--min-world-size": 1, "--checkpoint-dir": None,
        "--checkpoint-every-steps": None, "--checkpoint-every-epochs": 1,
    },
    "trace": {
        "--scheme": "qsgd", "--bits": None, "--exchange": "mpi", "--gpus": 4,
        "--engine": "sequential", "--model": "alexnet", "--epochs": 1,
        "--aggregation-frequency": 1, "--batch-size": 32, "--lr": 0.01,
        "--seed": 0, "--model-seed": 1, "--classes": 4, "--image-size": 8,
        "--train-samples": 128, "--test-samples": 64, "--link-gbps": None,
        "--output": "trace.json", "--crossval": False,
        "--network": "AlexNet",
    },
}


def subparser(name: str) -> argparse.ArgumentParser:
    parser = build_parser()
    (sub,) = [
        a for a in parser._actions
        if isinstance(a, argparse._SubParsersAction)
    ]
    return sub.choices[name]


def flags_of(name: str) -> dict:
    # defaults compare as they are: a tuple where the parent had a list
    # is a difference (argparse's append action needs the list)
    return {
        action.option_strings[-1]: action.default
        for action in subparser(name)._actions
        if action.option_strings and action.dest != "help"
    }


class TestDerivedParsers:
    def test_train_flags_are_the_parents_minus_ipc(self):
        expected = dict(PARENT_FLAGS["train"])
        del expected["--ipc"]
        assert flags_of("train") == expected

    def test_trace_flags_are_the_parents_minus_bits(self):
        expected = dict(PARENT_FLAGS["trace"])
        del expected["--bits"]
        # the family name only ever worked together with --bits
        expected["--scheme"] = "qsgd4"
        assert flags_of("trace") == expected

    def test_enumerated_knobs_carry_argparse_choices(self):
        actions = {a.dest: a for a in subparser("train")._actions}
        for dest in ("model", "exchange", "engine", "policy", "sync_mode"):
            assert actions[dest].choices, dest

    def test_every_scheme_flag_takes_the_same_names(self):
        for name in ("train", "trace", "fabric"):
            parse = subparser(name).parse_args
            for scheme in ("qsgd8", "aqsgd4", "topk0.01", "terngrad2.5"):
                assert parse(["--scheme", scheme]).scheme == scheme


class TestSchema:
    def test_identity_fields_are_the_pinned_nineteen(self):
        assert len(IDENTITY_FIELDS) == 19
        assert set(IDENTITY_FIELDS) == {
            "scheme", "bucket_size", "exchange", "world_size", "batch_size",
            "lr", "lr_decay", "momentum", "weight_decay", "seed",
            "requantize_broadcast", "passthrough_coverage", "norm",
            "variant", "policy", "quantize_kinds", "comm_bucket_bytes",
            "aggregation_frequency", "sync_mode",
        }

    def test_option_count_went_down(self):
        assert len(fields(TrainingConfig)) == 35
        assert not hasattr(TrainingConfig(), "ipc")
        assert not hasattr(TrainingConfig(), "workspace")
        gone = [
            (repro.core.checkpoint, "tree_from_v1"),
            (repro.runtime.engine.ExecutionEngine, "workspace"),
            (repro.serve.daemon, "_legacy_runner_start_time"),
            (repro.core.config, "IPC_NAMES"),
            (repro.core, "IPC_NAMES"),
            (repro.cli, "_TRACE_SCHEMES"),
            (repro.cli, "_resolve_trace_scheme"),
            (repro.cli, "_build_train_model"),
            (repro.cli, "_make_train_dataset"),
            (repro.simulator.costmodel, "_group_count"),
        ]
        for module, name in gone:
            assert not hasattr(module, name), name

    def test_metadata_drives_the_checks(self):
        with pytest.raises(ValueError, match="barrier_timeout must be > 0"):
            TrainingConfig(barrier_timeout=0)
        with pytest.raises(ValueError, match="max_retries must be >= 0"):
            TrainingConfig(max_retries=-1)
        with pytest.raises(ValueError, match="world_size must be int"):
            TrainingConfig(world_size=2.5)
        with pytest.raises(ValueError, match="lr must be float, got None"):
            TrainingConfig(lr=None)
        with pytest.raises(ValueError, match="unknown policy 'greedy'"):
            TrainingConfig(policy="greedy")
        with pytest.raises(ValueError, match="unknown model 'gpt5'"):
            RunSpec(config=TrainingConfig(), model="gpt5")

    def test_tuple_knobs_check_their_elements(self):
        bad = [
            ({"quantize_kinds": "conv"}, "quantize_kinds must be tuple"),
            ({"straggler_ranks": ["a"]}, "straggler_ranks must be tuple"),
            ({"straggler_ranks": 1}, "straggler_ranks must be tuple"),
            ({"kill_points": [[0]]}, "kill_points must be tuple"),
            ({"kill_points": [["0", 1]]}, "kill_points must be tuple"),
            ({"kill_points": [[0, 1.5]]}, "kill_points must be tuple"),
        ]
        for kwargs, message in bad:
            with pytest.raises(ValueError, match=message):
                TrainingConfig(world_size=2, **kwargs)

    def test_lists_normalize_to_tuples(self):
        config = TrainingConfig(
            world_size=2, straggler_ranks=[1], kill_points=[[0, 3]],
            quantize_kinds=["conv"],
        )
        assert config.straggler_ranks == (1,)
        assert config.kill_points == ((0, 3),)
        assert config.quantize_kinds == ("conv",)

    def test_a_new_knob_reaches_every_surface(self, monkeypatch):
        @dataclass
        class Config(TrainingConfig):
            warmup_steps: int = knob(
                0, "hypothetical LR warm-up steps",
                min=0, identity=True, surfaces=SURFACES,
            )

        monkeypatch.setattr(runspec, "TrainingConfig", Config)

        assert "hypothetical LR warm-up" in subparser("train").format_help()
        args = build_parser().parse_args(["train", "--warmup-steps", "3"])
        assert RunSpec.from_flat(vars(args), "train").config.warmup_steps == 3

        job = JobSpec.from_dict({"warmup_steps": 5})
        assert job.config.warmup_steps == 5
        assert job.to_dict()["warmup_steps"] == 5
        with pytest.raises(ValueError, match="warmup_steps must be >= 0"):
            JobSpec.from_dict({"warmup_steps": -1})

        assert "warmup_steps" in identity_fields(Config)
        assert "| `warmup_steps` | `--warmup-steps` |" in knob_table()


class TestSurfaces:
    def test_surface_defaults_are_what_each_surface_had(self):
        train = RunSpec.from_flat({}, "train")
        assert (train.world_size, train.config.lr, train.epochs) == (2, 0.01, 5)
        trace = RunSpec.from_flat({}, "trace")
        assert (trace.config.scheme, trace.world_size) == ("qsgd4", 4)
        job = JobSpec.from_dict({})
        assert (job.epochs, job.train_samples, job.test_samples) == (2, 64, 32)
        assert job.checkpoint_every_steps == 1 and job.trace is False

    def test_unexposed_names_are_ignored_by_from_flat(self):
        # argparse namespaces carry handler/output/...; serve bodies are
        # checked for unknown names by JobSpec.from_dict itself
        spec = RunSpec.from_flat({"momentum": 0.5, "handler": print}, "trace")
        assert spec.config.momentum == 0.9

    def test_checkpoint_extra_rebuilds_the_spec(self, tmp_path):
        spec = RunSpec.from_flat({"model": "lstm", "epochs": 3}, "train")
        extra = spec.checkpoint_policy(tmp_path).extra
        assert RunSpec(config=spec.config, **extra) == spec


def test_readme_knob_table_is_the_rendered_schema():
    readme = (REPO / "README.md").read_text()
    block = re.search(
        r"<!-- knob-table:begin -->\n(.*?)\n<!-- knob-table:end -->",
        readme, flags=re.S,
    )
    assert block, "README.md lost its knob-table markers"
    assert block.group(1) == knob_table(), (
        "README's knob table is stale; paste the output of "
        "`python tools/knob_table.py` between the markers"
    )
