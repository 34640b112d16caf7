"""Deterministic checkpoint/resume of full training state.

A :class:`TrainingCheckpoint` captures *everything* a bit-identical
continuation needs — model parameters, optimizer momentum, the data
shuffle RNG, every per-rank module RNG stream (dropout masks), the
shared quantization RNG, per-rank error-feedback residuals, any
aggregator-side exchange state (the MPI path's broadcast residuals),
the live topology after evictions, and the partially-completed epoch's
running metrics.  Resuming a run from a checkpoint taken at step N and
training to the end produces exactly the trajectory of the
uninterrupted run, byte for byte, for every scheme × exchange × engine
cell — the checkpoint test-grid asserts this.

Files are single ``.npz`` archives: one JSON metadata blob plus one
array entry per tensor, written to a temporary file in the target
directory and atomically renamed into place (``os.replace``), so a
crash mid-save can never leave a torn checkpoint behind.
"""

from __future__ import annotations

import copy
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..runtime.worker import collect_module_rngs
from .config import TrainingConfig, identity_fields, knobs
from .metrics import History

__all__ = [
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "checkpoint_steps",
    "latest_checkpoint",
    "save_checkpoint",
]

#: checkpoint file-format version
FORMAT_VERSION = 1

#: config fields that define the numeric trajectory (the knobs declared
#: ``identity=True``); a checkpoint only restores into a trainer whose
#: config matches on all of them.  The engine is deliberately absent
#: (all engines are bit-identical, so resuming on another is legal), as
#: are the workspace switch and every fault/retry/telemetry knob.
IDENTITY_FIELDS = identity_fields(TrainingConfig)

_CKPT_NAME = re.compile(r"^ckpt-(\d+)\.npz$")


def config_to_dict(config: TrainingConfig) -> dict:
    """JSON-friendly config record: every knob (no tracer handle)."""
    record = {}
    for f in knobs(TrainingConfig):
        value = getattr(config, f.name)
        record[f.name] = list(value) if isinstance(value, tuple) else value
    return record


def config_from_dict(record: dict) -> TrainingConfig:
    """Rebuild a :class:`TrainingConfig` from :func:`config_to_dict`.

    Keys that are no longer knobs (an old checkpoint's ``ipc``) are
    dropped; the config normalizes list-valued knobs back to tuples.
    """
    known = {f.name for f in knobs(TrainingConfig)}
    return TrainingConfig(
        **{k: v for k, v in record.items() if k in known}
    )


@dataclass(frozen=True)
class CheckpointPolicy:
    """When and where the trainer writes checkpoints.

    Attributes:
        directory: target directory (created on first save).
        every_steps: save after every N global steps (``None`` = only
            at epoch boundaries).
        every_epochs: save at the end of every N epochs (``None``
            disables epoch-boundary saves).
        keep: most-recent checkpoints retained; older files are pruned
            after each save.  ``None`` keeps everything.
        extra: opaque JSON-serializable dict stored verbatim in every
            checkpoint's metadata — the CLI records how to rebuild the
            model and dataset here, so ``repro resume`` needs nothing
            but the checkpoint file.
    """

    directory: str | os.PathLike
    every_steps: int | None = None
    every_epochs: int | None = 1
    keep: int | None = 3
    extra: dict | None = None

    def __post_init__(self) -> None:
        if self.every_steps is not None and self.every_steps < 1:
            raise ValueError(
                f"every_steps must be >= 1, got {self.every_steps}"
            )
        if self.every_epochs is not None and self.every_epochs < 1:
            raise ValueError(
                f"every_epochs must be >= 1, got {self.every_epochs}"
            )
        if self.keep is not None and self.keep < 1:
            raise ValueError(f"keep must be >= 1, got {self.keep}")


class TrainingCheckpoint:
    """One captured training state: a metadata dict plus named arrays."""

    def __init__(self, meta: dict, arrays: dict[str, np.ndarray]):
        self.meta = meta
        self.arrays = arrays

    # -- convenient accessors ---------------------------------------------
    @property
    def step(self) -> int:
        """Global step index the resumed run continues from."""
        return int(self.meta["step"])

    @property
    def epoch(self) -> int:
        """Epoch the resumed run continues in (0-based)."""
        return int(self.meta["epoch"])

    @property
    def batches_done(self) -> int:
        """Batches of that epoch already trained (0 = epoch boundary)."""
        return int(self.meta["batches_done"])

    @property
    def config(self) -> TrainingConfig:
        return config_from_dict(self.meta["config"])

    @property
    def history(self) -> History:
        return History.from_dict(self.meta["history"])

    # -- capture ----------------------------------------------------------
    @classmethod
    def capture(
        cls,
        trainer,
        *,
        epoch: int,
        batches_done: int,
        shuffle_state: dict,
        partial_losses: list[float] = (),
        partial_accuracies: list[float] = (),
        history: History | None = None,
        extra: dict | None = None,
    ) -> "TrainingCheckpoint":
        """Snapshot a :class:`~repro.core.trainer.ParallelTrainer`.

        ``shuffle_state`` must be the shuffle-RNG state from which the
        *current* epoch's permutation is (re)drawn: the pre-epoch
        snapshot when mid-epoch, the current state at an epoch
        boundary.  The resumed run restores it, re-draws the same
        permutation, and skips the first ``batches_done`` batches.
        """
        engine = trainer.engine
        step_engine = engine.step_engine
        reference = engine.reference_worker
        arrays: dict[str, np.ndarray] = {}

        param_names = [p.name for p in reference.parameters]
        for i, param in enumerate(reference.parameters):
            arrays[f"param{i}"] = np.array(param.data, copy=True)

        # mid-round local SGD is the one state where live replicas have
        # legitimately diverged: capture every rank's parameters (keyed
        # by live-rank position) so resume rebuilds each replica exactly
        per_rank_params = (
            step_engine.local_updates and step_engine.round_position != 0
        )
        if per_rank_params:
            for position, rank in enumerate(engine.live_ranks):
                for i, param in enumerate(
                    engine.workers[rank].parameters
                ):
                    arrays[f"param{i}r{position}"] = np.array(
                        param.data, copy=True
                    )

        velocity = reference.optimizer._velocity
        velocity_names = sorted(velocity)
        for i, name in enumerate(velocity_names):
            arrays[f"vel{i}"] = np.array(velocity[name], copy=True)

        # per-rank error-feedback residuals, keyed by *original* rank id
        residual_index: list[list] = []
        for position, rank in enumerate(engine.live_ranks):
            for name, residual in step_engine._residuals[position].items():
                arrays[f"res{len(residual_index)}"] = np.array(
                    residual, copy=True
                )
                residual_index.append([rank, name])

        exchange_keys = []
        for key, array in step_engine.exchange.state_dict().items():
            arrays[f"exch{len(exchange_keys)}"] = np.array(array, copy=True)
            exchange_keys.append(key)

        # periodic-synchronization round state: the position inside the
        # current round plus the per-rank gradient accumulators and the
        # local-SGD round base, so a mid-round resume replays the rest
        # of the round bit-identically
        accumulator_index: list[list] = []
        for position, rank in enumerate(engine.live_ranks):
            for name, acc in step_engine._accumulators[position].items():
                arrays[f"acc{len(accumulator_index)}"] = np.array(
                    acc, copy=True
                )
                accumulator_index.append([rank, name])
        round_base_names = sorted(step_engine._round_base)
        for i, name in enumerate(round_base_names):
            arrays[f"rb{i}"] = np.array(
                step_engine._round_base[name], copy=True
            )

        module_rngs = {
            str(rank): [
                copy.deepcopy(gen.bit_generator.state)
                for gen in collect_module_rngs(engine.workers[rank].model)
            ]
            for rank in engine.live_ranks
        }

        meta = {
            "version": FORMAT_VERSION,
            "step": int(engine._step_index),
            "epoch": int(epoch),
            "batches_done": int(batches_done),
            "config": config_to_dict(trainer.config),
            "history": (history or History(trainer.config.label)).to_dict(),
            "live_ranks": list(engine.live_ranks),
            "shuffle_state": copy.deepcopy(shuffle_state),
            "quant_state": copy.deepcopy(
                step_engine.rng.bit_generator.state
            ),
            "module_rngs": module_rngs,
            "partial_losses": [float(v) for v in partial_losses],
            "partial_accuracies": [float(v) for v in partial_accuracies],
            "partial_comm_bytes": int(step_engine.comm_bytes),
            "param_names": param_names,
            "velocity_names": velocity_names,
            "residuals": residual_index,
            "exchange_keys": exchange_keys,
            "round_position": int(step_engine.round_position),
            "accumulators": accumulator_index,
            "round_base_names": round_base_names,
            "per_rank_params": bool(per_rank_params),
            # the adaptive policy's frozen per-layer scheme table; the
            # resume path restores it verbatim instead of trusting a
            # re-derivation, so the carried decisions — not the
            # derivation code — define the resumed trajectory
            "policy_assignments": dict(
                getattr(step_engine.policy, "assignments", None) or {}
            ),
            "extra": dict(extra) if extra else {},
        }
        return cls(meta, arrays)

    # -- restore ----------------------------------------------------------
    def restore(self, trainer) -> None:
        """Load this checkpoint's state into a freshly-built trainer.

        The trainer's config must match the checkpoint's on every
        trajectory-defining field (:data:`IDENTITY_FIELDS`); fault,
        retry, engine, and telemetry knobs may differ — so a resumed
        run can, for example, drop the crash injection that killed the
        original.
        """
        # round-trip the saved record through the dataclass so fields
        # added after the checkpoint was written compare at their
        # defaults instead of as missing keys
        current = config_to_dict(trainer.config)
        saved = config_to_dict(self.config)
        mismatches = [
            name
            for name in IDENTITY_FIELDS
            if current.get(name) != saved.get(name)
        ]
        if mismatches:
            raise ValueError(
                "checkpoint was taken under a different config; "
                f"mismatched fields: {', '.join(mismatches)}"
            )

        engine = trainer.engine
        engine.restore_topology([int(r) for r in self.meta["live_ranks"]])
        step_engine = engine.step_engine

        param_names = self.meta["param_names"]
        velocity_names = self.meta["velocity_names"]
        per_rank_params = bool(self.meta.get("per_rank_params"))
        for position, rank in enumerate(engine.live_ranks):
            worker = engine.workers[rank]
            for i, name in enumerate(param_names):
                param = worker.param_by_name[name]
                key = (
                    f"param{i}r{position}" if per_rank_params
                    else f"param{i}"
                )
                saved = self.arrays[key]
                if param.data.shape != saved.shape:
                    raise ValueError(
                        f"parameter {name!r} shape {param.data.shape} != "
                        f"checkpointed {saved.shape}"
                    )
                param.data[...] = saved
            worker.optimizer._velocity = {
                name: np.array(self.arrays[f"vel{i}"], copy=True)
                for i, name in enumerate(velocity_names)
            }
            generators = collect_module_rngs(worker.model)
            states = self.meta["module_rngs"][str(rank)]
            if len(generators) != len(states):
                raise ValueError(
                    f"rank {rank} has {len(generators)} module RNGs, "
                    f"checkpoint recorded {len(states)}"
                )
            for gen, state in zip(generators, states):
                gen.bit_generator.state = copy.deepcopy(state)

        step_engine.rng.bit_generator.state = copy.deepcopy(
            self.meta["quant_state"]
        )
        carried = self.meta.get("policy_assignments")
        if carried and hasattr(step_engine.policy, "assignments"):
            # checkpoint-carried bit-width decisions override the fresh
            # derivation (they should agree — the derivation is a pure
            # function of the identity fields — but the saved table is
            # authoritative for the resumed trajectory)
            step_engine.policy.assignments = {
                str(name): str(scheme)
                for name, scheme in carried.items()
            }
        position_of = {
            rank: position for position, rank in enumerate(engine.live_ranks)
        }
        residuals: list[dict[str, np.ndarray]] = [
            {} for _ in engine.live_ranks
        ]
        for i, (rank, name) in enumerate(self.meta["residuals"]):
            residuals[position_of[int(rank)]][name] = np.array(
                self.arrays[f"res{i}"], copy=True
            )
        step_engine._residuals = residuals
        step_engine._round_position = int(self.meta.get("round_position", 0))
        accumulators: list[dict[str, np.ndarray]] = [
            {} for _ in engine.live_ranks
        ]
        for i, (rank, name) in enumerate(self.meta.get("accumulators", [])):
            accumulators[position_of[int(rank)]][name] = np.array(
                self.arrays[f"acc{i}"], copy=True
            )
        step_engine._accumulators = accumulators
        step_engine._round_base = {
            name: np.array(self.arrays[f"rb{i}"], copy=True)
            for i, name in enumerate(self.meta.get("round_base_names", []))
        }
        step_engine.exchange.load_state_dict(
            {
                key: np.array(self.arrays[f"exch{i}"], copy=True)
                for i, key in enumerate(self.meta["exchange_keys"])
            }
        )
        engine._step_index = self.step
        # let the engine resync any state held outside the coordinator
        # (the process engine respawns its workers from the replicas)
        engine.on_state_restored()

    # -- disk -------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> Path:
        """Write atomically: temp file in the target dir, then rename."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    __meta__=np.array(json.dumps(self.meta)),
                    **self.arrays,
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on failed save
                tmp.unlink()
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainingCheckpoint":
        with np.load(Path(path), allow_pickle=False) as archive:
            meta = json.loads(str(archive["__meta__"][()]))
            if meta.get("version") != FORMAT_VERSION:
                raise ValueError(
                    f"unsupported checkpoint version {meta.get('version')}"
                    f" (expected {FORMAT_VERSION})"
                )
            arrays = {
                key: archive[key] for key in archive.files if key != "__meta__"
            }
        return cls(meta, arrays)


def checkpoint_steps(
    directory: str | os.PathLike,
) -> list[tuple[int, Path]]:
    """Every ``ckpt-<step>.npz`` under ``directory``, ordered by step.

    The ordering is *numeric* on the parsed step — never lexicographic
    on the filename — so an unpadded ``ckpt-100.npz`` sorts after
    ``ckpt-99.npz`` (lexicographically ``"ckpt-100" < "ckpt-99"``).
    The trainer writes zero-padded names, where the two orders happen
    to agree, but discovery must not depend on that: checkpoints
    renamed or written by other tooling resume correctly too.  Both
    ``latest_checkpoint`` (the ``repro resume`` directory path and the
    serve daemon's per-job resume) and the retention pruning in
    :func:`save_checkpoint` share this helper.
    """
    directory = Path(directory)
    if not directory.is_dir():
        return []
    found = [
        (int(match.group(1)), entry)
        for entry in directory.iterdir()
        if (match := _CKPT_NAME.match(entry.name))
    ]
    found.sort(key=lambda pair: pair[0])
    return found


def latest_checkpoint(directory: str | os.PathLike) -> Path | None:
    """Highest-step ``ckpt-*.npz`` under ``directory`` (or ``None``)."""
    found = checkpoint_steps(directory)
    return found[-1][1] if found else None


def save_checkpoint(
    trainer,
    policy: CheckpointPolicy,
    *,
    epoch: int,
    batches_done: int,
    shuffle_state: dict,
    partial_losses: list[float] = (),
    partial_accuracies: list[float] = (),
    history: History | None = None,
) -> Path:
    """Capture, write ``ckpt-<step>.npz`` under the policy dir, prune."""
    ckpt = TrainingCheckpoint.capture(
        trainer,
        epoch=epoch,
        batches_done=batches_done,
        shuffle_state=shuffle_state,
        partial_losses=partial_losses,
        partial_accuracies=partial_accuracies,
        history=history,
        extra=policy.extra,
    )
    directory = Path(policy.directory)
    path = ckpt.save(directory / f"ckpt-{ckpt.step:08d}.npz")
    if policy.keep is not None:
        for _, stale in checkpoint_steps(directory)[: -policy.keep]:
            stale.unlink()
    return path
