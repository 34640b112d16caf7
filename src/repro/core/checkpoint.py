"""Deterministic checkpoint/resume of full training state.

A :class:`TrainingCheckpoint` is the trainer's whole state tree
(``ParallelTrainer.state_dict()``, see :mod:`repro.statetree`) plus the
config it was taken under: *everything* a bit-identical continuation
needs, because the tree is the one inventory of what a run carries
from step to step — this module lists none of it.  Resuming a run from
a checkpoint taken at step N and training to the end produces exactly
the trajectory of the uninterrupted run, byte for byte, for every
scheme × exchange × engine cell — the checkpoint test-grid asserts
this.

Files are single ``.npz`` archives (format 2): every ndarray leaf of
the tree is one member named by its ``a/b/c`` path, and ``__meta__``
is the UTF-8 JSON of ``{"version", "config", "extra", "arrays": [the
member paths], "state": {path: JSON leaf}}``.  They are written to a
temporary file in the target directory and atomically renamed into
place (``os.replace``), so a crash mid-save can never leave a torn
checkpoint behind; one that is damaged afterwards fails to load with a
:class:`CheckpointError`, and so does a file of any other format.
"""

from __future__ import annotations

import json
import os
import re
import zipfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from ..statetree import StateError, flatten, unflatten
from .config import TrainingConfig, identity_fields, knobs
from .metrics import History

__all__ = [
    "CheckpointError",
    "CheckpointPolicy",
    "TrainingCheckpoint",
    "checkpoint_steps",
    "latest_checkpoint",
    "save_checkpoint",
]

#: checkpoint file-format version
FORMAT_VERSION = 2


class CheckpointError(ValueError):
    """A checkpoint file cannot be read, or does not fit the trainer."""

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
    """One captured training state: the state tree and what frames it.

    Attributes:
        meta: ``{"version", "config", "extra"}`` — the format version,
            the JSON config record and the policy's opaque ``extra``.
        tree: the trainer's state tree.
    """

    def __init__(self, meta: dict, tree: dict):
        self.meta = meta
        self.tree = tree

    # -- convenient accessors ---------------------------------------------
    @property
    def step(self) -> int:
        """Global step index the resumed run continues from."""
        return int(self.tree["step_index"])

    @property
    def epoch(self) -> int:
        """Epoch the resumed run continues in (0-based)."""
        return int(self.tree["epoch"])

    @property
    def batches_done(self) -> int:
        """Batches of that epoch already trained (0 = epoch boundary)."""
        return int(self.tree["batches_done"])

    @property
    def config(self) -> TrainingConfig:
        return config_from_dict(self.meta["config"])

    @property
    def history(self) -> History:
        return History.from_dict(self.tree["history"])

    # -- capture / restore ------------------------------------------------
    @classmethod
    def capture(
        cls, trainer, extra: dict | None = None
    ) -> "TrainingCheckpoint":
        """Snapshot a :class:`~repro.core.trainer.ParallelTrainer`."""
        meta = {
            "version": FORMAT_VERSION,
            "config": config_to_dict(trainer.config),
            "extra": dict(extra) if extra else {},
        }
        return cls(meta, trainer.state_dict())

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
        try:
            trainer.load_state_dict(self.tree)
        except StateError as exc:
            raise CheckpointError(
                f"checkpoint does not fit this trainer: {exc}"
            ) from exc

    # -- disk -------------------------------------------------------------
    def save(self, path: str | os.PathLike) -> Path:
        """Write atomically: temp file in the target dir, then rename."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        flat = flatten(self.tree)
        arrays = {
            key: leaf for key, leaf in flat.items()
            if isinstance(leaf, np.ndarray)
        }
        meta = {
            **self.meta,
            "arrays": sorted(arrays),
            "state": {k: v for k, v in flat.items() if k not in arrays},
        }
        blob = json.dumps(meta, separators=(",", ":")).encode()
        tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
        try:
            with open(tmp, "wb") as handle:
                np.savez(
                    handle,
                    __meta__=np.frombuffer(blob, dtype=np.uint8),
                    **arrays,
                )
            os.replace(tmp, path)
        finally:
            if tmp.exists():  # pragma: no cover - only on failed save
                tmp.unlink()
        return path

    @classmethod
    def load(cls, path: str | os.PathLike) -> "TrainingCheckpoint":
        """Read a checkpoint; an unreadable one is a :class:`CheckpointError`."""
        try:
            with np.load(Path(path), allow_pickle=False) as archive:
                arrays = {key: archive[key] for key in archive.files}
            meta = json.loads(arrays.pop("__meta__").tobytes())
            version = meta["version"]
            frame = {
                "version": FORMAT_VERSION,
                "config": meta["config"],
                "extra": meta["extra"],
            }
        except (OSError, EOFError, KeyError, TypeError, ValueError,
                zipfile.BadZipFile) as exc:
            raise CheckpointError(
                f"{path}: not a readable checkpoint ({exc!r})"
            ) from exc
        if version != FORMAT_VERSION:
            raise CheckpointError(
                f"{path}: unsupported checkpoint version {version} "
                f"(expected {FORMAT_VERSION})"
            )
        missing = sorted(set(meta["arrays"]) - set(arrays))
        if missing:
            raise CheckpointError(
                f"{path}: archive lacks {missing[0]!r}, which its "
                "metadata lists"
            )
        return cls(frame, unflatten({**meta["state"], **arrays}))


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


def save_checkpoint(trainer, policy: CheckpointPolicy) -> Path:
    """Capture, write ``ckpt-<step>.npz`` under the policy dir, prune."""
    ckpt = TrainingCheckpoint.capture(trainer, extra=policy.extra)
    directory = Path(policy.directory)
    path = ckpt.save(directory / f"ckpt-{ckpt.step:08d}.npz")
    if policy.keep is not None:
        for _, stale in checkpoint_steps(directory)[: -policy.keep]:
            stale.unlink()
    return path
