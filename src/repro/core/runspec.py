"""One run spec: what a run trains, and the one way to run it.

A :class:`RunSpec` is a zoo model + synthetic dataset + schedule around
a :class:`TrainingConfig` cell.  ``repro train`` and ``repro trace``
fill one from flags (:meth:`RunSpec.from_flat`), ``repro resume`` from a
checkpoint (:meth:`RunSpec.from_checkpoint`), the serve runner from the
job record; all of them train through :meth:`RunSpec.run`.  Its own
knobs are declared like the config's
(:func:`~repro.core.config.knob`), so the flat surfaces — argparse
flags (:func:`add_run_arguments`), the ``POST /jobs`` body, README's
knob table (``tools/knob_table.py``) — are derived from the two
dataclasses and differ only by :data:`SURFACE_DEFAULTS`.
"""

from __future__ import annotations

import argparse
import os
from dataclasses import dataclass, replace
from typing import Mapping

from ..data import make_image_dataset, make_sequence_dataset
from ..models import MODEL_BUILDERS, build_model
from .checkpoint import CheckpointPolicy, TrainingCheckpoint
from .config import SURFACES, TrainingConfig, check_knobs, knob, knobs
from .metrics import History
from .trainer import ParallelTrainer

__all__ = [
    "RunSpec",
    "SURFACE_DEFAULTS",
    "add_run_arguments",
    "argparse_type",
    "flag_of",
]

#: where a surface's default differs from the field's own
SURFACE_DEFAULTS = {
    "train": {"world_size": 2, "lr": 0.01},
    "trace": {
        "scheme": "qsgd4", "world_size": 4, "lr": 0.01, "epochs": 1,
        "train_samples": 128, "test_samples": 64,
    },
    "serve": {
        "world_size": 2, "lr": 0.01, "epochs": 2, "train_samples": 64,
        "test_samples": 32, "checkpoint_every_steps": 1,
    },
}

#: where a surface spells a knob's flag differently
_SURFACE_FLAGS = {"trace": {"world_size": "--gpus"}}

#: argparse ``type=`` of a scalar knob, by its annotation
_PARSERS = {"int": int, "float": float, "str": str}


@dataclass(frozen=True)
class RunSpec:
    """One trainable run; every field but ``config`` is a knob."""

    config: TrainingConfig
    model: str = knob(
        "alexnet", "zoo model to train",
        choices=tuple(sorted(MODEL_BUILDERS)), surfaces=SURFACES,
    )
    epochs: int = knob(
        5, "total epochs to train (a resumed run continues to the same "
        "total)",
        min=1, surfaces=SURFACES,
    )
    model_seed: int = knob(
        1, "seed of the model's initial weights", surfaces=SURFACES
    )
    classes: int = knob(
        4, "classes of the synthetic dataset", min=1, surfaces=SURFACES
    )
    image_size: int = knob(
        8, "side of the synthetic images (alexnet/vgg input size)",
        min=1, surfaces=SURFACES,
    )
    train_samples: int = knob(
        256, "synthetic training samples", min=1, surfaces=SURFACES
    )
    test_samples: int = knob(
        128, "synthetic test samples", min=0, surfaces=SURFACES
    )
    checkpoint_every_steps: int | None = knob(
        None,
        "also checkpoint every N global steps (mid-epoch); 1 makes the "
        "run resumable from any kill point",
        min=1, surfaces=("train", "serve"),
    )
    checkpoint_every_epochs: int | None = knob(
        1, "checkpoint at the end of every N epochs",
        min=1, surfaces=("train",),
    )

    def __post_init__(self) -> None:
        check_knobs(self)

    # -- flat surfaces ----------------------------------------------------
    @classmethod
    def from_flat(
        cls, values: Mapping, surface: str, tracer=None
    ) -> "RunSpec":
        """Build from a flat name -> value mapping (parsed flags, a JSON
        body); names it lacks take the surface's default, names the
        surface does not expose are ignored."""
        values = {**SURFACE_DEFAULTS[surface], **values}

        def pick(owner) -> dict:
            return {
                f.name: values[f.name]
                for f in knobs(owner, surface) if f.name in values
            }

        config = TrainingConfig(tracer=tracer, **pick(TrainingConfig))
        return cls(config=config, **pick(cls))

    @classmethod
    def from_checkpoint(
        cls,
        ckpt: TrainingCheckpoint,
        keep_faults: bool = False,
        engine: str | None = None,
        epochs: int | None = None,
    ) -> "RunSpec":
        """The run a checkpoint continues: its config plus the spec
        knobs :meth:`checkpoint_policy` recorded in ``extra``.

        ``engine`` may differ from the original's (all engines are
        bit-identical) and ``epochs`` may extend the run.
        """
        extra = ckpt.meta.get("extra", {})
        if "model" not in extra:
            raise ValueError(
                "checkpoint has no model/dataset metadata (was it "
                "written by `repro train`?)"
            )
        config = ckpt.config
        if not keep_faults:
            # the fault that killed the original run is not re-injected
            # — resuming past it is the whole point
            config = replace(
                config, crash_rank=None, crash_step=None,
                straggler_ranks=(), straggler_delay=0.0, kill_points=(),
            )
        if engine is not None:
            config = replace(config, engine=engine)
        own = {f.name: extra[f.name] for f in knobs(cls) if f.name in extra}
        if epochs is not None:
            own["epochs"] = epochs
        return cls(config=config, **own)

    @classmethod
    def all_knobs(cls, surface: str | None = None) -> list:
        """Every knob of a run: the spec's own, then the config's."""
        return knobs(cls, surface) + knobs(TrainingConfig, surface)

    @property
    def world_size(self) -> int:
        return self.config.world_size

    # -- materialization --------------------------------------------------
    def build_model(self):
        """Fresh model replica, seeded by ``model_seed``."""
        kwargs = {"num_classes": self.classes, "seed": self.model_seed}
        if self.model in ("alexnet", "vgg"):
            kwargs["image_size"] = self.image_size
        return build_model(self.model, **kwargs)

    def build_dataset(self):
        """The run's synthetic dataset (seeded by the config seed)."""
        kwargs = {
            "num_classes": self.classes,
            "train_samples": self.train_samples,
            "test_samples": self.test_samples,
            "seed": self.config.seed,
        }
        if self.model == "lstm":
            return make_sequence_dataset(**kwargs)
        return make_image_dataset(image_size=self.image_size, **kwargs)

    def checkpoint_policy(
        self,
        directory: str | os.PathLike,
        keep: int | None = 3,
        extra: dict | None = None,
    ) -> CheckpointPolicy:
        """This run's checkpoint cadence into ``directory``.

        Every checkpoint's ``extra`` records the spec's own knobs, so
        ``repro resume`` needs nothing but the checkpoint file (the
        config travels in the checkpoint itself).
        """
        own = {f.name: getattr(self, f.name) for f in knobs(RunSpec)}
        return CheckpointPolicy(
            directory=directory,
            every_steps=self.checkpoint_every_steps,
            every_epochs=self.checkpoint_every_epochs,
            keep=keep,
            extra={**own, **(extra or {})},
        )

    def run(self, **fit_kwargs) -> History:
        """Build model and dataset and train to ``epochs``.

        ``fit_kwargs`` go to :meth:`ParallelTrainer.fit` (``checkpoint``,
        ``resume_from``, ``verbose``, ``on_epoch``, ``should_stop``).
        """
        ds = self.build_dataset()
        with ParallelTrainer(self.build_model(), self.config) as trainer:
            return trainer.fit(
                ds.train_x, ds.train_y, ds.test_x, ds.test_y,
                epochs=self.epochs, **fit_kwargs,
            )


def flag_of(f, surface: str) -> str:
    """The option string of knob field ``f`` on a CLI ``surface``."""
    default = f.metadata["cli"].get("flag", "--" + f.name.replace("_", "-"))
    return _SURFACE_FLAGS.get(surface, {}).get(f.name, default)


def argparse_type(parse):
    """``parse`` as an argparse ``type=`` whose ValueError text is shown."""

    def convert(value: str):
        try:
            return parse(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def add_run_arguments(parser: argparse.ArgumentParser, surface: str) -> None:
    """One flag per knob ``surface`` exposes, derived from the metadata."""
    for f in RunSpec.all_knobs(surface):
        meta = f.metadata
        default = SURFACE_DEFAULTS[surface].get(f.name, f.default)
        if isinstance(default, tuple):
            # argparse's append action calls .append on (a copy of) it
            default = list(default)
        kwargs = {
            "dest": f.name,
            "default": default,
            "help": meta["help"],
            **meta["cli"],
        }
        kwargs.pop("flag", None)
        if f.type == "bool":
            kwargs["action"] = "store_true"
        else:
            parse = meta["check"] or kwargs.get("type")
            kwargs["type"] = (
                argparse_type(parse) if parse
                else _PARSERS[f.type.removesuffix(" | None")]
            )
            kwargs["choices"] = meta["choices"]
        parser.add_argument(flag_of(f, surface), **kwargs)
