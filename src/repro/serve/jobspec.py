"""What one training job runs: a :class:`RunSpec` plus job-only knobs.

A :class:`JobSpec` is the unit of submission — the flat JSON body of
``POST /jobs`` parses into one.  Its keys are the knobs the ``serve``
surface exposes (see README's knob table): the run's model, dataset and
schedule, the :class:`~repro.core.TrainingConfig` cell, and the two
job-only knobs below.  Parsing builds the config, so a body naming an
unknown field, scheme, exchange, engine, policy or sync mode — or an
impossible cell such as ``batch_size < world_size`` — is a
``ValueError`` listing the choices (a 400) at submission, never a
stored job that fails in its runner.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..core.config import knob
from ..core.runspec import RunSpec

__all__ = ["JobSpec"]


@dataclass(frozen=True)
class JobSpec(RunSpec):
    """One submittable training job.

    ``world_size`` (a property of the run's config) is the ranks the
    job occupies in the daemon's pool — the admission-control currency.
    """

    trace: bool = knob(
        False,
        "record a telemetry trace and export a per-job Chrome trace "
        "next to the metrics stream",
        surfaces=("serve",),
    )
    timeout_s: float | None = knob(
        None,
        "wall-clock budget per attempt; the daemon evicts the job when "
        "exceeded (None = unbounded)",
        above=0, surfaces=("serve",),
    )

    def to_dict(self) -> dict:
        """The flat record :meth:`from_dict` parses back."""
        flat = {**vars(self.config), **vars(self)}
        return {f.name: flat[f.name] for f in self.all_knobs("serve")}

    @classmethod
    def from_dict(cls, record: dict) -> "JobSpec":
        """Parse a submitted spec, rejecting unknown fields by name."""
        if not isinstance(record, dict):
            raise ValueError(
                f"spec must be a JSON object, got {type(record).__name__}"
            )
        known = sorted(f.name for f in cls.all_knobs("serve"))
        unknown = sorted(set(record) - set(known))
        if unknown:
            raise ValueError(
                f"unknown spec fields: {', '.join(unknown)}; expected a "
                f"subset of {known}"
            )
        return cls.from_flat(record, "serve")
