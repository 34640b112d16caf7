"""Elastic fault tolerance for the execution engines.

Synchronous data-parallel SGD stalls (or, before this module, aborted)
the moment one rank crashes or misses a barrier.  Real DDP stacks
layer three defenses on top of the synchronous step, and this module
provides the policy objects for all three:

* **retry with backoff** — a failed step is re-attempted from a clean
  snapshot of the collective state (quantization RNG, error-feedback
  residuals) with exponential backoff plus deterministic jitter, up to
  :attr:`RetryPolicy.max_retries` attempts per step;
* **graceful degradation** — a rank that exhausts its retries is
  evicted: the engine reshards the global batch across the survivors
  and reweights the gradient mean by live shard sizes, recording a
  :class:`TopologyChange` that surfaces in the run's ``History``;
* **checkpoint/resume** — handled by :mod:`repro.core.checkpoint`,
  which persists everything a bit-identical continuation needs.

Retries are only attempted for failures detected *before* any rank
applied the step's update (crashes during compute, missed bucket
rendezvous): those leave every replica at the pre-step state, so a
re-attempt from the restored snapshot is equivalent to the step never
having been tried.  A timeout at the *end-of-step* barrier means the
survivors already committed the update; such a step can only be
resolved by evicting the missing rank (the survivors' state is valid
and identical), never by a retry.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .faults import WorkerFailure

__all__ = [
    "AttemptFailure",
    "RetryPolicy",
    "RetryState",
    "TopologyChange",
]


class AttemptFailure(Exception):
    """One attempt of one synchronous step failed.

    Internal control flow between an engine's step attempt and its
    recovery loop; never escapes ``train_step`` (the loop converts an
    unrecoverable one into a ``WorkerFailureError``).

    Attributes:
        failure: the structured diagnosis of the attempt.
        committed: whether the surviving ranks already applied the
            step's update (a rank lost after the verdict); the step
            counts as done for them, so recovery must not rewind.
            Otherwise no rank applied anything, and re-running the
            step from the pre-step snapshot is sound.
    """

    def __init__(self, failure: WorkerFailure, committed: bool = False):
        self.failure = failure
        self.committed = committed
        super().__init__(str(failure))


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential backoff schedule for re-attempting a failed step.

    Attributes:
        max_retries: re-attempts allowed per step before the failure
            escalates (to eviction when degradation is allowed,
            otherwise to run abort).  0 disables retries entirely —
            the engines then behave exactly as before this module.
        base_delay: backoff before the first retry, in seconds;
            doubles every subsequent retry of the same step.
        max_delay: backoff ceiling in seconds.
        jitter: fraction of the backoff added as deterministic jitter
            (drawn from a dedicated RNG stream seeded by ``seed``), so
            concurrent experiments decorrelate without losing
            reproducibility.
        seed: seed of the jitter stream.
    """

    max_retries: int = 0
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    @classmethod
    def from_config(cls, config) -> "RetryPolicy":
        """Extract the retry schedule from a ``TrainingConfig``."""
        return cls(
            max_retries=config.max_retries,
            base_delay=config.retry_backoff,
            max_delay=config.retry_backoff_max,
            jitter=config.retry_jitter,
            seed=config.seed,
        )

    @property
    def enabled(self) -> bool:
        return self.max_retries > 0

    def make_state(self) -> "RetryState":
        """Fresh per-run backoff state (jitter stream at its origin)."""
        return RetryState(self)


class RetryState:
    """Per-run backoff bookkeeping: the deterministic jitter stream."""

    def __init__(self, policy: RetryPolicy):
        self.policy = policy
        self._rng = np.random.default_rng(
            np.random.SeedSequence([policy.seed, 0x5E711E])
        )
        #: total retries issued over the run (mirrored into telemetry)
        self.total_retries = 0

    def backoff_delay(self, attempt: int) -> float:
        """Seconds to back off before retry number ``attempt`` (0-based).

        ``base_delay * 2**attempt`` capped at ``max_delay``, stretched
        by up to ``jitter`` of itself.  The jitter draw advances the
        dedicated stream even when ``jitter`` is 0, so schedules with
        and without jitter stay aligned draw-for-draw.
        """
        delay = min(
            self.policy.max_delay,
            self.policy.base_delay * (2.0 ** attempt),
        )
        stretch = float(self._rng.random())
        return delay * (1.0 + self.policy.jitter * stretch)


@dataclass(frozen=True)
class TopologyChange:
    """One rank leaving the collective mid-run.

    Attributes:
        step: global step index at which the eviction took effect.
        rank: the evicted rank.
        kind: failure kind that forced the rank out: "crash" or
            "timeout" from the live engines' retry loop, "link" from
            the fabric simulator's partition-inducing link failures.
        survivors: live ranks after the eviction, ascending.
        retries: retry attempts spent on the failing step before the
            eviction.
    """

    step: int
    rank: int
    kind: str
    survivors: tuple[int, ...]
    retries: int = 0

    def to_dict(self) -> dict:
        return {
            "step": self.step,
            "rank": self.rank,
            "kind": self.kind,
            "survivors": list(self.survivors),
            "retries": self.retries,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "TopologyChange":
        return cls(
            step=record["step"],
            rank=record["rank"],
            kind=record["kind"],
            survivors=tuple(record["survivors"]),
            retries=record.get("retries", 0),
        )
