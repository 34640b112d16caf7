"""Deterministic straggler and crash injection for the runtime engines.

Synchronous training's Achilles heel is that one slow or dead rank
stalls the whole step.  The fault plan lets experiments inject exactly
that, deterministically: a fixed per-step delay on chosen ranks
(straggler), a hard crash of one rank at one global step, or
fire-once kill points — under the process engine a kill point is a
real ``SIGKILL`` of the worker process; the in-process engines degrade
it to an :class:`InjectedCrash` so one grid cell means the same thing
on every engine.  The engines detect all of these through
barrier/bucket timeouts or process sentinels and surface a structured
:class:`WorkerFailure` instead of hanging.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

__all__ = [
    "FaultPlan",
    "InjectedCrash",
    "WorkerFailure",
    "WorkerFailureError",
]


class InjectedCrash(RuntimeError):
    """Raised inside a rank worker when the fault plan kills it."""


@dataclass(frozen=True)
class WorkerFailure:
    """Structured record of one rank failing a synchronous step.

    Attributes:
        rank: the rank the engine blames (for a pure timeout with
            several missing ranks, the lowest missing one).
        step: global step index at which the failure was detected.
        kind: "crash" (the rank died), "timeout" (the rank missed the
            barrier deadline), or "error" (the rank raised).
        message: human-readable diagnosis.
    """

    rank: int
    step: int
    kind: str
    message: str

    def to_dict(self) -> dict:
        return {
            "rank": self.rank,
            "step": self.step,
            "kind": self.kind,
            "message": self.message,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "WorkerFailure":
        return cls(**record)


class WorkerFailureError(RuntimeError):
    """A synchronous step could not complete; carries the diagnosis."""

    def __init__(self, failure: WorkerFailure):
        self.failure = failure
        super().__init__(
            f"rank {failure.rank} {failure.kind} at step {failure.step}: "
            f"{failure.message}"
        )


@dataclass(frozen=True)
class FaultPlan:
    """Deterministic fault schedule shared by every execution engine.

    Attributes:
        straggler_ranks: ranks delayed by ``straggler_delay`` seconds
            at the start of every step's compute phase.
        straggler_delay: injected delay in seconds (0 disables).
        crash_rank / crash_step: the given rank raises
            :class:`InjectedCrash` at the given global step; ``None``
            disables crash injection.
        crash_transient: a transient crash fires only on the *first*
            execution of its (rank, step) — a retried attempt of the
            same step succeeds, modelling a recoverable glitch.  A
            persistent crash (the default) re-fires on every attempt,
            so only eviction or abort resolves it.
        kill_points: fire-once ``(rank, step)`` worker kills.  The
            in-process engines degrade each point to a transient
            :class:`InjectedCrash` via :meth:`inject`; the process
            engine handles kills itself (a real ``SIGKILL``) and hands
            its workers a plan with the points stripped.
    """

    straggler_ranks: tuple[int, ...] = ()
    straggler_delay: float = 0.0
    crash_rank: int | None = None
    crash_step: int | None = None
    crash_transient: bool = False
    kill_points: tuple[tuple[int, int], ...] = ()

    def __post_init__(self) -> None:
        # frozen dataclass: the fired-set is bookkeeping, not identity
        object.__setattr__(self, "_fired", set())

    @classmethod
    def from_config(cls, config) -> "FaultPlan":
        """Extract the fault schedule from a ``TrainingConfig``."""
        return cls(
            straggler_ranks=tuple(config.straggler_ranks),
            straggler_delay=config.straggler_delay,
            crash_rank=config.crash_rank,
            crash_step=config.crash_step,
            crash_transient=getattr(config, "crash_transient", False),
            kill_points=tuple(
                (int(rank), int(step))
                for rank, step in getattr(config, "kill_points", ())
            ),
        )

    @property
    def active(self) -> bool:
        return bool(
            (self.straggler_ranks and self.straggler_delay > 0.0)
            or self.crash_rank is not None
            or self.kill_points
        )

    def delay_for(self, rank: int, step: int) -> float:
        """Seconds of injected straggler delay for this rank and step."""
        del step  # stragglers are persistent, not step-targeted
        if rank in self.straggler_ranks:
            return self.straggler_delay
        return 0.0

    def should_crash(self, rank: int, step: int) -> bool:
        if (
            self.crash_rank is None
            or rank != self.crash_rank
            or (self.crash_step is not None and step != self.crash_step)
        ):
            return False
        if self.crash_transient:
            if (rank, step) in self._fired:
                return False
            self._fired.add((rank, step))
        return True

    def should_kill(self, rank: int, step: int) -> bool:
        """Whether this rank's kill point fires now (at most once)."""
        if (rank, step) not in self.kill_points:
            return False
        if ("kill", rank, step) in self._fired:
            return False
        self._fired.add(("kill", rank, step))
        return True

    def inject(self, rank: int, step: int, counters=None) -> None:
        """Apply the plan at the top of one rank's compute phase.

        When a telemetry ``counters`` sink is provided, injected
        straggler delay is accounted as stall time (the engines pass
        their tracer's sink so traced runs attribute the stall).
        """
        delay = self.delay_for(rank, step)
        if delay > 0.0:
            time.sleep(delay)
            if counters is not None:
                counters.add_straggler_stall(delay)
        if self.should_kill(rank, step):
            # in-process degradation of a kill point: no real process
            # to kill, so it surfaces as a one-shot crash
            raise InjectedCrash(
                f"injected kill of rank {rank} at step {step}"
            )
        if self.should_crash(rank, step):
            raise InjectedCrash(
                f"injected crash of rank {rank} at step {step}"
            )
