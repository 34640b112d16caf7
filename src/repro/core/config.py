"""Run configuration for data-parallel training experiments."""

from __future__ import annotations

from dataclasses import dataclass, field

from ..comm import EXCHANGE_NAMES
from ..quantization import SCHEME_NAMES
from ..runtime.engine import ENGINE_NAMES

__all__ = [
    "TrainingConfig",
    "ENGINE_NAMES",
    "IPC_NAMES",
    "POLICY_NAMES",
    "SYNC_MODE_NAMES",
]

#: gradient transports of the process engine
IPC_NAMES = ("shm",)

#: codec-routing policies: "static" routes every gradient through the
#: configured scheme (plus the small-matrix passthrough); "adaptive"
#: derives a per-layer scheme assignment from layer sizes and kinds
#: (high precision for sensitive conv/norm layers, ternary for fat fc
#: matrices) — deterministic and checkpoint-carried, so resumed runs
#: stay bit-identical
POLICY_NAMES = ("static", "adaptive")

#: periodic-synchronization variants: "allreduce" accumulates local
#: gradients and exchanges the sum once per round; "local_sgd" takes
#: local optimizer steps and averages parameters once per round
SYNC_MODE_NAMES = ("allreduce", "local_sgd")


@dataclass
class TrainingConfig:
    """Everything that identifies one cell of the paper's study grid.

    Attributes:
        scheme: quantizer name ("32bit", "1bit", "1bit*", "qsgd2"...).
        bucket_size: bucket size override; ``None`` uses the scheme's
            paper-tuned default.
        exchange: collective pattern ("mpi", "nccl", "alltoall").
        world_size: number of simulated GPUs.
        batch_size: *global* minibatch size, split across ranks.
        lr: learning rate (kept fixed across world sizes, as the paper
            tunes it once for full precision and reuses it).
        lr_decay: per-epoch multiplicative decay (1.0 = constant).
        momentum: SGD momentum.
        seed: seed for quantization randomness and shuffling.
        requantize_broadcast: whether the MPI path re-quantizes
            aggregated ranges before broadcast (CNTK behaviour).
        workspace: reuse cached encode/decode scratch buffers across
            steps (the zero-allocation hot path, with fused decode-
            accumulate in the exchanges).  Bit-identical to the
            allocating path; exists as a switch so benchmarks can
            compare the two.
        passthrough_coverage: fraction of parameters that must stay
            quantized when choosing the small-matrix threshold.
        norm / variant: QSGD scaling and level-layout options.
        engine: execution engine ("sequential" rank loop, "threaded"
            worker-per-rank, or "process" OS-process-per-rank;
            bit-identical trajectories).
        ipc: gradient transport of the process engine; "shm" (the only
            implementation) exchanges through a zero-copy
            ``multiprocessing.shared_memory`` arena.  Ignored by the
            in-process engines.
        comm_bucket_bytes: coalescing cap for the runtime's gradient
            buckets (distinct from the quantizer's ``bucket_size``,
            which is an element-count wire-format knob).
        barrier_timeout: seconds before a missing rank at a step
            barrier / bucket rendezvous is declared failed.
        link_gbps: when set, each rank's encoded gradient upload
            occupies a per-rank FIFO link of this rate in wall-clock
            time (the bandwidth term of a ring allreduce).  A rank
            reserves its link the moment backward finishes a bucket
            and keeps computing; the bucket's collective waits for the
            bytes to arrive, so on the threaded and process engines
            wire time hides behind the rank's own backward and a step
            costs t_f + max(t_b, first-bucket latency + t_wire) + tail.
            The sequential engine pays every rank's wire time
            serially.  Wall-clock only — never affects the numerics.
        straggler_ranks / straggler_delay: inject a fixed delay (s)
            at the top of these ranks' compute phase every step.
        crash_rank / crash_step: the given rank crashes at the given
            global step (``crash_step=None`` crashes every step).
        crash_transient: the injected crash fires only on the first
            attempt of its step, so a retried step succeeds (models a
            recoverable glitch); ``False`` re-fires every attempt.
        kill_points: ``(rank, step)`` pairs at which the worker is
            killed outright.  Under the process engine the rank
            SIGKILLs itself mid-step — a real process death, not an
            exception; the in-process engines degrade each point to an
            injected crash so a grid cell keeps one meaning
            everywhere.  Kills fire once (a retried or respawned
            attempt proceeds), so they are always recoverable with
            ``max_retries >= 1``.
        max_retries: re-attempts allowed per failed step (crash or
            missed bucket rendezvous) before the failure escalates;
            0 (the default) preserves the historical fail-fast
            behaviour.
        retry_backoff / retry_backoff_max / retry_jitter: exponential
            backoff schedule between attempts — base delay in seconds
            (doubling per retry), its ceiling, and the fraction added
            as deterministic jitter.
        allow_degraded: when a rank exhausts its retries, evict it and
            continue on the survivors — the global batch is resharded
            across live ranks and the gradient mean is reweighted by
            live shard sizes.  The eviction is recorded as a
            :class:`~repro.runtime.resilience.TopologyChange` on the
            run's ``History``.
        min_world_size: smallest live world degradation may shrink to;
            a failure that would drop below it aborts the run instead.
        tracer: a :class:`repro.telemetry.Tracer` to record per-rank
            phase spans and typed counters on the live training path;
            ``None`` (the default) uses the shared no-op
            :data:`~repro.telemetry.NULL_TRACER`.  Tracing is
            observation-only: traced and untraced runs are
            bit-identical.
    """

    scheme: str = "32bit"
    bucket_size: int | None = None
    exchange: str = "mpi"
    world_size: int = 1
    batch_size: int = 32
    lr: float = 0.05
    lr_decay: float = 1.0
    momentum: float = 0.9
    weight_decay: float = 0.0
    seed: int = 0
    requantize_broadcast: bool = True
    workspace: bool = True
    passthrough_coverage: float = 0.99
    norm: str = "inf"
    variant: str = "sign"
    #: codec routing: "static" (one scheme for everything above the
    #: passthrough threshold) or "adaptive" (per-layer bit-widths from
    #: the layer-sensitivity ranking; ``scheme`` becomes the middle
    #: tier of the ladder).  See :data:`POLICY_NAMES`.
    policy: str = "static"
    #: restrict quantization to these parameter kinds (e.g. ("conv",)
    #: or ("fc", "rnn")); ``None`` quantizes every kind — the paper's
    #: Section 5.1 "Impact of Layer Types" analysis toggles this
    quantize_kinds: tuple[str, ...] | None = None
    # periodic synchronization: exchange once every N micro-steps
    #: micro-steps per synchronization round (N >= 1).  N=1 is the
    #: classic fully-synchronous path and stays bit-identical to it;
    #: N>1 accumulates local gradients (sync_mode "allreduce") or takes
    #: local optimizer steps (sync_mode "local_sgd") and runs the
    #: quantized exchange once per round, cutting wire traffic ~N-fold.
    aggregation_frequency: int = 1
    #: what a synchronization round exchanges: "allreduce" ships the
    #: accumulated gradient sum through the quantized collective and
    #: applies the mean over ranks x micro-steps; "local_sgd" lets each
    #: rank step its own replica every micro-step and averages the
    #: parameter deltas (quantized, error-fed-back) once per round.
    #: local_sgd requires momentum=0.0 — per-rank momentum on diverged
    #: replicas has no synchronous-SGD equivalent.
    sync_mode: str = "allreduce"
    # runtime execution (see repro.runtime)
    engine: str = "sequential"
    ipc: str = "shm"
    comm_bucket_bytes: int = 1 << 16
    barrier_timeout: float = 30.0
    link_gbps: float | None = None
    straggler_ranks: tuple[int, ...] = ()
    straggler_delay: float = 0.0
    crash_rank: int | None = None
    crash_step: int | None = None
    crash_transient: bool = False
    kill_points: tuple[tuple[int, int], ...] = ()
    # resilience (see repro.runtime.resilience)
    max_retries: int = 0
    retry_backoff: float = 0.05
    retry_backoff_max: float = 2.0
    retry_jitter: float = 0.1
    allow_degraded: bool = False
    min_world_size: int = 1
    # live-path telemetry (see repro.telemetry); excluded from equality
    # and repr so configs stay comparable cell labels
    tracer: object | None = field(default=None, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.scheme not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme!r}; expected one of "
                f"{SCHEME_NAMES}"
            )
        if self.policy not in POLICY_NAMES:
            raise ValueError(
                f"unknown policy {self.policy!r}; expected one of "
                f"{POLICY_NAMES}"
            )
        if self.exchange not in EXCHANGE_NAMES:
            raise ValueError(
                f"unknown exchange {self.exchange!r}; expected one of "
                f"{EXCHANGE_NAMES}"
            )
        if self.world_size < 1:
            raise ValueError(
                f"world_size must be >= 1, got {self.world_size}"
            )
        if self.batch_size < self.world_size:
            raise ValueError(
                "global batch_size must be >= world_size "
                f"({self.batch_size} < {self.world_size})"
            )
        if self.aggregation_frequency < 1:
            raise ValueError(
                f"aggregation_frequency must be >= 1, got "
                f"{self.aggregation_frequency}"
            )
        if self.sync_mode not in SYNC_MODE_NAMES:
            raise ValueError(
                f"unknown sync_mode {self.sync_mode!r}; expected one of "
                f"{SYNC_MODE_NAMES}"
            )
        if self.sync_mode == "local_sgd" and self.momentum != 0.0:
            raise ValueError(
                f"sync_mode 'local_sgd' requires momentum=0.0, got "
                f"momentum={self.momentum}; per-rank momentum on diverged "
                "replicas has no synchronous-SGD equivalent"
            )
        if self.engine not in ENGINE_NAMES:
            raise ValueError(
                f"unknown engine {self.engine!r}; expected one of "
                f"{ENGINE_NAMES}"
            )
        if self.ipc not in IPC_NAMES:
            raise ValueError(
                f"unknown ipc {self.ipc!r}; expected one of {IPC_NAMES}"
            )
        if self.comm_bucket_bytes < 1:
            raise ValueError(
                f"comm_bucket_bytes must be >= 1, got "
                f"{self.comm_bucket_bytes}"
            )
        if self.barrier_timeout <= 0:
            raise ValueError(
                f"barrier_timeout must be > 0, got {self.barrier_timeout}"
            )
        if self.link_gbps is not None and self.link_gbps <= 0:
            raise ValueError(
                f"link_gbps must be > 0, got {self.link_gbps}"
            )
        if self.straggler_delay < 0:
            raise ValueError(
                f"straggler_delay must be >= 0, got {self.straggler_delay}"
            )
        for rank in self.straggler_ranks:
            if not 0 <= rank < self.world_size:
                raise ValueError(
                    f"straggler rank {rank} outside world of "
                    f"{self.world_size}"
                )
        if self.crash_rank is not None and not (
            0 <= self.crash_rank < self.world_size
        ):
            raise ValueError(
                f"crash_rank {self.crash_rank} outside world of "
                f"{self.world_size}"
            )
        for point in self.kill_points:
            if len(point) != 2:
                raise ValueError(
                    f"kill point {point!r} must be a (rank, step) pair"
                )
            rank, step = point
            if not 0 <= rank < self.world_size:
                raise ValueError(
                    f"kill point rank {rank} outside world of "
                    f"{self.world_size}"
                )
            if step < 0:
                raise ValueError(
                    f"kill point step must be >= 0, got {step}"
                )
        if self.max_retries < 0:
            raise ValueError(
                f"max_retries must be >= 0, got {self.max_retries}"
            )
        if self.retry_backoff < 0:
            raise ValueError(
                f"retry_backoff must be >= 0, got {self.retry_backoff}"
            )
        if self.retry_backoff_max < self.retry_backoff:
            raise ValueError(
                f"retry_backoff_max ({self.retry_backoff_max}) must be >= "
                f"retry_backoff ({self.retry_backoff})"
            )
        if self.retry_jitter < 0:
            raise ValueError(
                f"retry_jitter must be >= 0, got {self.retry_jitter}"
            )
        if not 1 <= self.min_world_size <= self.world_size:
            raise ValueError(
                f"min_world_size must be in [1, {self.world_size}], got "
                f"{self.min_world_size}"
            )

    @property
    def label(self) -> str:
        """Short human-readable cell label, e.g. 'qsgd4/mpi/8gpu'."""
        return f"{self.scheme}/{self.exchange}/{self.world_size}gpu"
