"""Execution engines: how the K simulated ranks actually run.

Three engines share one interface and — by construction — one numeric
trajectory:

* :class:`SequentialEngine` runs rank workers one after another on the
  calling thread (the seed repository's behaviour, extracted).
* :class:`ThreadedEngine` runs one thread per rank.  numpy/BLAS
  releases the GIL, so on multi-core hosts the per-rank
  forward/backward passes genuinely parallelize; on any host the
  bucketed exchange overlaps with the tail of backward.
* :class:`~repro.runtime.process_engine.ProcessEngine` runs one OS
  process per rank with a shared-memory gradient exchange, lifting the
  GIL ceiling for Python-level compute as well (defined in its own
  module; registered here by name).

A paced interconnect (``TrainingConfig.link_gbps``) models each rank
shipping its encoded gradient contribution over its own link — the
bandwidth term of a ring allreduce.  Each link is a FIFO resource on a
virtual clock (:class:`~repro.runtime.link.LinkClock`): when a
bucket's last gradient lands the rank *reserves* its link for the
bucket's bytes (queued behind its earlier buckets), announces the
bucket and goes straight back to backward; the collective for a bucket
runs only once every live rank's upload of it has arrived, the
coordinator sleeping out the remainder.  This is wait-free
backpropagation: wire time hides behind the rank's own backward and
behind the exchange of earlier buckets, and only the non-overlapped
tail reaches the step, whose floor is

    t_f + max(t_b, first-bucket latency + t_wire) + tail

(forward; backward against the time to the first ready bucket plus one
rank's whole wire time; the last bucket's exchange and the apply).
The sequential engine reserves a rank's whole payload after that
rank's compute and waits for it, so it pays every rank's wire time
serially — the no-overlap reference.  Wire time is wall-clock only and
never touches the numerics, so pacing cannot break engine parity.

Bit-identity between the engines holds for every scheme × exchange
combination because (1) each rank's compute is the same code on the
same replica with the same per-rank RNG stream, (2) the exchange is
invoked bucket-by-bucket in one fixed order with one shared
quantization RNG, and (3) every rank applies the same aggregated
gradient.  The runtime test-suite asserts this across the full matrix.

Both engines additionally run every step through a shared recovery
loop (see :mod:`repro.runtime.resilience`): a failed attempt is
retried from a snapshot of the collective state with exponential
backoff, and a rank that exhausts its retries can be evicted — the
engine reshards the batch over the survivors and reweights the
gradient mean by live shard sizes.  With the resilience knobs at
their defaults (``max_retries=0``, ``allow_degraded=False``) the loop
collapses to the historical fail-fast behaviour, byte for byte.
"""

from __future__ import annotations

import abc
import queue
import threading
import time
from typing import TYPE_CHECKING, Callable

import numpy as np

from ..data.loader import split_among_ranks
from ..nn.module import Module
from ..telemetry.tracer import COORDINATOR
from ..units import gbps_to_bytes_per_second
from .barrier import BarrierTimeout, StepBarrier
from .buckets import BucketReadiness, GradientBucket, build_buckets
from .faults import (
    FaultPlan,
    InjectedCrash,
    WorkerFailure,
    WorkerFailureError,
)
from .link import BucketUploads, LinkClock, sleep_until
from .resilience import AttemptFailure, RetryPolicy, TopologyChange
from .worker import LossFn, RankWorker, clone_module, reseed_module_rngs

if TYPE_CHECKING:  # pragma: no cover - typing only, avoids a cycle
    from ..core.config import TrainingConfig

__all__ = [
    "ENGINE_NAMES",
    "STEP_MUTABLE",
    "ExecutionEngine",
    "SequentialEngine",
    "ThreadedEngine",
    "make_engine",
]

ENGINE_NAMES = ("sequential", "threaded", "process")

#: the state-tree paths a step attempt can change before it commits:
#: the collective's own state (quantization RNG draws, residuals,
#: exchange state, accumulators) and each rank's forward-pass state
#: (module RNG streams, batchnorm running statistics).  Everything else
#: — parameters, momentum, the step index — only moves at commit.  A
#: failed attempt is rolled back by reloading a copy of exactly these.
STEP_MUTABLE = ("step/", "ranks/")


class ExecutionEngine(abc.ABC):
    """Owns the rank workers and drives one synchronous step at a time."""

    name: str = "engine"

    def __init__(self, model: Module, config: TrainingConfig, loss_fn: LossFn):
        # deferred: core.algorithm imports the comm/quantization stack,
        # which must not load as a side effect of importing the runtime
        from ..core.algorithm import SynchronousStep

        self.config = config
        self.world_size = config.world_size
        self.workers: list[RankWorker] = []
        for rank in range(config.world_size):
            replica = model if rank == 0 else clone_module(model)
            reseed_module_rngs(replica, config.seed, rank)
            self.workers.append(
                RankWorker(
                    rank,
                    replica,
                    loss_fn,
                    lr=config.lr,
                    momentum=config.momentum,
                    weight_decay=config.weight_decay,
                    label=config.label,
                )
            )
        self.step_engine = SynchronousStep(
            config, self.workers[0].parameters
        )
        # telemetry handle resolved by SynchronousStep (NULL_TRACER
        # when config.tracer is None); spans/counters below are no-ops
        # on the null path
        self.tracer = self.step_engine.tracer
        self.buckets: list[GradientBucket] = build_buckets(
            self.workers[0].parameters, config.comm_bucket_bytes
        )
        self.fault_plan = FaultPlan.from_config(config)
        self._step_index = 0
        # bytes/second of each rank's simulated link (None = free wire;
        # a single rank exchanges nothing, so pacing is moot)
        self._link_bytes_per_s = (
            None
            if config.link_gbps is None or config.world_size < 2
            else gbps_to_bytes_per_second(config.link_gbps)
        )
        # one rank's encoded upload per bucket, from the scheme's own
        # wire format (passthrough and layer selectivity included)
        params = self.workers[0].param_by_name
        self.bucket_tx_nbytes: dict[int, int] = {
            bucket.index: sum(
                self.step_engine.payload_nbytes(
                    name, params[name].data.shape
                )
                for name in bucket.names
            )
            for bucket in self.buckets
        }
        #: bytes one rank puts on the wire per step
        self.per_rank_payload_nbytes = sum(self.bucket_tx_nbytes.values())
        self._bucket_of_name = {
            name: bucket.index
            for bucket in self.buckets
            for name in bucket.names
        }
        # resilience: live topology, retry schedule, and eviction log
        self.live_ranks: list[int] = list(range(config.world_size))
        self.topology_events: list[TopologyChange] = []
        self.retry_policy = RetryPolicy.from_config(config)
        self._retry_state = self.retry_policy.make_state()

    # -- shared helpers ---------------------------------------------------
    def set_lr(self, lr: float) -> None:
        """Set the learning rate on every rank's optimizer."""
        for worker in self.workers:
            worker.optimizer.lr = lr

    @property
    def optimizer(self):
        """Rank 0's optimizer (replicas hold identical state)."""
        return self.workers[0].optimizer

    @property
    def reference_worker(self) -> RankWorker:
        """A live worker whose replica equals every other live replica.

        Rank 0's worker until rank 0 is evicted; evaluation and
        checkpointing must go through this instead of indexing
        ``workers[0]`` directly.
        """
        return self.workers[self.live_ranks[0]]

    def _shard(
        self, x: np.ndarray, y: np.ndarray
    ) -> dict[int, tuple[np.ndarray, np.ndarray]]:
        """Split the global batch across the live ranks, by rank id."""
        parts = split_among_ranks(x, y, len(self.live_ranks))
        return {rank: parts[i] for i, rank in enumerate(self.live_ranks)}

    def _grad_scales(
        self, shards: dict[int, tuple[np.ndarray, np.ndarray]]
    ) -> dict[int, float]:
        """Per-rank gradient reweighting for a degraded collective.

        The step engine divides the aggregated sum by the live world
        size, which is the exact global-batch mean only when shards are
        equal.  After an eviction the reshard may be uneven, so each
        rank's gradient is scaled by ``n_r * K_live / N`` before the
        exchange — the weighted sum over live ranks divided by
        ``K_live`` then equals ``sum(n_r * g_r) / N`` exactly.  Scales
        of exactly 1.0 are omitted (no multiply), so an even reshard
        stays bit-identical to a fresh run at the smaller world size.
        Full-topology runs return no scales at all, preserving the
        historical trajectory byte for byte.
        """
        if len(self.live_ranks) == self.world_size:
            return {}
        total = sum(shard_x.shape[0] for shard_x, _ in shards.values())
        if total == 0:
            return {}
        live = len(self.live_ranks)
        scales: dict[int, float] = {}
        for rank, (shard_x, _) in shards.items():
            scale = shard_x.shape[0] * live / total
            if scale != 1.0:
                scales[rank] = float(scale)
        return scales

    def _exchange_bucket(self, bucket: GradientBucket) -> dict[str, np.ndarray]:
        """Run the collective for one bucket; returns aggregated grads."""
        return self.step_engine.aggregate_bucket(
            list(bucket.names),
            {
                name: [
                    self.workers[rank].gradient(name)
                    for rank in self.live_ranks
                ]
                for name in bucket.names
            },
        )

    def _accumulate_bucket(self, bucket: GradientBucket) -> None:
        """Fold one bucket into the round sums (no exchange runs)."""
        self.step_engine.accumulate_bucket(
            list(bucket.names),
            {
                name: [
                    self.workers[rank].gradient(name)
                    for rank in self.live_ranks
                ]
                for name in bucket.names
            },
        )

    def _average_replicas(self) -> dict[str, np.ndarray]:
        """Average the diverged replicas at a local-SGD round flush.

        Walks the buckets in the same fixed order as a gradient
        exchange, so the quantization RNG stream stays engine-
        independent.
        """
        averaged: dict[str, np.ndarray] = {}
        for bucket in self.buckets:
            for name in bucket.names:
                averaged[name] = self.step_engine.average_parameter(
                    name,
                    [
                        self.workers[rank].param_by_name[name].data
                        for rank in self.live_ranks
                    ],
                )
        return averaged

    def _install_params(self, averaged: dict[str, np.ndarray]) -> None:
        """Overwrite every live replica with the averaged parameters."""
        for rank in self.live_ranks:
            for param in self.workers[rank].parameters:
                np.copyto(param.data, averaged[param.name])

    def _complete_round(self) -> None:
        """Account for and advance past one committed micro-step."""
        step_engine = self.step_engine
        if step_engine.frequency > 1 and not step_engine.sync_this_step:
            sink = self.tracer.counter_sink
            if sink is not None:
                sink.count_skipped_round(
                    len(self.live_ranks) * self.per_rank_payload_nbytes
                )
        step_engine.advance_round()

    def _open_link(self, rank: int) -> LinkClock:
        """A fresh link for one rank's uploads of one step attempt."""
        return LinkClock(self._link_bytes_per_s, self.tracer, rank)

    def _timed_wait(self, waiter, track: int):
        """Run one blocking rendezvous wait, traced as barrier time.

        The wall time a party spends blocked at a step barrier or
        bucket rendezvous is exactly the paper's synchronization cost;
        traced runs record it as a ``barrier`` span on ``track`` and
        fold it into the barrier-wait counter.  Untraced runs call the
        waiter directly.
        """
        counters = self.tracer.counter_sink
        if counters is None:
            return waiter()
        with self.tracer.span("barrier", track):
            start = time.perf_counter()
            try:
                return waiter()
            finally:
                counters.add_barrier_wait(time.perf_counter() - start)

    def _collect_metrics(self) -> tuple[float, float]:
        """Shard-size-weighted global loss and accuracy of the last step."""
        live = [self.workers[rank] for rank in self.live_ranks]
        total = sum(w.samples for w in live if w.loss is not None)
        if total == 0:
            return float("nan"), float("nan")
        loss = (
            sum(w.loss * w.samples for w in live if w.loss is not None)
            / total
        )
        acc = (
            sum(
                w.accuracy * w.samples
                for w in live
                if w.accuracy is not None
            )
            / total
        )
        return float(loss), float(acc)

    # -- step driving with recovery ---------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One global minibatch; returns (weighted loss, weighted acc)."""
        step = self._step_index
        self._step_index += 1
        return self._run_step_with_recovery(step, x, y)

    @property
    def _resilience_active(self) -> bool:
        return self.retry_policy.enabled or self.config.allow_degraded

    def _run_step_with_recovery(
        self, step: int, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        """Drive one step through retry / eviction recovery.

        With resilience off (the defaults) this is a single attempt
        whose :class:`AttemptFailure` converts straight into the
        historical ``WorkerFailureError`` — no snapshot is even taken,
        so the default path costs nothing.
        """
        attempts = 0
        while True:
            resilient = self._resilience_active
            # local SGD: capture the round base before the first
            # micro-step of a round moves any replica (idempotent on
            # retries — a rewound attempt re-captures identical values)
            self.step_engine.begin_round(self.reference_worker.parameters)
            snapshot = self.state_dict(STEP_MUTABLE) if resilient else None
            try:
                metrics = self._attempt_step(step, x, y)
            except AttemptFailure as attempt:
                failure = attempt.failure
                if not resilient:
                    self._latch_failure(failure)
                    raise WorkerFailureError(failure) from attempt
                if attempt.committed:
                    # the survivors already applied this step's update:
                    # their state is valid and identical, so never
                    # rewind — either evict the missing rank and count
                    # the step as done, or abort the run
                    self._recover_attempt(attempt)
                    if self._can_evict(failure):
                        self._evict_rank(failure, attempts)
                        self._complete_round()
                        return self._collect_metrics()
                    self._latch_failure(failure)
                    raise WorkerFailureError(failure) from attempt
                # drain/cleanup first (threaded workers may still be
                # inside the aborted attempt), then rewind
                self._recover_attempt(attempt)
                self.load_state_dict(snapshot)
                if attempt.retryable and attempts < self.retry_policy.max_retries:
                    delay = self._retry_state.backoff_delay(attempts)
                    attempts += 1
                    self._retry_state.total_retries += 1
                    sink = self.tracer.counter_sink
                    if sink is not None:
                        sink.count_retry(failure.rank)
                    if delay > 0:
                        time.sleep(delay)
                    continue
                if self._can_evict(failure):
                    self._evict_rank(failure, attempts)
                    attempts = 0
                    continue
                self._latch_failure(failure)
                raise WorkerFailureError(failure) from attempt
            else:
                self._complete_round()
                return metrics

    @abc.abstractmethod
    def _attempt_step(
        self, step: int, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        """One attempt of one step; raises :class:`AttemptFailure`."""

    def _recover_attempt(self, attempt: AttemptFailure) -> None:
        """Engine-specific cleanup between attempts (threads, barriers)."""

    def _latch_failure(self, failure: WorkerFailure) -> None:
        """Engine-specific terminal-failure bookkeeping."""

    def _on_evict(self, rank: int) -> None:
        """Engine-specific eviction cleanup (barriers, threads)."""

    def _can_evict(self, failure: WorkerFailure) -> bool:
        return (
            self.config.allow_degraded
            and failure.rank in self.live_ranks
            and len(self.live_ranks) - 1 >= self.config.min_world_size
        )

    def _shrink_world(self, rank: int) -> None:
        """Remove ``rank`` from the live topology and shrink the step."""
        if rank not in self.live_ranks:
            raise ValueError(f"rank {rank} is not live")
        self.live_ranks = [r for r in self.live_ranks if r != rank]
        self.step_engine = self.step_engine.shrink(
            self.live_ranks, self.workers[0].parameters
        )
        worker = self.workers[rank]
        worker.error = None
        worker.loss = None
        worker.accuracy = None
        worker.samples = 0
        self._on_evict(rank)

    def _evict_rank(self, failure: WorkerFailure, retries: int) -> None:
        """Evict ``failure.rank`` and record the topology change."""
        self._shrink_world(failure.rank)
        self.topology_events.append(
            TopologyChange(
                step=failure.step,
                rank=failure.rank,
                kind=failure.kind,
                survivors=tuple(self.live_ranks),
                retries=retries,
            )
        )
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_eviction(failure.rank)

    # -- state tree -------------------------------------------------------
    def state_dict(self, prefixes: tuple[str, ...] = ("",)) -> dict:
        """The run's numeric state as one tree (see :mod:`repro.statetree`).

        ``step_index`` and ``live_ranks``; ``params`` and ``velocity``
        once, from the reference replica (live replicas are equal —
        except mid-round under local SGD, when each rank's parameters
        go under its own ``ranks/<id>/params`` instead); ``step``, the
        collective's state; ``ranks/<rank id>``, what only that rank
        holds.  ``prefixes`` limits the copy to the top-level subtrees
        under them: the retry loop passes :data:`STEP_MUTABLE`.
        """
        step = self.step_engine
        reference = self.reference_worker
        diverged = step.local_updates and step.round_position != 0
        per_rank = RankWorker.RANK_STATE + (("params",) if diverged else ())
        build = {
            "step_index": lambda: self._step_index,
            "live_ranks": lambda: list(self.live_ranks),
            "params": lambda: reference.state_dict(("params",))["params"],
            "velocity": reference.optimizer.state_dict,
            "step": step.state_dict,
            "ranks": lambda: {
                str(rank): self.workers[rank].state_dict(per_rank)
                for rank in self.live_ranks
            },
        }
        if diverged:
            del build["params"]
        return {
            key: make()
            for key, make in build.items()
            if f"{key}/".startswith(prefixes)
        }

    def load_state_dict(self, state: dict) -> None:
        """Load whichever subtrees of :meth:`state_dict` ``state`` carries."""
        if "live_ranks" in state:
            self.restore_topology(state["live_ranks"])
        if "step_index" in state:
            self._step_index = int(state["step_index"])
        if "step" in state:
            self.step_engine.load_state_dict(state["step"])
        shared = {
            key: state[key] for key in RankWorker.SHARED_STATE if key in state
        }
        for rank in self.live_ranks:
            self.workers[rank].load_state_dict(
                {**shared, **state.get("ranks", {}).get(str(rank), {})}
            )
        if not all(f"{key}/".startswith(STEP_MUTABLE) for key in state):
            # committed state was replaced: let the engine resync what
            # it holds outside the coordinator (rolling back a failed
            # attempt is each engine's own abort path instead)
            self.on_state_restored()

    def restore_topology(self, live_ranks: list[int]) -> None:
        """Re-apply recorded evictions (checkpoint resume).

        Shrinks the freshly-built full-world engine down to the given
        live set without logging new topology events — the events are
        already in the resumed ``History``.
        """
        target = [int(rank) for rank in live_ranks]
        for rank in [r for r in self.live_ranks if r not in target]:
            self._shrink_world(rank)
        if self.live_ranks != target:
            raise ValueError(
                f"cannot restore topology {target} from "
                f"{self.live_ranks} (order or membership mismatch)"
            )

    def shutdown(self) -> None:
        """Release engine resources (worker threads/processes, if any)."""

    def on_state_restored(self) -> None:
        """Hook: engine state was overwritten by a checkpoint restore.

        The in-process engines read worker state directly, so the
        default is a no-op; the process engine uses this to resync
        (respawn) its worker processes from the restored replicas.
        """


class SequentialEngine(ExecutionEngine):
    """Rank loop on the calling thread — the reference trajectory."""

    name = "sequential"

    def _attempt_step(
        self, step: int, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        tracer = self.tracer
        shards = self._shard(x, y)
        scales = self._grad_scales(shards)
        sync = self.step_engine.sync_this_step
        local = self.step_engine.local_updates
        for rank in self.live_ranks:
            worker = self.workers[rank]
            shard_x, shard_y = shards[rank]
            try:
                self.fault_plan.inject(rank, step, tracer.counter_sink)
            except InjectedCrash as exc:
                raise AttemptFailure(
                    WorkerFailure(rank, step, "crash", str(exc)),
                    retryable=True,
                ) from exc
            with tracer.span("compute", rank):
                worker.compute(
                    shard_x, shard_y, grad_scale=scales.get(rank)
                )
            # one thread, one timeline: this rank's upload cannot
            # overlap anything (skipped round steps put nothing on
            # the wire)
            if sync and self._link_bytes_per_s is not None:
                link = self._open_link(rank)
                link.reserve(self.per_rank_payload_nbytes)
                link.drain()
        # all failure-capable phases are over: from here the attempt
        # cannot raise, so replica mutation is safe in every round mode
        if local:
            for rank in self.live_ranks:
                with tracer.span("compute", rank):
                    self.workers[rank].apply_local_updates()
            if sync:
                self._install_params(self._average_replicas())
        elif sync:
            aggregated: dict[str, np.ndarray] = {}
            for bucket in self.buckets:
                aggregated.update(self._exchange_bucket(bucket))
            for rank in self.live_ranks:
                with tracer.span("compute", rank):
                    self.workers[rank].apply_updates(aggregated)
        else:
            for bucket in self.buckets:
                self._accumulate_bucket(bucket)
        return self._collect_metrics()


class _StepContext:
    """Everything the worker threads need for one synchronous step."""

    def __init__(
        self,
        step: int,
        shards: dict[int, tuple[np.ndarray, np.ndarray]],
        tracker: BucketReadiness,
        grad_scales: dict[int, float] | None = None,
        participants: list[int] | tuple[int, ...] = (),
        uploads: dict[int, BucketUploads] | None = None,
    ):
        self.step = step
        self.shards = shards
        self.tracker = tracker
        self.grad_scales = grad_scales or {}
        # per-rank paced uploads of this attempt (empty: free wire, or
        # a skipped round step that puts nothing on it)
        self.uploads = uploads or {}
        self.aggregated: dict[str, np.ndarray] = {}
        self.apply_ready = threading.Event()
        self.abort = False
        # periodic synchronization: skip_apply tells workers the
        # coordinator already settled this step's replica state
        # (accumulated grads or local-SGD applies/installs), so their
        # apply phase is a no-op
        self.skip_apply = False
        # drain tracking: each participant marks itself done when it is
        # fully out of this step (applied, aborted, or crashed), so the
        # coordinator can rewind RNG state without racing live workers
        self._pending = set(participants)
        self._lock = threading.Lock()
        self._done = threading.Event()
        if not self._pending:
            self._done.set()

    def mark_done(self, rank: int) -> None:
        with self._lock:
            self._pending.discard(rank)
            if not self._pending:
                self._done.set()

    def wait_done(self, timeout: float | None = None) -> bool:
        return self._done.wait(timeout)

    def arrival_ns(self, bucket_index: int) -> int:
        """When the last rank's upload of this bucket lands (0: unpaced)."""
        return max(
            (up.arrivals[bucket_index] for up in self.uploads.values()),
            default=0,
        )


class ThreadedEngine(ExecutionEngine):
    """Thread-per-rank engine with overlapped bucketed exchange.

    Per step: worker threads run forward/backward on their shard,
    announcing gradient readiness layer by layer; the coordinator
    (the caller's thread) walks buckets in fixed order, running each
    collective as soon as its last gradient has landed and, on a paced
    link, arrived — overlapping communication with the remaining
    backward work.  All parties then
    meet at a reusable :class:`StepBarrier`; a rank that crashes or
    exceeds ``config.barrier_timeout`` is surfaced as a structured
    :class:`WorkerFailure` instead of a hang.
    """

    name = "threaded"

    def __init__(self, model: Module, config: TrainingConfig, loss_fn: LossFn):
        super().__init__(model, config, loss_fn)
        self._inbox: list[queue.Queue] = [
            queue.Queue() for _ in range(self.world_size)
        ]
        self._end_barrier = StepBarrier(
            self.world_size + 1, timeout=config.barrier_timeout
        )
        self._failure: WorkerFailure | None = None
        self._active_ctx: _StepContext | None = None
        self._threads = [
            threading.Thread(
                target=self._worker_loop,
                args=(rank,),
                name=f"repro-rank-{rank}",
                daemon=True,
            )
            for rank in range(self.world_size)
        ]
        for thread in self._threads:
            thread.start()

    # -- worker side ------------------------------------------------------
    def _worker_loop(self, rank: int) -> None:
        worker = self.workers[rank]
        while True:
            ctx = self._inbox[rank].get()
            if ctx is None:
                return
            tracer = self.tracer
            try:
                try:
                    self.fault_plan.inject(
                        rank, ctx.step, tracer.counter_sink
                    )
                    shard_x, shard_y = ctx.shards[rank]
                    # the readiness hook reserves the rank's link, so
                    # on this engine transfer spans overlap the compute
                    # span (the overlap the engine exists to create)
                    with tracer.span("compute", rank):
                        worker.compute(
                            shard_x,
                            shard_y,
                            on_ready=self._ready_hook(rank, ctx),
                            grad_scale=ctx.grad_scales.get(rank),
                        )
                except BaseException as exc:  # noqa: BLE001 - to main
                    worker.error = exc
                    ctx.tracker.mark_dead(rank)
                    continue
                self._timed_wait(ctx.apply_ready.wait, rank)
                if ctx.abort:
                    continue
                if not ctx.skip_apply:
                    with tracer.span("compute", rank):
                        worker.apply_updates(ctx.aggregated)
                try:
                    self._timed_wait(
                        lambda: self._end_barrier.wait(rank), rank
                    )
                except BarrierTimeout:
                    continue
            finally:
                ctx.mark_done(rank)

    def _ready_hook(self, rank: int, ctx: _StepContext):
        """Per-step readiness hook: reserve the link, then announce.

        A completed bucket is queued on this rank's link *before* the
        coordinator hears of it, so the coordinator always finds the
        bucket's arrival time; the hook never blocks, and the rank is
        back in backward while the bytes are on the wire.
        """
        tracker = ctx.tracker
        uploads = ctx.uploads.get(rank)
        if uploads is None:
            return lambda names: tracker.mark_ready(rank, names)

        def on_ready(names):
            uploads(names)
            tracker.mark_ready(rank, names)

        return on_ready

    # -- coordinator side -------------------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        if self._failure is not None:
            raise WorkerFailureError(self._failure)
        return super().train_step(x, y)

    def _attempt_step(
        self, step: int, x: np.ndarray, y: np.ndarray
    ) -> tuple[float, float]:
        shards = self._shard(x, y)
        sync = self.step_engine.sync_this_step
        local = self.step_engine.local_updates
        ctx = _StepContext(
            step,
            shards,
            BucketReadiness(
                self.buckets, self.world_size, live_ranks=self.live_ranks
            ),
            grad_scales=self._grad_scales(shards),
            participants=self.live_ranks,
            uploads=self._open_uploads() if sync else None,
        )
        self._active_ctx = ctx
        for rank in self.live_ranks:
            self._inbox[rank].put(ctx)
        try:
            for bucket in self.buckets:
                dead = self._timed_wait(
                    lambda: self._await_bucket(ctx, bucket.index),
                    COORDINATOR,
                )
                if dead:
                    self._raise_worker_errors(ctx, sorted(dead))
                if local:
                    # local SGD consumes whole replicas, not per-bucket
                    # gradients; nothing to do until every backward ends
                    continue
                if sync:
                    ctx.aggregated.update(self._exchange_bucket(bucket))
                else:
                    self._accumulate_bucket(bucket)
        except BarrierTimeout as timeout:
            failure = WorkerFailure(
                rank=min(timeout.missing, default=-1),
                step=step,
                kind="timeout",
                message=str(timeout),
            )
            # nobody applied anything yet: release the workers and let
            # the recovery loop decide (retry, evict, or abort)
            self._abort(ctx)
            raise AttemptFailure(failure, retryable=True) from timeout
        if local:
            # every bucket is ready, so every backward pass is done and
            # the parked workers' replicas are safe to mutate from this
            # (the coordinator's) thread — same operation order as the
            # sequential engine: local applies in rank order, then the
            # bucket-ordered delta exchange, then the install
            tracer = self.tracer
            for rank in self.live_ranks:
                with tracer.span("compute", rank):
                    self.workers[rank].apply_local_updates()
            if sync:
                self._install_params(self._average_replicas())
            ctx.skip_apply = True
        elif not sync:
            ctx.skip_apply = True
        ctx.apply_ready.set()
        try:
            self._timed_wait(
                lambda: self._end_barrier.wait(self.world_size), COORDINATOR
            )
        except BarrierTimeout as timeout:
            failure = WorkerFailure(
                rank=min(timeout.missing, default=-1),
                step=step,
                kind="timeout",
                message=str(timeout),
            )
            # the ranks that did reach the barrier already applied the
            # update — the step is committed for the survivors
            raise AttemptFailure(
                failure, retryable=False, committed=True
            ) from timeout
        return self._collect_metrics()

    def _open_uploads(self) -> dict[int, BucketUploads]:
        """One fresh paced link per live rank (none on a free wire)."""
        if self._link_bytes_per_s is None:
            return {}
        return {
            rank: BucketUploads(
                self._open_link(rank),
                self._bucket_of_name,
                self.bucket_tx_nbytes,
            )
            for rank in self.live_ranks
        }

    def _await_bucket(self, ctx: _StepContext, index: int) -> frozenset[int]:
        """Wait for one bucket's gradients, then for its bytes to arrive."""
        dead = ctx.tracker.wait(index, timeout=self.config.barrier_timeout)
        if not dead:
            sleep_until(ctx.arrival_ns(index))
        return dead

    def _raise_worker_errors(self, ctx: _StepContext, dead: list[int]) -> None:
        """Convert dead-rank state into the right exception."""
        for rank in dead:
            error = self.workers[rank].error
            if error is not None and not isinstance(error, InjectedCrash):
                # a real compute error (e.g. divergence) propagates
                # with its original type, exactly as the sequential
                # engine raises it from the rank loop
                self._abort(ctx)
                self.workers[rank].error = None
                raise error
        rank = dead[0]
        error = self.workers[rank].error
        failure = WorkerFailure(
            rank=rank,
            step=ctx.step,
            kind="crash",
            message=str(error) if error is not None else "rank died",
        )
        self._abort(ctx)
        raise AttemptFailure(failure, retryable=True)

    def _abort(self, ctx: _StepContext) -> None:
        """Release every worker from the step without applying updates."""
        ctx.abort = True
        ctx.apply_ready.set()

    def _latch_failure(self, failure: WorkerFailure) -> None:
        # a terminally-failed threaded engine refuses further steps
        self._failure = failure

    def _recover_attempt(self, attempt: AttemptFailure) -> None:
        # drain first: workers still inside the aborted attempt may be
        # consuming their module RNG streams, and the rollback in
        # ``_run_step_with_recovery`` must not race them.  Committed steps
        # are never rewound (and the missing rank may be stuck
        # arbitrarily long), so no drain there.
        ctx = self._active_ctx
        if ctx is not None and not attempt.committed:
            self._timed_wait(
                lambda: ctx.wait_done(timeout=self.config.barrier_timeout),
                COORDINATOR,
            )
        # clear injected-crash residue so the next attempt (or the
        # degraded collective) starts clean; real errors never reach
        # here — they propagate with their original type
        for rank in self.live_ranks:
            self.workers[rank].error = None
        if self._end_barrier.broken:
            self._end_barrier.reset()

    def _on_evict(self, rank: int) -> None:
        # the evicted rank no longer participates in the end-of-step
        # rendezvous, and its thread is told to exit (the sentinel
        # queues behind any step context it is still draining)
        self._end_barrier.deregister(rank)
        self._inbox[rank].put(None)

    def shutdown(self) -> None:
        for rank in range(self.world_size):
            self._inbox[rank].put(None)
        for thread in self._threads:
            thread.join(timeout=5.0)

    def __del__(self) -> None:  # pragma: no cover - GC best effort
        try:
            if any(t.is_alive() for t in self._threads):
                self.shutdown()
        except Exception:
            pass


_ENGINES: dict[str, Callable[..., ExecutionEngine]] = {
    "sequential": SequentialEngine,
    "threaded": ThreadedEngine,
}


def make_engine(
    model: Module, config: TrainingConfig, loss_fn: LossFn
) -> ExecutionEngine:
    """Construct the execution engine selected by ``config.engine``."""
    if config.engine == "process" and "process" not in _ENGINES:
        # deferred: the process engine pulls in multiprocessing and the
        # shared-memory arena, which the in-process engines never need
        from .process_engine import ProcessEngine

        _ENGINES["process"] = ProcessEngine
    try:
        engine_cls = _ENGINES[config.engine]
    except KeyError:
        raise ValueError(
            f"unknown engine {config.engine!r}; expected one of "
            f"{ENGINE_NAMES}"
        ) from None
    return engine_cls(model, config, loss_fn)
