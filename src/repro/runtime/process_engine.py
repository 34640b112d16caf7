"""Process-per-rank execution engine with shared-memory exchange.

:class:`ProcessEngine` runs every rank as a real OS process (spawn
context), which is the tier the threaded engine cannot reach: each
rank owns a whole interpreter, so Python-level compute genuinely
parallelizes instead of interleaving under one GIL.

Data plane and control plane are split.  Gradients move through a
:class:`~repro.runtime.shm.GradientArena` — one shared-memory block
laid out by the engine's bucket plan, one slot per rank plus a slot
for the aggregated means — as zero-copy float32 views on both sides.
Control messages (step dispatch, arrival, verdicts) move over one
duplex pipe per rank, and the cross-process step rendezvous is
:class:`ProcessStepBarrier`: the coordinator waits on every pending
rank's pipe *and* process sentinel together, so a killed worker breaks
the rendezvous immediately and a silent one is named at the deadline,
exactly like the threaded engine's :class:`~repro.runtime.barrier.StepBarrier`.

Bit-identity with the other engines holds because the numeric step is
unchanged: workers run the same :class:`~repro.runtime.worker.RankWorker`
compute on replicas whose parameters and per-rank RNG streams are
shipped bit-exactly at spawn (pickle preserves float bits and
generator state), and the whole collective — shared quantization RNG,
error-feedback residuals, exchange state — stays on the coordinator,
which runs the unmodified ``SynchronousStep`` bucket walk over the
arena views in the same fixed order.  Workers therefore ship *raw*
gradients through the arena and the coordinator encodes.  For the
stochastic codecs (QSGD, TernGrad) encoding in the workers would need
per-rank quantization RNG streams, which is a different
(non-bit-identical) trajectory by construction; 1bitSGD and Dettmers-8
draw nothing, so for them rank-side encoding would only have to move
the error-feedback residuals.

The step itself is the base class's
(:meth:`~repro.runtime.engine.ExecutionEngine._attempt_step`); this
module is its transport.  It gathers every rank's gradients once, lets
the base walk the buckets over the arena views, and delivers the
verdict over the pipes.  The coordinator keeps its local "shadow"
workers: once the ranks answer the verdict, each shadow loads the
rank subtree its worker reported with its gradients (``RankWorker.RANK_STATE``:
module RNG streams, batchnorm running statistics) and settles the same
verdict, so evaluation, checkpointing, retry rollbacks, and respawns
all read ordinary local state.  A killed worker surfaces as a
retryable :class:`~repro.runtime.resilience.AttemptFailure`; the retry
respawns the rank from its shadow (parameters, momentum, RNG streams —
all pre-step, since shadows only advance on success) and replays the
step.  Eviction reshards the survivors through the shared base-class
path.

On a paced link (``TrainingConfig.link_gbps``) each worker opens its
link from the engine's :class:`~repro.runtime.link.LinkPlan`, handed
over at spawn: it reserves the link bucket by bucket from its
backward's readiness hook and sleeps out only the residual before
announcing its gradients, so a rank's wire time hides behind its own
backward.

Per-process tracers record compute/transfer spans on the worker side
and ship them back with each control message; the coordinator merges
them into its tracer, so a traced run yields one Chrome-trace track
per rank (``perf_counter_ns`` reads ``CLOCK_MONOTONIC``, which is
system-wide on Linux, so cross-process timestamps share a timebase).

Models and the loss function cross the spawn boundary by pickle, so
both must be picklable (module-level functions; the bundled models and
losses are).
"""

from __future__ import annotations

import contextlib
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, replace
from multiprocessing import connection as mp_connection

import numpy as np

from ..telemetry.tracer import COORDINATOR, NULL_TRACER, TraceEvent, Tracer
from .engine import ExecutionEngine, Lost
from .faults import FaultPlan
from .shm import GradientArena, arena_slots
from .worker import LossFn, RankWorker

__all__ = ["ProcessEngine", "ProcessStepBarrier"]


@dataclass(frozen=True)
class _Rendezvous:
    """Outcome of one :meth:`ProcessStepBarrier.gather` phase.

    Attributes:
        messages: one control message per rank that arrived in time.
        dead: ranks whose process died without delivering a message.
        missing: ranks still alive but silent when the deadline passed.
    """

    messages: dict[int, tuple]
    dead: tuple[int, ...]
    missing: tuple[int, ...]

    @property
    def complete(self) -> bool:
        return not self.dead and not self.missing


class ProcessStepBarrier:
    """Cross-process step rendezvous — the ``StepBarrier`` equivalent.

    Each pending rank "arrives" by delivering exactly one control
    message on its pipe; the coordinator blocks on the pipes and the
    process sentinels together (``multiprocessing.connection.wait``),
    so a dead rank is detected the moment the OS reaps it rather than
    at the deadline.  Like the threaded barrier, a timeout reports
    *which* parties never arrived instead of hanging.
    """

    def __init__(self, timeout: float):
        if timeout <= 0:
            raise ValueError(f"timeout must be > 0, got {timeout}")
        self.timeout = timeout

    def gather(
        self,
        conns: dict[int, mp_connection.Connection],
        procs: dict[int, multiprocessing.process.BaseProcess],
        pending: set[int],
    ) -> _Rendezvous:
        """Collect one message from every pending rank (or diagnose)."""
        pending = set(pending)
        messages: dict[int, tuple] = {}
        dead: list[int] = []
        deadline = time.monotonic() + self.timeout
        while pending:
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                break
            by_handle = {}
            for rank in pending:
                by_handle[conns[rank]] = rank
                by_handle[procs[rank].sentinel] = rank
            ready = mp_connection.wait(
                list(by_handle), timeout=remaining
            )
            for rank in sorted({by_handle[h] for h in ready}):
                if rank not in pending:
                    continue
                # a just-dead worker's last message can still sit in
                # the pipe buffer: always prefer draining it over the
                # sentinel's verdict
                if conns[rank].poll(0):
                    try:
                        messages[rank] = conns[rank].recv()
                    except (EOFError, OSError):
                        dead.append(rank)
                    pending.discard(rank)
                elif not procs[rank].is_alive():
                    dead.append(rank)
                    pending.discard(rank)
        return _Rendezvous(
            messages, tuple(sorted(dead)), tuple(sorted(pending))
        )


# -- worker-process side ----------------------------------------------------


def _drain_telemetry(tracer) -> tuple[tuple, float]:  # pragma: no cover
    """Ship-and-reset this worker's spans and straggler stall time."""
    if not tracer.enabled:
        return (), 0.0
    spans = tuple(
        (e.name, e.track, e.start_ns, e.duration_ns)
        for e in tracer.events()
    )
    stall = tracer.counters.straggler_stall_seconds
    tracer.clear()
    return spans, stall


def _child_main(
    rank: int,
    conn: mp_connection.Connection,
    arena_name: str,
    slots: list,
    world_size: int,
    *serve_args,
) -> None:  # pragma: no cover - runs in spawned worker processes
    """Entry point of one rank's worker process."""
    arena = GradientArena.attach(arena_name, slots, world_size)
    try:
        _serve(rank, conn, arena, *serve_args)
    except (EOFError, OSError, KeyboardInterrupt):
        pass
    finally:
        arena.close()
        conn.close()


def _serve(
    rank, conn, arena, model, velocity, lr, config, loss_fn, link,
    trace_enabled, kills_fired,
) -> None:  # pragma: no cover - runs in spawned worker processes
    worker = RankWorker(
        rank,
        model,
        loss_fn,
        lr=lr,
        momentum=config.momentum,
        weight_decay=config.weight_decay,
        label=config.label,
    )
    worker.optimizer.load_state_dict(velocity)
    # kills are handled right here as real SIGKILLs, so the plan's
    # in-process degradation must not fire (in particular not on a
    # respawned worker replaying the step its predecessor died in)
    plan = replace(FaultPlan.from_config(config), kill_points=())
    kill_points = {
        (int(r), int(s)) for r, s in config.kill_points
    } - set(kills_fired)
    grad_views = arena.rank_views(rank)
    mean_views = arena.mean_views()
    tracer = Tracer() if trace_enabled else NULL_TRACER
    while True:
        msg = conn.recv()
        cmd = msg[0]
        if cmd == "stop":
            return
        if cmd == "lr":
            worker.optimizer.lr = msg[1]
            continue
        if cmd == "abort":
            # stale release of a step this rank already bailed from
            continue
        step, shard_x, shard_y, scale, paced = msg[1:]
        # skipped round steps exchange nothing, so they are never paced
        uploads = link.open(tracer, rank) if paced else None
        # what this rank's forward pass moves; an attempt that does not
        # commit reloads it, exactly as the coordinator rolls back its
        # own STEP_MUTABLE subtree
        pre_step = worker.state_dict(RankWorker.RANK_STATE)
        try:
            if (rank, step) in kill_points:
                # a hard kill, not an exception: the process vanishes
                # mid-step exactly like an OOM-killed or crashed rank
                os.kill(os.getpid(), signal.SIGKILL)
            plan.inject(rank, step, tracer.counter_sink)
            with tracer.span("compute", rank):
                worker.compute(
                    shard_x, shard_y, on_ready=uploads, grad_scale=scale
                )
        except BaseException as exc:  # noqa: BLE001 - shipped to parent
            worker.load_state_dict(pre_step)
            conn.send(("error", exc, *_drain_telemetry(tracer)))
            continue
        for param in worker.parameters:
            np.copyto(grad_views[param.name], param.grad)
        if uploads is not None:
            # every bucket was queued on the link as backward produced
            # it; only the wire time backward did not cover is left
            uploads.link.drain()
        conn.send(
            (
                "grads",
                worker.loss,
                worker.accuracy,
                worker.samples,
                # the rank subtree the forward moved: the shadow replica
                # loads it at commit, or coordinator-side evaluation and
                # checkpoints drift.  Never parameters — those reach the
                # shadow through the same verdict
                worker.state_dict(RankWorker.RANK_STATE),
                *_drain_telemetry(tracer),
            )
        )
        verdict = conn.recv()[0]
        if verdict == "abort":
            # the coordinator tore the attempt down
            worker.load_state_dict(pre_step)
            continue
        # "apply" and "install" read the arena's mean slot
        with tracer.span("compute", rank):
            worker.settle(verdict, mean_views)
        conn.send(("done", *_drain_telemetry(tracer)))


# -- coordinator side -------------------------------------------------------

#: thread-count variables the BLAS/OpenMP runtimes read when they load
_BLAS_THREAD_VARS = (
    "OPENBLAS_NUM_THREADS",
    "OMP_NUM_THREADS",
    "MKL_NUM_THREADS",
)


@contextlib.contextmanager
def _one_blas_thread_per_rank():
    """Environment a rank is spawned into: one BLAS thread by default.

    The ranks are this engine's unit of parallelism; K ranks that each
    start a BLAS pool sized to the whole machine oversubscribe it.  A
    value the user set is inherited untouched.
    """
    added = [var for var in _BLAS_THREAD_VARS if var not in os.environ]
    for var in added:
        os.environ[var] = "1"
    try:
        yield
    finally:
        for var in added:
            del os.environ[var]


class ProcessEngine(ExecutionEngine):
    """Process-per-rank engine (spawn context, shared-memory exchange)."""

    name = "process"

    def __init__(self, model, config, loss_fn: LossFn):
        super().__init__(model, config, loss_fn)
        self._ctx = multiprocessing.get_context("spawn")
        self._loss_fn = loss_fn
        # the tracer holds locks and must not cross the spawn boundary;
        # workers build their own and ship spans back over the pipe
        self._child_config = replace(config, tracer=None)
        self._barrier = ProcessStepBarrier(config.barrier_timeout)
        self._procs: dict[int, multiprocessing.process.BaseProcess] = {}
        self._conns: dict[int, mp_connection.Connection] = {}
        self._arena: GradientArena | None = None
        self._grad_views: dict[int, dict[str, np.ndarray]] = {}
        self._mean_views: dict[str, np.ndarray] = {}
        self._kill_points = {
            (int(r), int(s)) for r, s in config.kill_points
        }
        self._kills_fired: set[tuple[int, int]] = set()
        self._needs_respawn: set[int] = set()
        self._undrained: set[int] = set()
        #: this attempt's "grads" messages, held until the verdict
        self._payloads: dict[int, tuple] = {}

    # -- lifecycle --------------------------------------------------------
    def _ensure_started(self) -> None:
        """Make every live rank ready for a step attempt.

        Allocates the arena on first use, absorbs what the last aborted
        attempt left in the pipes, and (re)spawns every live rank
        without a process — a dead rank from its shadow, so a retry
        replays the exact step.  Spawning on first step (not
        construction) means a checkpoint restore always lands in the
        shadows *before* any worker exists, so the spawned replicas
        inherit the restored state.
        """
        if self._arena is None:
            shapes = {
                p.name: p.data.shape for p in self.workers[0].parameters
            }
            self._arena = GradientArena.create(
                arena_slots(self.buckets, shapes), self.world_size
            )
            self._grad_views = {
                rank: self._arena.rank_views(rank)
                for rank in range(self.world_size)
            }
            self._mean_views = self._arena.mean_views()
        self._drain_stragglers()
        for rank in sorted(self._needs_respawn):
            self._reap(rank, timeout=1.0)
        self._needs_respawn.clear()
        for rank in self.live_ranks:
            if rank not in self._procs:
                self._spawn_rank(rank)

    def _spawn_rank(self, rank: int) -> None:
        """Start rank's process from its shadow (pre-step) state."""
        shadow = self.workers[rank]
        parent_conn, child_conn = self._ctx.Pipe()
        proc = self._ctx.Process(
            target=_child_main,
            args=(
                rank,
                child_conn,
                self._arena.name,
                self._arena.slots,
                self.world_size,
                shadow.model,
                shadow.optimizer.state_dict(),
                shadow.optimizer.lr,
                self._child_config,
                self._loss_fn,
                self._link,
                self.tracer.enabled,
                frozenset(self._kills_fired),
            ),
            name=f"repro-rank-{rank}",
            daemon=True,
        )
        with _one_blas_thread_per_rank():
            proc.start()
        child_conn.close()
        self._procs[rank] = proc
        self._conns[rank] = parent_conn

    def _reap(self, rank: int, timeout: float = 5.0) -> None:
        """Join/terminate one worker process and close its pipe."""
        proc = self._procs.pop(rank, None)
        conn = self._conns.pop(rank, None)
        if proc is not None:
            proc.join(timeout=timeout)
            if proc.is_alive():  # pragma: no cover - stuck worker
                proc.terminate()
                proc.join(timeout=timeout)
            proc.close()
        if conn is not None:
            conn.close()

    def _tell(self, rank: int, msg: tuple) -> None:
        """Send a control message to a rank that may already be gone."""
        with contextlib.suppress(BrokenPipeError, OSError):
            self._conns[rank].send(msg)

    def _stop_workers(self) -> None:
        for rank in list(self._procs):
            if self._procs[rank].is_alive():
                self._tell(rank, ("stop",))
            self._reap(rank)
        self._undrained.clear()
        self._needs_respawn.clear()

    def shutdown(self) -> None:
        self._stop_workers()
        if self._arena is not None:
            # views alias the mapping; drop them before closing it
            self._grad_views = {}
            self._mean_views = {}
            self._arena.close()
            self._arena = None

    def __del__(self) -> None:  # pragma: no cover - GC best effort
        try:
            self.shutdown()
        except Exception:
            pass

    def on_state_restored(self) -> None:
        """Resync workers after a checkpoint restore into the shadows.

        Normally restore precedes the lazy first spawn and this is a
        no-op; if workers are already running, they hold pre-restore
        state, so stop them and let the next step respawn from the
        freshly-restored shadows.
        """
        if self._procs:
            self._stop_workers()

    def set_lr(self, lr: float) -> None:
        super().set_lr(lr)
        for rank in self.live_ranks:
            conn = self._conns.get(rank)
            if conn is not None:
                conn.send(("lr", lr))

    # -- transport hooks --------------------------------------------------
    def _start_ranks(self, step, shards, scales, link):
        self._ensure_started()
        for rank in self.live_ranks:
            shard_x, shard_y = shards[rank]
            self._conns[rank].send(
                ("step", step, shard_x, shard_y, scales.get(rank),
                 link is not None)
            )
        # one rendezvous for the whole backward: every arena slot is
        # complete before the bucket walk starts, so no bucket waits
        outcome = self._gather(step)
        errors = {rank: None for rank in outcome.dead}
        for rank, msg in outcome.messages.items():
            if msg[0] == "error":
                errors[rank] = msg[1]
        if errors or outcome.missing:
            return Lost(errors, outcome.missing)
        self._payloads = outcome.messages
        return None

    def _rank_grads(self, rank):
        return self._grad_views[rank]

    def _deliver(self, step, verdict, mean):
        for name, array in mean.items():
            np.copyto(self._mean_views[name], array)
        for rank in self.live_ranks:
            self._conns[rank].send((verdict,))
        done = self._gather(step)
        # every rank that answered settled the verdict, and one lost now
        # is a committed failure: the shadows follow suit either way
        payloads, self._payloads = self._payloads, {}
        for rank in self.live_ranks:
            _, loss, accuracy, samples, rank_state, *_ = payloads[rank]
            shadow = self.workers[rank]
            shadow.loss, shadow.accuracy = loss, accuracy
            shadow.samples = samples
            shadow.load_state_dict(rank_state)
            shadow.settle(verdict, mean, self._grad_views[rank])
        if done.complete:
            return None
        return Lost({rank: None for rank in done.dead}, done.missing)

    def _abort(self, lost):
        """Release the surviving participants of an aborted attempt.

        Responders are parked waiting for a verdict; silent ranks will
        deliver one stale message first (drained before the next
        attempt) and then see the abort — both reload their pre-step
        rank state worker-side.
        """
        for rank in self.live_ranks:
            if rank not in lost.errors:
                self._tell(rank, ("abort",))

    def _gather(self, step: int) -> _Rendezvous:
        """One message from every live rank; notes who died or hung."""
        outcome = self._timed_wait(
            lambda: self._barrier.gather(
                self._conns, self._procs, set(self.live_ranks)
            ),
            COORDINATOR,
        )
        for rank in sorted(outcome.messages):
            self._merge_telemetry(*outcome.messages[rank][-2:])
        for rank in outcome.dead:
            self._needs_respawn.add(rank)
            if (rank, step) in self._kill_points:
                self._kills_fired.add((rank, step))
        self._undrained.update(outcome.missing)
        return outcome

    def _drain_stragglers(self) -> None:
        """Absorb the stale message each aborted silent rank still owes.

        Without this, a late arrival from the aborted attempt would be
        mistaken for the retry's — every pipe must be empty before the
        next attempt is dispatched.
        """
        deadline = time.monotonic() + self.config.barrier_timeout
        for rank in sorted(self._undrained):
            self._undrained.discard(rank)
            conn = self._conns.get(rank)
            proc = self._procs.get(rank)
            if conn is None or proc is None:
                continue
            remaining = max(0.0, deadline - time.monotonic())
            try:
                if conn.poll(remaining):
                    self._merge_telemetry(*conn.recv()[-2:])
                    continue
                if proc.is_alive():  # pragma: no cover - hung worker
                    proc.terminate()
            except (EOFError, OSError):  # pragma: no cover
                pass
            self._needs_respawn.add(rank)

    def _on_evict(self, rank: int) -> None:
        self._needs_respawn.discard(rank)
        silent = rank in self._undrained
        self._undrained.discard(rank)
        proc = self._procs.get(rank)
        if proc is None:
            return
        if silent:
            # it owes a stale message it may never send: do not wait
            proc.terminate()
        elif proc.is_alive():
            self._tell(rank, ("stop",))
        self._reap(rank, timeout=2.0)

    # -- telemetry --------------------------------------------------------
    def _merge_telemetry(self, spans, stall: float) -> None:
        if not self.tracer.enabled:
            return
        for name, track, start_ns, duration_ns in spans:
            self.tracer.record(
                TraceEvent(
                    name=name,
                    track=track,
                    start_ns=start_ns,
                    duration_ns=duration_ns,
                )
            )
        if stall:
            sink = self.tracer.counter_sink
            if sink is not None:
                sink.add_straggler_stall(stall)
