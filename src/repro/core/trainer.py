"""Data-parallel trainer driving the numpy substrate.

The trainer owns the training loop (epochs, LR schedule, metrics) and
delegates per-step execution to a :mod:`repro.runtime` engine: the
sequential engine runs the rank workers one after another on the
calling thread, the threaded engine runs one worker thread per rank
with barrier-synchronized steps and overlapped bucketed exchange, the
process engine one OS process per rank.  All three run the same step
protocol.  Each rank holds its own model replica; synchronous SGD keeps
replicas bit-identical (every rank applies the same aggregated update),
and the engines produce bit-identical trajectories — both invariants
are asserted by tests.
"""

from __future__ import annotations

import copy
import os
import time
from typing import Callable

import numpy as np

from ..data.loader import iterate_minibatches
from ..nn.loss import softmax_cross_entropy
from ..nn.module import Module
from ..optim import exponential_decay
from ..quantization import kernels
from ..runtime.engine import make_engine
from ..runtime.faults import WorkerFailureError
from .checkpoint import CheckpointPolicy, TrainingCheckpoint, save_checkpoint
from .config import TrainingConfig
from .metrics import PHASE_NAMES, EpochMetrics, History

__all__ = ["ParallelTrainer", "TrainingInterrupted"]

LossFn = Callable[[np.ndarray, np.ndarray], tuple[float, np.ndarray]]
StepHook = Callable[[], None]
EpochHook = Callable[["EpochMetrics", "History"], None]


class TrainingInterrupted(Exception):
    """Raised out of the training loop when ``should_stop`` fires.

    A cooperative stop, not a failure: every completed step has been
    applied (and checkpointed, if a policy is active), so the run can
    be resumed bit-identically — or simply abandoned, as the serve
    daemon does for cancelled jobs.
    """


class ParallelTrainer:
    """Synchronous multi-rank training of one model."""

    def __init__(
        self,
        model: Module,
        config: TrainingConfig,
        loss_fn: LossFn = softmax_cross_entropy,
    ):
        self.model = model
        self.config = config
        self.loss_fn = loss_fn
        names = [p.name for p in model.parameters()]
        if len(set(names)) != len(names):
            raise ValueError("parameter names must be unique")
        self.engine = make_engine(model, config, loss_fn)
        # rank 0's replica *is* ``model``; its parameters reflect
        # training progress, as they did with the single-model loop
        self.parameters = self.engine.workers[0].parameters
        self._shuffle_rng = np.random.default_rng(config.seed + 1)
        self._begin_run()

    # the live collective/quantization pipeline; reassignable so
    # custom codecs can be injected (see examples/custom_quantizer.py)
    @property
    def step_engine(self):
        return self.engine.step_engine

    @step_engine.setter
    def step_engine(self, value) -> None:
        self.engine.step_engine = value

    @property
    def optimizer(self):
        """Rank 0's optimizer (all replicas hold identical state)."""
        return self.engine.optimizer

    # -- single synchronous iteration ------------------------------------
    def train_step(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One global minibatch: returns (mean loss, mean accuracy).

        Shards can be unequal (and empty shards contribute no loss),
        so the returned metrics are weighted by shard size — they are
        the exact global-minibatch mean.
        """
        return self.engine.train_step(x, y)

    # -- epochs -----------------------------------------------------------
    def _begin_run(self) -> None:
        """A fresh run record, the data cursor at the top of epoch 0.

        Where fit() is lives on the trainer, not in fit()'s locals, so
        that :meth:`state_dict` can capture it at any step.
        """
        self._history = History(label=self.config.label)
        self._prior_topology: list = []
        self._epoch = 0
        self._begin_epoch()

    def _begin_epoch(self) -> None:
        """Put the data cursor at the top of epoch ``self._epoch``."""
        self._batches_done = 0
        # the state the epoch's permutation is drawn from — what a
        # mid-epoch checkpoint must record to re-draw it
        self._epoch_shuffle_state = copy.deepcopy(
            self._shuffle_rng.bit_generator.state
        )
        self._losses: list[float] = []
        self._accuracies: list[float] = []

    def train_epoch(
        self,
        x: np.ndarray,
        y: np.ndarray,
        start_batch: int = 0,
        on_step: StepHook | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> tuple[float, float]:
        """One pass over the training set; returns (loss, accuracy).

        ``start_batch`` skips that many leading batches of the epoch's
        permutation (a mid-epoch resume: the shuffle RNG re-draws the
        same permutation, the already-trained batches are passed over
        and their metrics, loaded with the state tree, seed the running
        per-batch lists).  ``on_step`` is called after every trained
        batch — the checkpoint hook.  ``should_stop`` is polled between
        steps; when it returns true the epoch raises
        :class:`TrainingInterrupted` at the next step boundary (after
        the checkpoint hook, so a stopped run is resumable from its
        last completed step).
        """
        if start_batch == 0:
            self._begin_epoch()
        losses, accuracies = self._losses, self._accuracies
        batch_index = 0
        for batch_x, batch_y in iterate_minibatches(
            x, y, self.config.batch_size, rng=self._shuffle_rng
        ):
            batch_index += 1
            if batch_index <= start_batch:
                continue
            if should_stop is not None and should_stop():
                raise TrainingInterrupted(
                    f"stop requested before batch {batch_index}"
                )
            loss, acc = self.train_step(batch_x, batch_y)
            losses.append(loss)
            accuracies.append(acc)
            self._batches_done = batch_index
            if on_step is not None:
                on_step()
        if not losses:
            return float("nan"), float("nan")
        return float(np.mean(losses)), float(np.mean(accuracies))

    def evaluate(self, x: np.ndarray, y: np.ndarray) -> float:
        """Test accuracy in [0, 1], batched to bound memory.

        Evaluates on the engine's reference replica — rank 0's model
        until rank 0 is evicted by graceful degradation, then the
        lowest surviving rank's (all live replicas are bit-identical).
        An empty test set has no defined accuracy: returns NaN.
        """
        if x.shape[0] == 0:
            return float("nan")
        model = self.engine.reference_worker.model
        correct = 0
        for batch_x, batch_y in iterate_minibatches(x, y, 256):
            logits = model.forward(batch_x, training=False)
            correct += int((logits.argmax(axis=1) == batch_y).sum())
        return correct / x.shape[0]

    def fit(
        self,
        train_x: np.ndarray,
        train_y: np.ndarray,
        test_x: np.ndarray,
        test_y: np.ndarray,
        epochs: int,
        verbose: bool = False,
        checkpoint: CheckpointPolicy | None = None,
        resume_from: TrainingCheckpoint | str | os.PathLike | None = None,
        on_epoch: EpochHook | None = None,
        should_stop: Callable[[], bool] | None = None,
    ) -> History:
        """Train for ``epochs`` passes, recording per-epoch metrics.

        A rank crash or barrier timeout stops training and is recorded
        as a structured failure on the returned history rather than
        raised, so partial results stay inspectable.  Ranks evicted by
        graceful degradation are recorded as topology changes on the
        history and training continues.

        ``checkpoint`` turns on periodic checkpointing per the policy;
        ``resume_from`` (a :class:`TrainingCheckpoint` or a path to
        one) restores full training state before the first step, and
        the returned history includes the checkpointed epochs — a
        resumed run's history is bit-identical to the uninterrupted
        run's.

        ``on_epoch`` is called after every completed epoch with
        ``(metrics, history)``, once the boundary checkpoint (if any)
        has been written — the serve daemon streams NDJSON metric
        lines from it.  ``should_stop`` is polled between steps; when
        it returns true, :class:`TrainingInterrupted` propagates to
        the caller after the current step (and its checkpoint hook)
        completes, so the stopped run stays resumable.
        """
        if resume_from is not None:
            if not isinstance(resume_from, TrainingCheckpoint):
                resume_from = TrainingCheckpoint.load(resume_from)
            resume_from.restore(self)
        else:
            self._begin_run()
        history = self._history
        history.kernel_backend = kernels.backend_name()
        # a mid-epoch resume re-enters its epoch ``start_batch`` batches
        # in, with that epoch's traffic and partial metrics loaded
        start_batch = self._batches_done

        tracer = self.engine.tracer
        for epoch in range(self._epoch, epochs):
            self._epoch = epoch
            self.engine.set_lr(
                exponential_decay(self.config.lr, self.config.lr_decay, epoch)
            )
            if start_batch == 0:
                self.step_engine.reset_traffic()
            on_step: StepHook | None = None
            if checkpoint is not None and checkpoint.every_steps:
                on_step = self._step_checkpointer(checkpoint)
            # per-epoch phase deltas: snapshot the tracer's cumulative
            # busy seconds so each epoch records only its own share
            phase_before = tracer.phase_seconds() if tracer.enabled else None
            start = time.perf_counter()
            try:
                loss, train_acc = self.train_epoch(
                    train_x,
                    train_y,
                    start_batch=start_batch,
                    on_step=on_step,
                    should_stop=should_stop,
                )
            except WorkerFailureError as failure:
                self._sync_topology()
                history.failures.append(failure.failure)
                if verbose:
                    print(f"[{self.config.label}] stopped: {failure}")
                break
            except TrainingInterrupted:
                self._sync_topology()
                raise
            elapsed = time.perf_counter() - start
            if phase_before is not None:
                phase_after = tracer.phase_seconds()
                phase_delta = {
                    phase: phase_after.get(phase, 0.0)
                    - phase_before.get(phase, 0.0)
                    for phase in PHASE_NAMES
                }
            else:
                phase_delta = {}
            test_acc = self.evaluate(test_x, test_y)
            metrics = EpochMetrics(
                epoch=epoch,
                train_loss=loss,
                train_accuracy=train_acc,
                test_accuracy=test_acc,
                comm_bytes=self.step_engine.comm_bytes,
                wall_seconds=elapsed,
                **{
                    f"{phase}_seconds": seconds
                    for phase, seconds in phase_delta.items()
                },
            )
            history.append(metrics)
            self._sync_topology()
            # the cursor moves to the boundary: next epoch, zero batches
            # in, the shuffle RNG exactly where the next draw happens
            start_batch = 0
            self._epoch = epoch + 1
            self._begin_epoch()
            if checkpoint is not None and checkpoint.every_epochs and (
                (epoch + 1) % checkpoint.every_epochs == 0
            ):
                save_checkpoint(self, checkpoint)
            if on_epoch is not None:
                on_epoch(metrics, history)
            if verbose:
                print(
                    f"[{self.config.label}] epoch {epoch:3d} "
                    f"loss={loss:.4f} train={train_acc:.3f} "
                    f"test={test_acc:.3f}"
                )
        self._sync_topology()
        return history

    def _sync_topology(self) -> None:
        """Fold the engine's eviction log into the run's history."""
        self._history.topology_changes = (
            self._prior_topology + self.engine.topology_events
        )

    def _step_checkpointer(self, policy: CheckpointPolicy) -> StepHook:
        """Per-batch hook saving every ``policy.every_steps`` steps."""

        def on_step() -> None:
            if self.engine._step_index % policy.every_steps == 0:
                save_checkpoint(self, policy)

        return on_step

    # -- state tree -------------------------------------------------------
    def state_dict(self) -> dict:
        """The whole run as one tree: the engine's, plus where fit() is.

        ``shuffle_state`` is the shuffle-RNG state from which the
        *current* epoch's permutation is (re)drawn: the pre-epoch
        snapshot when mid-epoch, the current state at an epoch
        boundary.  A resumed run restores it, re-draws the same
        permutation, and skips the first ``batches_done`` batches.
        """
        self._sync_topology()
        return {
            **self.engine.state_dict(),
            "epoch": self._epoch,
            "batches_done": self._batches_done,
            "shuffle_state": copy.deepcopy(self._epoch_shuffle_state),
            "partial_losses": [float(v) for v in self._losses],
            "partial_accuracies": [float(v) for v in self._accuracies],
            "history": self._history.to_dict(),
        }

    def load_state_dict(self, state: dict) -> None:
        """Continue from :meth:`state_dict` output (a checkpoint's tree)."""
        self.engine.load_state_dict(state)
        self._history = History.from_dict(state["history"])
        self._prior_topology = list(self._history.topology_changes)
        self._epoch = int(state["epoch"])
        self._shuffle_rng.bit_generator.state = copy.deepcopy(
            state["shuffle_state"]
        )
        self._begin_epoch()
        self._batches_done = int(state["batches_done"])
        self._losses = list(state["partial_losses"])
        self._accuracies = list(state["partial_accuracies"])

    def close(self) -> None:
        """Shut down the execution engine (worker threads, if any)."""
        self.engine.shutdown()

    def __enter__(self) -> "ParallelTrainer":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
