"""The synchronous data-parallel SGD step (the paper's Algorithm 1).

:class:`SynchronousStep` owns the per-step mechanics: per-rank gradient
computation is done by the caller (the trainer); this class performs
the encode → exchange → decode → aggregate sequence for every
parameter, maintaining per-rank error-feedback residuals for biased
schemes and the small-matrix passthrough policy.
"""

from __future__ import annotations

import copy
from dataclasses import replace

import numpy as np

from ..comm import make_exchange
from ..nn.module import Parameter
from ..quantization import (
    EncodeWorkspace,
    ErrorFeedback,
    QuantizationPolicy,
    make_quantizer,
)
from ..statetree import load_arrays
from ..telemetry.tracer import NULL_TRACER
from .config import TrainingConfig

__all__ = ["SynchronousStep"]


class SynchronousStep:
    """Quantized gradient aggregation across ``world_size`` ranks."""

    def __init__(
        self,
        config: TrainingConfig,
        parameters: list[Parameter],
        rank_ids: list[int] | None = None,
    ):
        self.config = config
        self.world_size = config.world_size
        #: the id each rank position carries in the state tree (they
        #: differ from the positions once a rank has been evicted)
        self.rank_ids = list(
            range(config.world_size) if rank_ids is None else rank_ids
        )
        # which codec each layer travels with: the passthrough
        # threshold, the adaptive per-layer bit-widths and the
        # layer-kind override, decided once from the parameter
        # inventory, so a resumed or degraded run rebuilds the
        # identical table
        self.policy = QuantizationPolicy(
            make_quantizer(
                config.scheme, config.bucket_size,
                norm=config.norm, variant=config.variant,
            ),
            [(p.name, p.size, getattr(p, "kind", "param")) for p in parameters],
            config.passthrough_coverage,
            adaptive=config.policy == "adaptive",
            quantize_kinds=config.quantize_kinds,
        )
        exchange_kwargs = (
            {"requantize_broadcast": config.requantize_broadcast}
            if config.exchange == "mpi"
            else {}
        )
        self.exchange = make_exchange(
            config.exchange, config.world_size, **exchange_kwargs
        )
        # observation-only telemetry: the exchange records encode/
        # decode spans on per-rank tracks and mirrors wire bytes into
        # the tracer's counters at its one recording site
        self.tracer = config.tracer if config.tracer is not None else NULL_TRACER
        self.exchange.tracer = self.tracer
        self.rng = np.random.default_rng(config.seed)
        # scratch arena for the zero-allocation hot path; exchanges run
        # on one coordinator thread in every engine, so one arena is
        # enough (EncodeWorkspace is not thread-safe)
        self.workspace = EncodeWorkspace()
        # error feedback: one residual store per rank position, one
        # residual per parameter name
        self._feedback = [ErrorFeedback() for _ in range(config.world_size)]
        # periodic synchronization (aggregation_frequency > 1): a round
        # is N micro-steps; the quantized exchange runs only on the
        # round's last micro-step
        self.frequency = config.aggregation_frequency
        self.sync_mode = config.sync_mode
        self._round_position = 0
        # "allreduce" mode: per-rank running gradient sums, allocated
        # once per (rank, name) from the workspace arena and zeroed
        # after every round flush
        self._accumulators: list[dict[str, np.ndarray]] = [
            {} for _ in range(config.world_size)
        ]
        self._accumulating = self.frequency > 1 and self.sync_mode == "allreduce"
        # "local_sgd" mode: parameter values at the top of the round;
        # the round flush exchanges per-rank deltas against this base
        self._round_base: dict[str, np.ndarray] = {}
        # bytes already on the wire before this step engine's exchange
        # counted any (carried across a mid-run shrink or a checkpoint
        # resume so per-epoch comm accounting stays continuous)
        self._comm_bytes_base = 0

    # -- round lifecycle --------------------------------------------------
    @property
    def round_position(self) -> int:
        """Completed micro-steps inside the current round (0..N-1)."""
        return self._round_position

    @property
    def sync_this_step(self) -> bool:
        """Whether the current micro-step closes the round (exchanges)."""
        return self._round_position + 1 >= self.frequency

    @property
    def local_updates(self) -> bool:
        """Whether ranks step their own replicas between exchanges."""
        return self.sync_mode == "local_sgd"

    def advance_round(self) -> None:
        """Advance the round position by one committed micro-step."""
        self._round_position = (self._round_position + 1) % self.frequency

    def begin_round(self, parameters: list[Parameter]) -> None:
        """Capture the round base for local-SGD parameter averaging.

        A no-op except at the top of a local-SGD round; idempotent
        there (parameters have not moved yet), so step retries may call
        it again freely.
        """
        if not self.local_updates or self._round_position != 0:
            return
        for param in parameters:
            base = self._round_base.get(param.name)
            if base is None:
                base = np.empty_like(param.data)
                self._round_base[param.name] = base
            np.copyto(base, param.data)

    def _accumulator(
        self, rank: int, name: str, shape: tuple[int, ...], dtype
    ) -> np.ndarray:
        acc = self._accumulators[rank].get(name)
        if acc is None:
            acc = self.workspace.array(("acc", rank, name), shape, dtype)
            acc.fill(0)
            self._accumulators[rank][name] = acc
        return acc

    def accumulate(self, name: str, rank_grads: list[np.ndarray]) -> None:
        """Fold one micro-step's per-rank gradients into the round sums."""
        if len(rank_grads) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} gradients, got {len(rank_grads)}"
            )
        for rank, grad in enumerate(rank_grads):
            acc = self._accumulator(rank, name, grad.shape, grad.dtype)
            np.add(acc, grad, out=acc)

    def accumulate_bucket(
        self,
        names: list[str],
        rank_grads_by_name: dict[str, list[np.ndarray]],
    ) -> None:
        """Accumulate one coalesced bucket on a skipped round step."""
        for name in names:
            self.accumulate(name, rank_grads_by_name[name])

    def average_parameter(
        self, name: str, rank_params: list[np.ndarray]
    ) -> np.ndarray:
        """Average diverged replicas of one parameter (local SGD flush).

        Each rank's delta against the round base travels through the
        same quantized exchange as a gradient would — error feedback,
        passthrough policy, and wire accounting included — and the
        averaged value is ``base + mean(delta)``.
        """
        if len(rank_params) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} replicas, got {len(rank_params)}"
            )
        base = self._round_base[name]
        ws = self.workspace
        deltas = []
        for rank, params in enumerate(rank_params):
            buf = ws.array(("delta", rank), base.shape, base.dtype)
            np.subtract(params, base, out=buf)
            deltas.append(buf)
        mean_delta = self.aggregate(name, deltas)
        averaged = ws.array(("avg", name), base.shape, base.dtype)
        np.add(base, mean_delta, out=averaged)
        return averaged

    def aggregate(
        self, name: str, rank_grads: list[np.ndarray]
    ) -> np.ndarray:
        """Exchange one parameter's per-rank gradients; return the mean.

        Encodes with the layer's codec from the policy's table and runs
        per-rank error feedback when that codec is biased; the exchange
        counts the wire bytes (:attr:`comm_bytes`).
        """
        if len(rank_grads) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} gradients, got {len(rank_grads)}"
            )
        codec = self.policy.table[name]
        ws = self.workspace
        scale = self.world_size
        if self._accumulating:
            # round flush: fold the closing micro-step's gradients into
            # the running sums, exchange the sums, and normalize by
            # ranks x micro-steps (large-batch mean semantics)
            self.accumulate(name, rank_grads)
            rank_grads = [
                self._accumulators[rank][name]
                for rank in range(self.world_size)
            ]
            scale = self.world_size * self.frequency
        feedback = self._feedback if codec.requires_error_feedback else ()
        if feedback:
            rank_grads = [
                store.correct(
                    name, grad, ws.array(("corr", rank), grad.shape, grad.dtype)
                )
                for rank, (store, grad) in enumerate(zip(feedback, rank_grads))
            ]

        result = self.exchange.exchange(
            name, rank_grads, codec, self.rng, workspace=ws
        )
        for rank, store in enumerate(feedback):
            store.absorb(name, rank_grads[rank], result.decoded_local[rank])

        # per-name mean buffers: the engines collect means for every
        # parameter of a step before applying them, so buffers must not
        # alias across parameters
        mean = ws.array(("mean", name), result.aggregate.shape)
        np.divide(result.aggregate, scale, out=mean)
        if self._accumulating:
            # the round is flushed; the sums restart from zero
            for rank in range(self.world_size):
                self._accumulators[rank][name].fill(0)
        return mean

    def aggregate_bucket(
        self,
        names: list[str],
        rank_grads_by_name: dict[str, list[np.ndarray]],
    ) -> dict[str, np.ndarray]:
        """Aggregate one coalesced gradient bucket, name by name.

        The runtime engines exchange buckets in a fixed order; within
        a bucket this method pins the per-parameter order (and hence
        the quantization RNG stream), so sequential and threaded
        execution consume identical randomness.
        """
        return {
            name: self.aggregate(name, rank_grads_by_name[name])
            for name in names
        }

    def payload_nbytes(self, name: str, shape: tuple[int, ...]) -> int:
        """Encoded size of one rank's wire contribution for ``name``.

        Read from the same table the exchange encodes with, so link
        pacing charges the payload actually sent.
        """
        return self.policy.table[name].encoded_nbytes(shape)

    @property
    def comm_bytes(self) -> int:
        """Total bytes moved since construction (or last reset)."""
        return self.exchange.wire_bytes + self._comm_bytes_base

    def reset_traffic(self) -> None:
        self.exchange.wire_bytes = 0
        self._comm_bytes_base = 0

    # -- state tree -------------------------------------------------------
    def state_dict(self) -> dict:
        """Copy of everything the collective carries from step to step.

        The shared quantization RNG, any aggregator-side exchange state
        (the MPI path's broadcast residuals), the round position and
        local-SGD round base, the adaptive policy's frozen per-layer
        scheme table, the epoch's byte count so far, and — under
        ``ranks/<rank id>`` — each rank's error-feedback residuals and
        gradient accumulators.  Loading it back makes a partially-run
        step as if it never ran, which is what makes retries sound.
        """
        return {
            "rng": copy.deepcopy(self.rng.bit_generator.state),
            "exchange": self.exchange.state_dict(),
            "round_position": self._round_position,
            "round_base": _copies(self._round_base),
            "policy_assignments": dict(self.policy.assignments),
            "comm_bytes": self.comm_bytes,
            "ranks": {
                str(rank): {
                    "residuals": _copies(self._feedback[position].residuals),
                    "accumulators": _copies(self._accumulators[position]),
                }
                for position, rank in enumerate(self.rank_ids)
            },
        }

    def load_state_dict(self, state: dict) -> None:
        """Adopt :meth:`state_dict` output, in place where buffers exist.

        Per-rank state is picked out by this engine's own rank ids, so
        a tree captured over a larger world loads into its survivors; a
        tree without ``exchange`` leaves the exchange as it is.
        """
        self.rng.bit_generator.state = copy.deepcopy(state["rng"])
        if "exchange" in state:
            self.exchange.load_state_dict(state["exchange"])
        self._round_position = int(state["round_position"])
        load_arrays(self._round_base, state["round_base"])
        if state["policy_assignments"]:
            # carried bit-width decisions override the fresh derivation
            # (they should agree — it is a pure function of the identity
            # fields — but the saved table defines the trajectory)
            self.policy.adopt(state["policy_assignments"])
        self._comm_bytes_base = (
            int(state["comm_bytes"]) - self.exchange.wire_bytes
        )
        for position, rank in enumerate(self.rank_ids):
            held = state["ranks"][str(rank)]
            load_arrays(self._feedback[position].residuals, held["residuals"])
            load_arrays(self._accumulators[position], held["accumulators"])

    def shrink(
        self, keep: list[int], parameters: list[Parameter]
    ) -> "SynchronousStep":
        """A new step engine over the surviving rank ids ``keep``.

        The survivors' subtrees are selected out of this engine's state
        tree: the shared quantization RNG continues from its current
        state, the survivors keep their error-feedback residuals and
        partial accumulations (the dead rank's are dropped with it),
        and the round continues across the eviction — the local-SGD
        base stays valid, it was captured when all replicas were still
        equal at the top of the round.  Aggregator-side exchange state
        is deliberately dropped: the MPI column ranges are
        re-partitioned over the smaller world, which orphans the old
        per-range broadcast residuals.
        """
        config = replace(
            self.config,
            world_size=len(keep),
            straggler_ranks=(),
            crash_rank=None,
            crash_step=None,
            kill_points=(),
        )
        shrunk = SynchronousStep(config, parameters, rank_ids=keep)
        state = self.state_dict()
        del state["exchange"]
        shrunk.load_state_dict(state)
        return shrunk


def _copies(arrays: dict[str, np.ndarray]) -> dict[str, np.ndarray]:
    return {name: array.copy() for name, array in arrays.items()}
