"""Collective-exchange skeleton shared by the MPI, NCCL and all-to-all paths.

A :class:`GradientExchange` implements line 4-8 of the paper's
Algorithm 1 for one gradient tensor: every rank contributes its local
gradient, and every rank receives the identical aggregated (summed)
gradient.  Every collective is one or more *reduces* — each rank
encodes its part, the encoded bytes travel, the decodes are summed in
rank order — written once here; an exchange declares only where the
bytes of a reduce go (:meth:`GradientExchange._route`) and, for MPI,
how the tensor is partitioned and broadcast back.  Bytes are recorded
at one site, :meth:`GradientExchange._send`.

A reduce whose codec draws one uniform block per encode (QSGD,
TernGrad: :meth:`~repro.quantization.base.Quantizer.draw_lanes`) draws
rank ``r + 1``'s block on a helper thread while rank ``r`` encodes.
Every part of a reduce has one shape, so the blocks are drawn from the
run's generator in the order and size the encodes would draw them, and
the reduce returns only after the last is consumed: no draw crosses a
reduce, and the generator leaves it exactly as the inline draws did.
"""

from __future__ import annotations

import abc
import os
import threading
from dataclasses import dataclass

import numpy as np

from ..quantization.base import Quantizer
from ..quantization.workspace import EncodeWorkspace
from ..telemetry.tracer import NULL_TRACER

__all__ = ["ExchangeResult", "GradientExchange"]


#: fewest uniforms (float64) per encode worth drawing ahead: on a
#: 2-core x86 box a lock handoff to the helper and back takes 12-16 us
#: and a 65 536-double ``rng.random`` fill 154-174 us, ten times that
DRAW_AHEAD_FLOOR = 1 << 16


class _DrawAhead:
    """A persistent helper thread that draws the next rank's block.

    Two grow-only flat float64 buffers, viewed to the reduce's lanes,
    alternate between the encoding rank and the helper.  The handoff is
    two preallocated locks, so a draw allocates nothing.
    """

    def __init__(self) -> None:
        self._go, self._done = threading.Lock(), threading.Lock()
        self._go.acquire()
        self._done.acquire()
        self._flat = [np.empty(0), np.empty(0)]
        self.pending = False
        threading.Thread(target=self._serve, name="draw-ahead", daemon=True).start()

    def _serve(self) -> None:
        # each reduce draws its first block inline, so the generator and
        # the block are proven before the helper draws into the other
        while True:
            self._go.acquire()
            self._rng.random(out=self._next)  # numpy drops the GIL here
            self._done.release()

    def plan(self, lanes: tuple[int, int], count: int) -> _DrawAhead:
        size, self._count = lanes[0] * lanes[1], count
        self._flat = [f if f.size >= size else np.empty(size) for f in self._flat]
        self._blocks = [f[:size].reshape(lanes) for f in self._flat]
        return self

    def take(self, rng: np.random.Generator, rank: int) -> np.ndarray:
        """Rank ``rank``'s block, once drawn; the next rank's is started."""
        block = self._blocks[rank % 2]
        if rank == 0:
            rng.random(out=block)  # the first draw stays exposed
        self.wait()
        if rank + 1 < self._count:
            self._rng, self._next, self.pending = rng, self._blocks[(rank + 1) % 2], True
            self._go.release()
        return block

    def wait(self) -> None:
        """Block until the draw in flight, if any, has landed."""
        if self.pending:
            self.pending = False
            self._done.acquire()


_helper: _DrawAhead | None = None
#: held by the reduce drawing ahead; a concurrent reduce draws inline
_helper_lock = threading.Lock()


def _draw_ahead(lanes: tuple[int, int] | None, count: int) -> _DrawAhead | None:
    """The helper, planned for ``count`` blocks of ``lanes`` and held by
    the caller; ``None``: draw inline (no block, K = 1, under the floor,
    or the helper is in use)."""
    global _helper
    big = lanes is not None and count > 1 and lanes[0] * lanes[1] >= DRAW_AHEAD_FLOOR
    if not big or not _helper_lock.acquire(blocking=False):
        return None
    _helper = _helper or _DrawAhead()
    return _helper.plan(lanes, count)


# a forked child has no helper thread: it starts its own on demand
os.register_at_fork(after_in_child=lambda: globals().update(_helper=None))


@dataclass
class ExchangeResult:
    """Outcome of one collective gradient exchange.

    Attributes:
        aggregate: the summed gradient, identical at every rank (the
            synchronous-SGD invariant; tests assert it).  This array
            aliases a workspace arena buffer and is valid until the
            next exchange on the same workspace — consume (or copy) it
            before then.
        decoded_local: per rank, what that rank's own contribution
            looked like after its quantization round-trip.  The trainer
            uses this to update error-feedback residuals.  ``None``
            when the codec does not require error feedback and the
            round-trip images were folded straight into the aggregate
            (fused decode-accumulate) instead of materialized.
    """

    aggregate: np.ndarray
    decoded_local: list[np.ndarray] | None


class GradientExchange(abc.ABC):
    """One collective pattern (MPI reduce-and-broadcast, NCCL ring...).

    Instances are stateful only where the real system is stateful
    (e.g. the MPI path's aggregator-side error feedback).

    Attributes:
        wire_bytes: bytes put on links since construction (or since the
            owner zeroed it); self-sends are local hand-offs and free.
        tracer: telemetry handle, installed by ``SynchronousStep`` when
            tracing is on; the default null tracer makes every span a
            shared no-op and has no counter sink, so untraced exchanges
            pay only the call sites.
    """

    name: str = "exchange"

    def __init__(self, world_size: int):
        if world_size < 1:
            raise ValueError(f"world_size must be >= 1, got {world_size}")
        self.world_size = world_size
        self.wire_bytes = 0
        self.tracer = NULL_TRACER

    def _send(self, src: int, dst: int, nbytes: int, key: str) -> None:
        """Put ``nbytes`` of stream ``key`` on the link ``src -> dst``.

        The one place bytes are recorded: the total feeds
        ``SynchronousStep.comm_bytes``, and a tracer's counter sink sees
        every transfer (per rank up and down, and per layer).
        """
        if src == dst:
            return  # local hand-off: nothing crosses a link
        self.wire_bytes += nbytes
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_wire(src, dst, nbytes, key)

    def _count_encode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec encode into the tracer's typed counters.

        A non-empty ``key`` (the gradient stream / parameter name)
        attributes the call to that layer's measured encode-cost
        profile, which the adaptive bit-width policy consumes.
        """
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_encode(nbytes, key or None)

    def _count_decode(self, nbytes: int, key: str = "") -> None:
        """Mirror one codec decode into the tracer's typed counters."""
        sink = self.tracer.counter_sink
        if sink is not None:
            sink.count_decode(nbytes, key or None)

    @abc.abstractmethod
    def _route(self, src: int, nbytes: int, key: str, dst: int | None) -> None:
        """Send one rank's encoded part (``nbytes``) where it must go.

        ``dst`` is the rank the reduce delivers to (MPI's range owner);
        ``None`` for the allreduce patterns, which deliver to everyone.
        """

    def _images(
        self, codec: Quantizer, shape: tuple[int, ...], ws: EncodeWorkspace
    ) -> list[np.ndarray] | None:
        """Per-rank round-trip image buffers, if error feedback needs them."""
        if not codec.requires_error_feedback:
            return None
        return [
            ws.array(("xchg.dl", rank), shape)
            for rank in range(self.world_size)
        ]

    def _reduce(
        self,
        key: str,
        parts: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        ws: EncodeWorkspace,
        images: list[np.ndarray] | None,
        dst: int | None = None,
    ) -> np.ndarray:
        """Encode every rank's part, route its bytes, sum the decodes.

        With ``images`` each decode is materialized into its rank's
        image (the error-feedback residual needs it) and added to the
        sum; without, it folds straight into the codec's fused
        ``sum_decoder``.  Both add in rank order onto zeros, so the
        sums are bit-identical.  The returned sum is arena-backed.
        """
        tracer = self.tracer
        if images is None:
            decoder = codec.sum_decoder(parts[0].shape, ws)
        else:
            total = ws.zeros("xchg.sum", parts[0].shape)
        ahead = _draw_ahead(codec.draw_lanes(parts[0].shape), len(parts))
        try:
            for rank, part in enumerate(parts):
                with tracer.span("encode", rank):
                    message = (
                        codec.encode_into(part, rng, ws) if ahead is None
                        else codec.encode_into(part, rng, ws, uniforms=ahead.take(rng, rank))
                    )
                self._count_encode(message.nbytes, key)
                self._route(rank, message.nbytes, key, dst)
                with tracer.span("decode", rank):
                    if images is None:
                        decoder.add(message)
                    else:
                        codec.decode_into(message, images[rank], workspace=ws)
                        total += images[rank]
                self._count_decode(message.nbytes, key)
        finally:
            if ahead is not None:
                # on an error the block in flight lands before the
                # caller's rollback restores the generator
                ahead.wait()
                _helper_lock.release()
        return decoder.result() if images is None else total

    def exchange(
        self,
        key: str,
        tensors: list[np.ndarray],
        codec: Quantizer,
        rng: np.random.Generator,
        workspace: EncodeWorkspace | None = None,
    ) -> ExchangeResult:
        """Aggregate one gradient tensor across all ranks.

        Args:
            key: stable stream identifier (parameter name); collectives
                with aggregator-side state key it by this.
            tensors: one gradient per rank, all of identical shape.
            codec: the quantizer applied on the wire.
            rng: randomness source for stochastic quantizers.
            workspace: scratch arena for the zero-allocation hot path
                (``None``: a throwaway one).  Encode/decode run through
                the codec's ``*_into`` kernels and per-rank decodes are
                fused into a single running accumulator in rank order,
                so the aggregate is bit-identical to summing dense
                decodes.  Not thread-safe: one workspace per exchanging
                thread.

        The allreduce patterns reduce the whole tensor in one pass.
        """
        shape = self._check_inputs(tensors)
        ws = workspace if workspace is not None else EncodeWorkspace()
        images = self._images(codec, shape, ws)
        parts = [np.asarray(t, dtype=np.float32) for t in tensors]
        aggregate = self._reduce(key, parts, codec, rng, ws, images)
        return ExchangeResult(aggregate=aggregate, decoded_local=images)

    def _check_inputs(self, tensors: list[np.ndarray]) -> tuple[int, ...]:
        if len(tensors) != self.world_size:
            raise ValueError(
                f"expected {self.world_size} rank tensors, got {len(tensors)}"
            )
        shape = tensors[0].shape
        for rank, tensor in enumerate(tensors):
            if tensor.shape != shape:
                raise ValueError(
                    f"rank {rank} tensor shape {tensor.shape} != {shape}"
                )
        return shape

    def state_dict(self) -> dict:
        """Copy of any aggregator-side numeric state, as a state tree.

        Empty for a stateless collective.  It is one subtree of the
        run's state tree (:mod:`repro.statetree`), so checkpoints and
        retry rollbacks carry exchanges with server-side error feedback
        (the MPI path's re-quantized broadcast) without naming them.
        """
        return {}

    def load_state_dict(self, state: dict) -> None:
        """Restore state captured by :meth:`state_dict`."""
        if state:
            raise ValueError(
                f"{self.name} exchange is stateless but received "
                f"{len(state)} state entries"
            )
