"""Core quantizer interfaces and byte accounting.

A *quantizer* is the Encode/Decode pair of the paper's Algorithm 1: it
maps a gradient tensor to a compact wire message and back to an
(approximate) gradient.  Quantizers here are pure with respect to the
gradient: stateful error feedback (1bitSGD's ϵ vector, Algorithm 2)
lives in :class:`ErrorFeedback`, a residual store any codec's stream
can be corrected through.

All encoders report the exact number of bytes their message occupies on
the wire via :attr:`EncodedTensor.nbytes`; the performance simulator and
the communication layer both consume that number, so compression ratios
in every reproduced figure are measured, never assumed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Mapping

import numpy as np

from .bucketing import bucket_count
from .workspace import EncodeWorkspace

__all__ = [
    "EncodedTensor",
    "Quantizer",
    "ErrorFeedback",
    "SumDecoder",
    "MESSAGE_HEADER_BYTES",
]

# Fixed per-message framing: scheme id (2B), dtype tag (2B), element
# count (8B), matrix shape (2 x 4B).  Matches the CNTK message header.
MESSAGE_HEADER_BYTES = 20


@dataclass(frozen=True)
class EncodedTensor:
    """A quantized gradient as it would appear on the wire.

    Attributes:
        scheme: name of the quantizer that produced the message.
        shape: shape of the original gradient tensor.
        payload: named binary sections (packed codes, scale vectors...).
            The wire size is the sum of the section sizes plus the
            fixed header.
        meta: small decode-time scalars (bucket size, code width...).
            Metadata is part of the stream configuration, negotiated
            once per run, so it does not count toward per-message bytes.
    """

    scheme: str
    shape: tuple[int, ...]
    payload: Mapping[str, np.ndarray]
    meta: Mapping[str, object] = field(default_factory=dict)

    @property
    def element_count(self) -> int:
        """Number of scalar gradient entries the message carries."""
        return int(np.prod(self.shape)) if self.shape else 1

    @cached_property
    def nbytes(self) -> int:
        """Exact wire size of the message in bytes.

        Cached per message (writes around the frozen-dataclass guard):
        the exchange layer re-reads it for traffic accounting several
        times per message, and the payload sections never change size.
        """
        return MESSAGE_HEADER_BYTES + sum(
            arr.nbytes for arr in self.payload.values()
        )

    @property
    def bits_per_element(self) -> float:
        """Effective communicated bits per gradient entry."""
        count = self.element_count
        if count == 0:
            return 0.0
        return 8.0 * self.nbytes / count


class Quantizer:
    """Encode/Decode pair for gradient communication.

    Subclasses must be deterministic given the same ``rng`` state so
    that multi-rank training runs are reproducible.  A codec defines
    either form of each half -- ``encode_into`` or ``encode``,
    ``decode_into`` or ``decode`` -- and inherits the other; defining
    neither is a ``TypeError`` when the class is created.
    """

    #: short scheme identifier used in reports ("32bit", "qsgd4", ...)
    name: str = "quantizer"
    #: nominal code width in bits (32 for full precision)
    nominal_bits: float = 32.0
    #: whether the scheme needs the trainer to run error feedback
    requires_error_feedback: bool = False

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        for plain, into in (("encode", "encode_into"), ("decode", "decode_into")):
            if all(
                getattr(cls, form) is getattr(Quantizer, form)
                for form in (plain, into)
            ):
                raise TypeError(
                    f"{cls.__name__} must define {into}() or {plain}()"
                )

    def encode(
        self, grad: np.ndarray, rng: np.random.Generator | None = None
    ) -> EncodedTensor:
        """Quantize ``grad`` into a wire message.

        The allocating form of :meth:`encode_into`: the workspace form
        run over a throwaway arena, so the message owns its buffers.
        """
        return self.encode_into(grad, rng, EncodeWorkspace())

    def decode(self, message: EncodedTensor) -> np.ndarray:
        """Reconstruct the (approximate) gradient from a message."""
        out = np.empty(message.shape, dtype=np.float32)
        return self.decode_into(message, out, workspace=EncodeWorkspace())

    def encode_into(
        self,
        grad: np.ndarray,
        rng: np.random.Generator | None = None,
        workspace: EncodeWorkspace | None = None,
    ) -> EncodedTensor:
        """Encode using ``workspace`` scratch buffers when provided.

        The returned message's payload may alias arena buffers: it is
        valid until the next ``encode_into`` on the same workspace (see
        the lifetime contract in :mod:`repro.quantization.workspace`).
        A codec that defines only :meth:`encode` gets this form from it.
        """
        return self.encode(grad, rng)

    def decode_into(
        self,
        message: EncodedTensor,
        out: np.ndarray,
        accumulate: bool = False,
        workspace: EncodeWorkspace | None = None,
    ) -> np.ndarray:
        """Decode ``message`` into ``out``; optionally add instead of set.

        ``decode_into(msg, out, accumulate=True)`` is elementwise
        bit-identical to ``out += decode(msg)`` — the decoded values
        are computed exactly as :meth:`decode` computes them and the
        accumulation preserves the operand order — but performs no
        full-tensor temporaries when the scheme provides a workspace
        kernel.  A codec that defines only :meth:`decode` gets this
        form from it.
        """
        decoded = self.decode(message)
        if accumulate:
            out += decoded
        else:
            out[...] = decoded
        return out

    def sum_decoder(
        self,
        shape: tuple[int, ...],
        workspace: EncodeWorkspace | None = None,
    ) -> "SumDecoder":
        """Accumulator that decode-sums a stream of messages for ``shape``.

        The exchanges use this to fold every rank's decoded
        contribution into one running aggregate without materializing
        per-rank tensors.  Codecs whose wire layout is a permutation of
        the gradient (bucketed schemes) override this to accumulate in
        the contiguous coded layout and permute once at the end — the
        per-element addition order is unchanged, so the result is
        bit-identical to summing dense decodes in rank order.
        """
        return SumDecoder(self, shape, workspace)

    def roundtrip(
        self, grad: np.ndarray, rng: np.random.Generator | None = None
    ) -> np.ndarray:
        """Encode then decode; the value the receiving rank will see."""
        return self.decode(self.encode(grad, rng))

    def encoded_nbytes(self, shape: tuple[int, ...]) -> int:
        """Wire size for a gradient of ``shape`` without encoding it.

        The default implementation encodes a zero tensor, which is
        exact for every fixed-rate scheme.  The in-tree codecs override
        it with a closed form: the simulator and the fabric cost every
        layer and chunk through it.
        """
        zero = np.zeros(shape, dtype=np.float32)
        return self.encode(zero, np.random.default_rng(0)).nbytes

    def draw_lanes(self, shape: tuple[int, ...]) -> tuple[int, int] | None:
        """Shape of the float64 uniform block an encode of ``shape``
        draws, when one ``rng.random`` fill of it is the encode's only
        use of the generator; ``None`` for every other codec."""
        return None

    def group_count(self, shape: tuple[int, ...]) -> int:
        """Quantization groups (columns or buckets) formed on ``shape``.

        Each group pays a reduction plus scale handling on top of the
        per-element work; the simulator costs that overhead from this
        count.  The default is one group per ``effective_bucket``-sized
        bucket; codecs that group differently (or not at all) override.
        """
        count = math.prod(shape)
        return bucket_count(count, self.effective_bucket(count))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"{type(self).__name__}(name={self.name!r})"


class SumDecoder:
    """Fused decode-accumulate over one exchange's message stream.

    ``add`` folds each message's decoded image into a running sum with
    the exact semantics of ``acc = zeros(shape); acc += decode(msg_r)``
    in call order (including the initial ``0 + x`` on the first add, so
    signed zeros match the materializing path bit-for-bit); ``result``
    returns the accumulated tensor.  The returned array lives in the
    workspace arena (a throwaway one when none is given) and is valid
    until the next decoder on the same workspace.
    """

    def __init__(
        self,
        codec: Quantizer,
        shape: tuple[int, ...],
        workspace: EncodeWorkspace | None = None,
    ):
        self.codec = codec
        self.shape = tuple(shape)
        self.workspace = workspace if workspace is not None else EncodeWorkspace()
        self._acc = self._start()

    def _start(self) -> np.ndarray | None:
        return self.workspace.zeros("sumdec.acc", self.shape)

    def add(self, message: EncodedTensor) -> None:
        """Fold one message's decoded image into the running sum."""
        self.codec.decode_into(
            message, self._acc, accumulate=True, workspace=self.workspace
        )

    def result(self) -> np.ndarray:
        """The accumulated sum (arena-backed)."""
        return self._acc


class ErrorFeedback:
    """Error-feedback residual store (Algorithm 2, lines 1 and 4).

    Keeps one residual tensor per gradient stream, whichever codec the
    stream travels with.  Before quantization :meth:`correct` adds the
    previous round's residual to the incoming gradient; once the
    corrected gradient's quantized image is known, :meth:`absorb` keeps
    the difference as the next residual.  The telescoping identity
    ``sum_t image_t = sum_t grad_t - residual_T`` holds exactly and is
    verified by property tests.
    """

    def __init__(self) -> None:
        #: stream key -> residual; the state tree carries it as is
        self.residuals: dict[str, np.ndarray] = {}

    def residual(self, key: str, like: np.ndarray) -> np.ndarray:
        """Current residual for stream ``key`` (zeros before first use).

        Allocated once, shaped and typed like ``like``, and updated in
        place from then on.
        """
        if key not in self.residuals:
            self.residuals[key] = np.zeros_like(like)
        return self.residuals[key]

    def correct(
        self, key: str, grad: np.ndarray, out: np.ndarray | None = None
    ) -> np.ndarray:
        """``grad + residual``: what stream ``key`` hands the codec."""
        return np.add(grad, self.residual(key, grad), out=out)

    def absorb(
        self, key: str, corrected: np.ndarray, image: np.ndarray
    ) -> None:
        """Keep ``corrected - image`` as stream ``key``'s residual."""
        np.subtract(corrected, image, out=self.residual(key, corrected))

    def reset(self) -> None:
        """Drop all residual state (e.g. between training runs)."""
        self.residuals.clear()
