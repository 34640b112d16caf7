"""The fused exchanges against a test-local reference.

Each exchange decodes every rank's message straight into a running
aggregate inside a workspace arena.  The reference below spells the
same collective out with the public allocating ``encode`` / ``decode``
wrappers, materializing every per-rank round trip:

* nccl and alltoall: the rank-order sum of the decoded messages;
* mpi: per column range, the owner's rank-order sum of the decoded
  range messages, then a broadcast that re-quantizes the sum (with a
  fresh aggregator residual for error-feedback schemes) when
  ``requantize_broadcast`` is on and the scheme is not full precision.

The aggregate must match it bit for bit, with identical wire bytes, and
error-feedback schemes must return the reference's per-rank round-trip
images -- both with a caller's workspace and with ``workspace=None``
(a throwaway one).  Unbiased schemes skip materializing those images:
``decoded_local`` is ``None`` unless NCCL sums in full precision, where
the images are the inputs themselves.
"""

import numpy as np
import pytest

from repro.comm import EXCHANGE_NAMES, make_exchange
from repro.quantization import EncodeWorkspace, FullPrecision, make_quantizer

SCHEMES = ["32bit", "qsgd4", "qsgd2", "1bit", "1bit*", "aqsgd4"]
WORLD = 4


def _tensors(shape=(32, 20)):
    return [
        np.random.default_rng(100 + r).normal(size=shape).astype(np.float32)
        for r in range(WORLD)
    ]


def _roundtrip(codec, tensor, rng):
    message = codec.encode(tensor, rng)
    return codec.decode(message), message.nbytes


def _reference_sum(exchange, codec, tensors, rng):
    """nccl / alltoall: (aggregate, per-rank images, wire bytes)."""
    decoded, nbytes = zip(*(_roundtrip(codec, t, rng) for t in tensors))
    aggregate = np.zeros(tensors[0].shape, dtype=np.float32)
    for image in decoded:
        aggregate += image
    if exchange.name == "alltoall":
        wire = sum(nbytes) * (WORLD - 1)
    else:
        # ring: reduce-scatter + allgather of ceil(payload / K)-byte
        # chunks, each padded up to whole pipeline slices
        chunk = -(-nbytes[-1] // WORLD)
        chunk = -(-chunk // exchange.slice_bytes) * exchange.slice_bytes
        wire = WORLD * chunk * 2 * (WORLD - 1)
    return aggregate, list(decoded), wire


def _reference_mpi(exchange, codec, tensors, rng):
    """mpi: per-range reduce to the owner, then broadcast."""
    shape = tensors[0].shape
    matrices = [t.reshape(shape[0], -1) for t in tensors]
    n_cols = matrices[0].shape[1]
    # block distribution: contiguous ranges, earlier owners larger
    sizes = [len(c) for c in np.array_split(np.arange(n_cols), WORLD)]
    bounds = np.concatenate([[0], np.cumsum(sizes)])
    aggregate = np.empty_like(matrices[0])
    decoded = [np.empty_like(m) for m in matrices]
    requantize = exchange.requantize_broadcast and not isinstance(
        codec, FullPrecision
    )
    wire = 0
    for owner in range(WORLD):
        lo, hi = bounds[owner], bounds[owner + 1]
        if lo == hi:
            continue
        owner_sum = np.zeros((shape[0], hi - lo), dtype=np.float32)
        for rank, matrix in enumerate(matrices):
            image, nbytes = _roundtrip(codec, matrix[:, lo:hi], rng)
            decoded[rank][:, lo:hi] = image
            owner_sum += image
            wire += 0 if rank == owner else nbytes
        if not requantize:
            aggregate[:, lo:hi] = owner_sum
            nbytes = FullPrecision().encode(owner_sum).nbytes
        elif codec.requires_error_feedback:
            # the aggregator's residual for this range starts at zero
            corrected = owner_sum + np.zeros_like(owner_sum)
            aggregate[:, lo:hi], nbytes = _roundtrip(codec, corrected, rng)
        else:
            aggregate[:, lo:hi], nbytes = _roundtrip(codec, owner_sum, rng)
        wire += nbytes * (WORLD - 1)
    return (
        aggregate.reshape(shape),
        [d.reshape(shape) for d in decoded],
        wire,
    )


def _cells(exchange_name):
    """Exchange constructions to check: mpi with and without requantize."""
    if exchange_name == "mpi":
        return [{"requantize_broadcast": True},
                {"requantize_broadcast": False}]
    return [{}]


def _runs(exchange_name, scheme):
    """(codec, exchange, result, reference) per construction x workspace."""
    for kwargs in _cells(exchange_name):
        for workspace in (None, EncodeWorkspace()):
            exchange = make_exchange(exchange_name, WORLD, **kwargs)
            codec = make_quantizer(scheme)
            result = exchange.exchange(
                "w", _tensors(), codec, np.random.default_rng(5),
                workspace=workspace,
            )
            oracle = _reference_mpi if exchange_name == "mpi" else _reference_sum
            reference = oracle(
                exchange, make_quantizer(scheme), _tensors(),
                np.random.default_rng(5),
            )
            yield codec, exchange, result, reference


def _bits(array):
    return np.ascontiguousarray(array, dtype=np.float32).view(np.uint32)


@pytest.mark.parametrize("scheme", SCHEMES)
@pytest.mark.parametrize("exchange_name", sorted(EXCHANGE_NAMES))
class TestFusedMatchesAllocating:
    def test_aggregate_bit_identical(self, exchange_name, scheme):
        for _, _, result, (aggregate, _, _) in _runs(exchange_name, scheme):
            np.testing.assert_array_equal(
                _bits(result.aggregate), _bits(aggregate)
            )

    def test_wire_bytes_unchanged(self, exchange_name, scheme):
        for _, exchange, _, (_, _, wire) in _runs(exchange_name, scheme):
            assert exchange.traffic.total_bytes == wire

    def test_decoded_local_contract(self, exchange_name, scheme):
        for codec, _, result, (_, decoded, _) in _runs(exchange_name, scheme):
            if codec.requires_error_feedback:
                # the trainer's residual update needs them: bit-identical
                assert len(result.decoded_local) == WORLD
                for mine, theirs in zip(result.decoded_local, decoded):
                    np.testing.assert_array_equal(_bits(mine), _bits(theirs))
            elif exchange_name == "nccl" and scheme == "32bit":
                # full-precision NCCL sums exactly: the round-trip images
                # are the inputs themselves, so they come back for free
                for mine, theirs in zip(result.decoded_local, _tensors()):
                    np.testing.assert_array_equal(mine, theirs)
            else:
                # unbiased schemes fuse: no per-rank tensors materialized
                assert result.decoded_local is None


@pytest.mark.parametrize("exchange_name", sorted(EXCHANGE_NAMES))
def test_workspace_reuse_across_repeated_exchanges(exchange_name):
    """Steady state: repeated exchanges stop allocating arena buffers."""
    exchange = make_exchange(exchange_name, WORLD)
    codec = make_quantizer("qsgd4")
    ws = EncodeWorkspace()
    tensors = _tensors()
    exchange.exchange("w", tensors, codec, np.random.default_rng(0), workspace=ws)
    misses = ws.misses
    for step in range(1, 4):
        exchange.exchange(
            "w", tensors, codec, np.random.default_rng(step), workspace=ws
        )
    assert ws.misses == misses, "exchange allocated after warmup"
