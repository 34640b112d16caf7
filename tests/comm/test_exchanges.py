"""Tests for the collective gradient exchanges.

Covers the synchronous-SGD invariants: every rank sees the identical
aggregate; full precision sums exactly; quantized aggregates stay close
to the true sum; and the byte counts on the wire reflect compression.
"""

import numpy as np
import pytest

from repro.comm import (
    AllToAllBroadcast,
    MpiReduceBroadcast,
    NcclRingAllreduce,
    make_exchange,
)
from repro.quantization import FullPrecision, make_quantizer
from repro.telemetry import Tracer
from repro.telemetry.tracer import NullTracer


def make_tensors(world_size, shape=(32, 100), seed=0):
    return [
        np.random.default_rng(seed + rank).normal(size=shape).astype(
            np.float32
        )
        for rank in range(world_size)
    ]


EXCHANGES = ["mpi", "nccl", "alltoall"]


class Ledger(NullTracer):
    """Untimed tracer whose counter sink keeps every wire transfer."""

    def __init__(self):
        self.counter_sink = self
        self.transfers = []

    def count_wire(self, src, dst, nbytes, tag=""):
        self.transfers.append((src, dst, nbytes))

    def count_encode(self, nbytes, key=None):
        pass

    count_decode = count_encode


class TestExactSum:
    @pytest.mark.parametrize("name", EXCHANGES)
    @pytest.mark.parametrize("world_size", [1, 2, 3, 4, 8])
    def test_fullprec_sums_exactly(self, name, world_size):
        tensors = make_tensors(world_size)
        exchange = make_exchange(name, world_size)
        result = exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        np.testing.assert_allclose(
            result.aggregate, sum(tensors), rtol=1e-5, atol=1e-4
        )

    @pytest.mark.parametrize("name", EXCHANGES)
    def test_decoded_local_is_input_for_fullprec(self, name):
        # full precision needs no error feedback, so on every exchange
        # its round-trip images (the inputs themselves) are fused away
        # into an exact sum
        tensors = make_tensors(3)
        exchange = make_exchange(name, 3)
        result = exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        assert result.decoded_local is None
        np.testing.assert_array_equal(
            result.aggregate, tensors[0] + tensors[1] + tensors[2]
        )


class TestQuantizedAggregation:
    @pytest.mark.parametrize("name", EXCHANGES)
    @pytest.mark.parametrize("scheme", ["qsgd8", "qsgd4", "1bit*"])
    def test_aggregate_close_to_true_sum(self, name, scheme):
        world_size = 4
        tensors = make_tensors(world_size)
        exchange = make_exchange(name, world_size)
        codec = make_quantizer(scheme)
        result = exchange.exchange(
            "w", tensors, codec, np.random.default_rng(0)
        )
        exact = sum(tensors)
        scale = np.abs(exact).max()
        # quantization error per rank is bounded by the bucket scale
        assert np.abs(result.aggregate - exact).mean() < scale

    @pytest.mark.parametrize("name", EXCHANGES)
    def test_aggregate_identical_across_all_ranks_by_construction(
        self, name
    ):
        # the API returns one aggregate; verify determinism across two
        # identical calls so replicas applying it stay in sync
        tensors = make_tensors(4)
        codec = make_quantizer("qsgd4")
        a = make_exchange(name, 4).exchange(
            "w", tensors, codec, np.random.default_rng(3)
        )
        b = make_exchange(name, 4).exchange(
            "w", tensors, codec, np.random.default_rng(3)
        )
        np.testing.assert_array_equal(a.aggregate, b.aggregate)

    def test_mpi_equals_alltoall_when_buckets_align(self):
        # with column count divisible by K and bucket dividing rows,
        # the range-partitioned pipeline reproduces Algorithm 1 exactly
        tensors = make_tensors(4, shape=(64, 64))
        codec = make_quantizer("1bit*", bucket_size=64)
        mpi = MpiReduceBroadcast(4, requantize_broadcast=False)
        a2a = AllToAllBroadcast(4)
        rng = np.random.default_rng(0)
        result_mpi = mpi.exchange("w", tensors, codec, rng)
        result_a2a = a2a.exchange("w", tensors, codec, rng)
        np.testing.assert_allclose(
            result_mpi.aggregate, result_a2a.aggregate, atol=1e-5
        )


class TestByteAccounting:
    def test_mpi_traffic_formula_fullprec(self):
        # reduce + broadcast each move (K-1) x payload in total
        world_size = 4
        tensors = make_tensors(world_size, shape=(64, 64))
        exchange = MpiReduceBroadcast(world_size)
        exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        payload = 64 * 64 * 4
        total = exchange.wire_bytes
        expected = 2 * (world_size - 1) * payload
        # headers add a small constant per message
        assert expected <= total <= expected * 1.05

    def test_quantization_reduces_mpi_traffic(self):
        tensors = make_tensors(4, shape=(64, 512))
        full = MpiReduceBroadcast(4)
        full.exchange("w", tensors, FullPrecision(), np.random.default_rng(0))
        quant = MpiReduceBroadcast(4)
        quant.exchange(
            "w", tensors, make_quantizer("qsgd4"), np.random.default_rng(0)
        )
        ratio = full.wire_bytes / quant.wire_bytes
        assert 6 < ratio < 9  # ~32/4 minus scale/header overhead

    def test_nccl_ring_traffic_is_bandwidth_optimal(self):
        world_size = 4
        # large tensor so slice padding is negligible
        tensors = make_tensors(world_size, shape=(512, 512))
        exchange = NcclRingAllreduce(world_size)
        exchange.tracer = tracer = Tracer()
        exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        payload = 512 * 512 * 4
        per_rank = tracer.counters.bytes_sent(0)
        optimal = 2 * (world_size - 1) / world_size * payload
        assert optimal <= per_rank <= optimal * 1.1

    def test_nccl_only_uses_ring_links(self):
        world_size = 4
        tensors = make_tensors(world_size)
        exchange = NcclRingAllreduce(world_size)
        exchange.tracer = ledger = Ledger()
        exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        assert len(ledger.transfers) == world_size
        for src, dst, _ in ledger.transfers:
            assert dst == (src + 1) % world_size

    def test_alltoall_moves_k_times_k_minus_one_messages(self):
        world_size = 3
        tensors = make_tensors(world_size, shape=(8, 8))
        exchange = AllToAllBroadcast(world_size)
        exchange.tracer = ledger = Ledger()
        exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        assert len(ledger.transfers) == world_size * (world_size - 1)

    def test_single_rank_no_traffic(self):
        for name in EXCHANGES:
            exchange = make_exchange(name, 1)
            result = exchange.exchange(
                "w",
                make_tensors(1),
                make_quantizer("qsgd4"),
                np.random.default_rng(0),
            )
            assert exchange.wire_bytes == 0
            assert result.aggregate.shape == (32, 100)


class TestMpiRequantization:
    def test_requantize_broadcast_uses_aggregator_feedback(self):
        # with a biased codec, repeated exchanges must not accumulate
        # systematic error thanks to the aggregator-side residual
        world_size = 2
        codec = make_quantizer("1bit*", bucket_size=16)
        exchange = MpiReduceBroadcast(world_size, requantize_broadcast=True)
        rng = np.random.default_rng(0)
        grad = np.ones((16, 16), dtype=np.float32)
        total = np.zeros_like(grad)
        rounds = 50
        for _ in range(rounds):
            result = exchange.exchange("w", [grad, grad], codec, rng)
            total += result.aggregate
        # each round's true sum is 2.0 everywhere
        np.testing.assert_allclose(
            total / rounds, 2.0 * np.ones_like(grad), atol=0.2
        )

    def test_each_stream_is_requantized_with_its_own_codec(self):
        # the aggregator's error-feedback wrapper follows the codec: a
        # topk stream after a 1bit one costs what it costs on its own
        def wire(exchange, key, scheme):
            before = exchange.wire_bytes
            exchange.exchange(
                key, make_tensors(2, shape=(64, 64)),
                make_quantizer(scheme), np.random.default_rng(0),
            )
            return exchange.wire_bytes - before

        fresh = wire(MpiReduceBroadcast(2), "b", "topk0.01")
        mixed = MpiReduceBroadcast(2)
        wire(mixed, "a", "1bit")
        assert fresh == 720
        assert wire(mixed, "b", "topk0.01") == fresh
        # both streams' residuals stay in the owner -> stream -> array tree
        state = mixed.state_dict()
        assert sorted(state) == ["0", "1"]
        assert sorted(state["0"]) == ["a/range0", "b/range0"]

    def test_broadcast_decodes_each_range_once(self):
        # K ranks x 2 ranges reduce decodes, then one decode per range
        # straight into the aggregate: the owner's residual absorbs
        # that same image instead of decoding the message again
        codec = make_quantizer("1bit")
        calls = []
        decode_into = codec.decode_into

        def counting(*args, **kwargs):
            calls.append(1)
            return decode_into(*args, **kwargs)

        codec.decode_into = counting
        exchange = MpiReduceBroadcast(2)
        exchange.exchange(
            "w", make_tensors(2, shape=(64, 64)), codec,
            np.random.default_rng(0),
        )
        assert len(calls) == 2 * 2 + 2
        assert sorted(exchange.state_dict()) == ["0", "1"]

    def test_requantize_off_broadcasts_exact_aggregate(self):
        world_size = 2
        codec = make_quantizer("1bit*", bucket_size=16)
        tensors = make_tensors(world_size, shape=(16, 16))
        exchange = MpiReduceBroadcast(world_size, requantize_broadcast=False)
        result = exchange.exchange(
            "w", tensors, codec, np.random.default_rng(0)
        )
        expected = sum(
            codec.roundtrip(t, np.random.default_rng(9)) for t in tensors
        )
        # aggregate equals the sum of per-rank quantized gradients
        assert result.aggregate.shape == expected.shape


class TestValidation:
    def test_wrong_rank_count_rejected(self):
        exchange = make_exchange("mpi", 4)
        with pytest.raises(ValueError, match="expected 4"):
            exchange.exchange(
                "w", make_tensors(3), FullPrecision(),
                np.random.default_rng(0),
            )

    def test_mismatched_shapes_rejected(self):
        exchange = make_exchange("nccl", 2)
        tensors = [
            np.zeros((2, 2), dtype=np.float32),
            np.zeros((3, 2), dtype=np.float32),
        ]
        with pytest.raises(ValueError, match="shape"):
            exchange.exchange(
                "w", tensors, FullPrecision(), np.random.default_rng(0)
            )

    def test_unknown_exchange_rejected(self):
        with pytest.raises(ValueError, match="unknown exchange"):
            make_exchange("infiniband", 2)

    def test_invalid_world_size_rejected(self):
        with pytest.raises(ValueError):
            make_exchange("mpi", 0)
