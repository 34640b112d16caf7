"""Property-based tests for the collective exchanges.

Randomized world sizes, tensor shapes, and codecs; the synchronous-SGD
invariants must hold for all of them.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import make_exchange
from repro.quantization import FullPrecision, make_quantizer

SCHEMES = st.sampled_from(["32bit", "qsgd4", "qsgd8", "1bit*"])
EXCHANGES = st.sampled_from(["mpi", "nccl", "alltoall"])
WORLDS = st.integers(min_value=1, max_value=6)
DIMS = st.tuples(
    st.integers(min_value=1, max_value=12),
    st.integers(min_value=1, max_value=12),
)


def rank_tensors(world_size, shape, seed):
    return [
        np.random.default_rng(seed * 100 + rank)
        .normal(size=shape)
        .astype(np.float32)
        for rank in range(world_size)
    ]


class TestExchangeProperties:
    @settings(max_examples=40, deadline=None)
    @given(
        exchange_name=EXCHANGES,
        world_size=WORLDS,
        shape=DIMS,
        seed=st.integers(0, 50),
    )
    def test_fullprec_exact_for_any_configuration(
        self, exchange_name, world_size, shape, seed
    ):
        tensors = rank_tensors(world_size, shape, seed)
        exchange = make_exchange(exchange_name, world_size)
        result = exchange.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        np.testing.assert_allclose(
            result.aggregate, sum(tensors), rtol=1e-4, atol=1e-4
        )

    @settings(max_examples=40, deadline=None)
    @given(
        exchange_name=EXCHANGES,
        scheme=SCHEMES,
        world_size=WORLDS,
        shape=DIMS,
        seed=st.integers(0, 50),
    )
    def test_aggregate_shape_and_finiteness(
        self, exchange_name, scheme, world_size, shape, seed
    ):
        tensors = rank_tensors(world_size, shape, seed)
        exchange = make_exchange(exchange_name, world_size)
        codec = make_quantizer(scheme)
        result = exchange.exchange(
            "w", tensors, codec, np.random.default_rng(0)
        )
        assert result.aggregate.shape == tuple(shape)
        assert np.isfinite(result.aggregate).all()
        # round-trip images exist for error feedback (and NCCL's exact
        # full-precision sum); otherwise they were fused away
        if codec.requires_error_feedback or (
            exchange_name == "nccl" and scheme == "32bit"
        ):
            assert len(result.decoded_local) == world_size
        else:
            assert result.decoded_local is None

    @settings(max_examples=30, deadline=None)
    @given(
        scheme=SCHEMES,
        world_size=st.integers(min_value=2, max_value=6),
        shape=DIMS,
        seed=st.integers(0, 50),
    )
    def test_traffic_symmetric_across_ranks_mpi(
        self, scheme, world_size, shape, seed
    ):
        # in the reduce-and-broadcast pattern every rank sends its
        # ranges and every owner broadcasts: totals balance globally
        tensors = rank_tensors(world_size, shape, seed)
        exchange = make_exchange("mpi", world_size)
        exchange.exchange(
            "w", tensors, make_quantizer(scheme), np.random.default_rng(0)
        )
        sent = sum(
            exchange.traffic.sent_by(rank) for rank in range(world_size)
        )
        received = sum(
            exchange.traffic.received_by(rank)
            for rank in range(world_size)
        )
        assert sent == received == exchange.traffic.total_bytes

    @settings(max_examples=30, deadline=None)
    @given(
        world_size=st.integers(min_value=2, max_value=6),
        shape=st.tuples(
            st.integers(min_value=4, max_value=12),
            st.integers(min_value=4, max_value=12),
        ),
        seed=st.integers(0, 50),
    )
    def test_quantized_never_more_traffic_than_fullprec_alltoall(
        self, world_size, shape, seed
    ):
        # needs a non-trivial tensor: on 1-element tensors the scale
        # float plus header outweighs the 32-bit payload
        tensors = rank_tensors(world_size, shape, seed)
        full = make_exchange("alltoall", world_size)
        full.exchange(
            "w", tensors, FullPrecision(), np.random.default_rng(0)
        )
        quant = make_exchange("alltoall", world_size)
        quant.exchange(
            "w",
            tensors,
            make_quantizer("qsgd8", bucket_size=64),
            np.random.default_rng(0),
        )
        # 8-bit codes + per-bucket scales always beat 32-bit floats
        assert quant.traffic.total_bytes <= full.traffic.total_bytes
