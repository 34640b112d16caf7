"""Microbenchmarks: the collective exchange implementations.

Measures the in-process MPI reduce-and-broadcast, NCCL ring, and
literal Algorithm-1 exchanges, and prints the wire traffic each moves
for the same aggregation job.
"""

import numpy as np
import pytest

from repro.comm import make_exchange
from repro.quantization import make_quantizer

WORLD = 4
SHAPE = (256, 512)


@pytest.fixture(scope="module")
def tensors():
    return [
        np.random.default_rng(rank).normal(size=SHAPE).astype(np.float32)
        for rank in range(WORLD)
    ]


@pytest.mark.parametrize("exchange_name", ["mpi", "nccl", "alltoall"])
@pytest.mark.parametrize("scheme", ["32bit", "qsgd4"])
def test_exchange_throughput(benchmark, tensors, exchange_name, scheme):
    codec = make_quantizer(scheme)
    exchange = make_exchange(exchange_name, WORLD)
    rng = np.random.default_rng(0)
    calls = 0

    def call():
        nonlocal calls
        calls += 1
        return exchange.exchange("w", tensors, codec, rng)

    result = benchmark(call)
    assert result.aggregate.shape == SHAPE
    print(
        f"\n{exchange_name}/{scheme}: "
        f"{exchange.wire_bytes / 1e6:.1f} MB total traffic "
        f"({exchange.wire_bytes / calls / 1e3:.1f} KB per call) "
        f"across {calls} calls"
    )
