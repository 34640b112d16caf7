"""Cross-layer integration tests.

The strongest consistency check in the repository: the performance
simulator's *analytic* byte counts must agree with the bytes the real
communication layer actually puts on the wire when exchanging
gradients of the same shapes — the two are computed by entirely
different code paths.  They agree exactly on the MPI path; on the NCCL
ring they differ by exactly the ring's slice padding, which only the
comm layer charges.
"""

import numpy as np
import pytest

from repro.comm import MpiReduceBroadcast, NcclRingAllreduce
from repro.models.specs import GradientMatrixSpec, NetworkSpec
from repro.quantization import SCHEME_NAMES, make_quantizer
from repro.simulator import NetworkCostModel


def tiny_network() -> NetworkSpec:
    """A small synthetic spec the comm layer can exchange for real."""
    layers = (
        GradientMatrixSpec("fc1", 64, 96, "fc"),
        GradientMatrixSpec("conv1", 3, 1200, "conv"),
        GradientMatrixSpec("fc2", 128, 32, "fc"),
        GradientMatrixSpec("bias", 17, 1, "bias"),
    )
    return NetworkSpec(
        name="Tiny",
        dataset="synthetic",
        samples_per_epoch=1000,
        epochs_to_converge=10,
        initial_lr=0.1,
        gflops_per_sample=0.1,
        k80_samples_per_second=100.0,
        published_accuracy=0.0,
        batch_sizes={1: 32, 2: 32, 4: 32},
        layers=layers,
    )


WORLD = 4


#: every registered scheme plus one example of each extension syntax
BYTE_MODEL_SCHEMES = SCHEME_NAMES + ("aqsgd4", "topk0.01", "terngrad2.5")


def exchange_spec(exchange, cost):
    """Route each layer of ``cost``'s spec through the codec it chose."""
    rng = np.random.default_rng(0)
    for matrix_cost in cost.matrices:
        layer = matrix_cost.spec
        codec = (
            cost.codec if matrix_cost.quantized else make_quantizer("32bit")
        )
        tensors = [
            np.random.default_rng(rank)
            .normal(size=layer.shape)
            .astype(np.float32)
            for rank in range(WORLD)
        ]
        exchange.exchange(layer.name, tensors, codec, rng)


class TestSimulatorMatchesCommLayer:
    @pytest.mark.parametrize("scheme", BYTE_MODEL_SCHEMES)
    def test_mpi_reduce_traffic_matches_cost_model(self, scheme):
        cost = NetworkCostModel(
            tiny_network(), scheme, world_size=WORLD,
            passthrough_coverage=0.99,
        )
        exchange = MpiReduceBroadcast(WORLD, requantize_broadcast=True)
        exchange_spec(exchange, cost)
        # reduce phase sends (K-1) x range payload; the requantized
        # broadcast phase sends (K-1) x the same payload again
        assert exchange.wire_bytes == 2 * (WORLD - 1) * cost.total_range_bytes

    def test_nccl_ring_traffic_matches_cost_model(self):
        # the ring pads each rank's ceil(payload / K)-byte chunk up to
        # whole 8 KiB slices; the simulator charges the unpadded
        # 2(K-1)/K of each rank's payload.  On this spec every chunk
        # fits one slice, so every scheme records the same bytes -- the
        # padding gap of ROADMAP item 2(b), pinned here, not fixed
        slice_bytes = 8 * 1024
        for scheme in BYTE_MODEL_SCHEMES:
            cost = NetworkCostModel(tiny_network(), scheme, world_size=WORLD)
            exchange = NcclRingAllreduce(WORLD)
            exchange_spec(exchange, cost)
            chunks = [-(-m.whole_bytes // WORLD) for m in cost.matrices]
            padded = [-(-c // slice_bytes) * slice_bytes for c in chunks]
            ring = WORLD * 2 * (WORLD - 1)
            assert exchange.wire_bytes == ring * sum(padded) == 786_432
            simulated = 2 * (WORLD - 1) / WORLD * cost.total_whole_bytes
            padding = ring * sum(padded) - 2 * (WORLD - 1) * sum(
                m.whole_bytes for m in cost.matrices
            )
            assert exchange.wire_bytes - simulated * WORLD == padding > 0

    def test_passthrough_threshold_agrees_across_layers(self):
        # the cost model and the trainer's policy must route the same
        # matrices to full precision
        from repro.core import SynchronousStep, TrainingConfig
        from repro.nn.module import Parameter

        spec = tiny_network()
        cost = NetworkCostModel(spec, "qsgd4", world_size=WORLD)
        params = [
            Parameter(l.name, np.zeros(l.shape, dtype=np.float32))
            for l in spec.layers
        ]
        step = SynchronousStep(
            TrainingConfig(scheme="qsgd4", world_size=WORLD, batch_size=8),
            params,
        )
        for layer, matrix_cost in zip(spec.layers, cost.matrices):
            codec = step.policy.table[layer.name]
            assert (codec.name != "32bit") == matrix_cost.quantized
