"""Ablation: aggregator-side requantization on the MPI broadcast path.

CNTK re-quantizes aggregated ranges before broadcasting (DESIGN.md
decision #2/#3 context): this halves broadcast traffic but adds a
second lossy stage.  The ablation measures both sides — wire bytes and
end accuracy — with requantization on and off.
"""

import numpy as np
import pytest

from repro.comm import MpiReduceBroadcast
from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.models import tiny_alexnet
from repro.quantization import make_quantizer

from conftest import run_once

WORLD = 4


@pytest.mark.parametrize("requantize", [True, False])
def test_requantize_traffic(benchmark, requantize):
    tensors = [
        np.random.default_rng(rank).normal(size=(128, 256)).astype(
            np.float32
        )
        for rank in range(WORLD)
    ]
    codec = make_quantizer("1bit*")
    exchange = MpiReduceBroadcast(WORLD, requantize_broadcast=requantize)
    rng = np.random.default_rng(0)
    calls = 0

    def call():
        nonlocal calls
        calls += 1
        return exchange.exchange("w", tensors, codec, rng)

    benchmark(call)
    print(
        f"\nrequantize={requantize}: "
        f"{exchange.wire_bytes / calls / 1e3:.0f} KB per call "
        "total traffic"
    )


@pytest.mark.parametrize("requantize", [True, False])
def test_requantize_accuracy(benchmark, requantize):
    dataset = make_image_dataset(
        num_classes=6, train_samples=256, test_samples=128,
        image_size=16, noise=1.2, seed=3,
    )
    config = TrainingConfig(
        scheme="1bit*", exchange="mpi", world_size=WORLD, batch_size=32,
        lr=0.01, lr_decay=0.93, seed=0, requantize_broadcast=requantize,
    )

    def train():
        model = tiny_alexnet(num_classes=6, image_size=16, seed=1)
        trainer = ParallelTrainer(model, config)
        return trainer.fit(
            dataset.train_x, dataset.train_y,
            dataset.test_x, dataset.test_y, epochs=6,
        )

    history = run_once(benchmark, train)
    print(
        f"\nrequantize={requantize}: final accuracy "
        f"{history.final_test_accuracy:.3f}, "
        f"{history.total_comm_bytes / 1e6:.1f} MB moved"
    )
