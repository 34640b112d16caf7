"""The draw-ahead: the next rank's QSGD uniforms are drawn by a helper
thread while this rank encodes, and no trajectory moves by one bit.

``GradientExchange._reduce`` hands rank ``r + 1``'s stochastic-rounding
block to a helper thread that fills it from the run's own generator
while rank ``r`` encodes.  The draws happen in the same order and size
as the inline ``rng.random(out=...)`` calls they replace, so every
aggregate and the generator state after each reduce are unchanged.  The
digests below were computed before the draw-ahead existed; the runs
train an FC model whose first weight is large enough to take the path
at the default floor, on every exchange and every execution engine.
"""

import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

import repro.comm.base as comm_base
from repro.comm import make_exchange
from repro.core import ParallelTrainer, TrainingConfig
from repro.data import make_image_dataset
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.quantization import EncodeWorkspace, Qsgd, kernels

from .test_golden import make_golden, replay_cells

IMAGE_SIZE = 8
CLASSES = 4

#: ``History.digest()`` of each (scheme, exchange) run below, identical
#: under every engine; written before the draw-ahead was built
PINNED = {
    ("qsgd4", "nccl"): (
        "a02e9371abe20acc6ff3fd22cff564bd"
        "91e3559cf249014faaedac48dfca7c2a"
    ),
    ("qsgd4", "mpi"): (
        "8d9ba5c30b5eff80cb9340ecb41db686"
        "343695e7f38181d392997b22e20a9875"
    ),
    ("qsgd4", "alltoall"): (
        "7c2195f31149be72d27e34e3989692eb"
        "1371202bdfc688cddb8d5a7aaf5111ba"
    ),
    ("terngrad", "nccl"): (
        "2d989b7c9f4394a676e78f61746e2ddc"
        "76e299fae5f401476b18cb016fd89070"
    ),
    ("terngrad", "mpi"): (
        "d459832ef961e469ac9768bc225ce02c"
        "d87de5c1a0bffa7115722e58a41df2d9"
    ),
    ("terngrad", "alltoall"): (
        "e4891b92e4396930213ec940b44a8d35"
        "7e5cc285f45b0c780bd5a5dd6ab54de7"
    ),
}


def fc_model(seed: int) -> Sequential:
    """fc1 is 192 x 1024 = 196 608 weights: every reduce of it (the
    whole tensor, or an MPI half of 98 304) is over the default floor."""
    rng = np.random.default_rng(seed)
    features = 3 * IMAGE_SIZE * IMAGE_SIZE
    return Sequential(
        Flatten(),
        Dense(features, 1024, "fc1", rng),
        ReLU(),
        Dense(1024, CLASSES, "fc2", rng),
    )


def train_digest(scheme: str, exchange: str, engine: str) -> str:
    data = make_image_dataset(
        num_classes=CLASSES, train_samples=32, test_samples=16,
        image_size=IMAGE_SIZE, seed=0,
    )
    config = TrainingConfig(
        scheme=scheme, exchange=exchange, world_size=2, engine=engine,
        batch_size=16, lr=0.01, seed=0,
    )
    with ParallelTrainer(fc_model(1), config) as trainer:
        history = trainer.fit(
            data.train_x, data.train_y, data.test_x, data.test_y, epochs=2
        )
    return history.digest()


@pytest.fixture
def floor_zero(monkeypatch):
    """Every stochastic reduce with K > 1 takes the path."""
    monkeypatch.setattr(comm_base, "DRAW_AHEAD_FLOOR", 0)


@pytest.fixture
def takes(monkeypatch):
    """Counts the blocks handed out by the helper."""
    taken = []
    take = comm_base._DrawAhead.take

    def counting(self, rng, rank):
        taken.append(rank)
        return take(self, rng, rank)

    monkeypatch.setattr(comm_base._DrawAhead, "take", counting)
    return taken


@pytest.mark.parametrize("engine", ["sequential", "threaded", "process"])
@pytest.mark.parametrize("scheme, exchange", sorted(PINNED))
def test_draw_ahead_runs_keep_the_pinned_digest(scheme, exchange, engine, takes):
    assert train_digest(scheme, exchange, engine) == PINNED[scheme, exchange]
    # the default floor is really crossed: fc1 takes the path
    assert takes and set(takes) == {0, 1}


@pytest.mark.parametrize("backend", kernels.available_backends())
@pytest.mark.parametrize("exchange", sorted(make_golden.EXCHANGES))
def test_golden_cells_replay_with_every_reduce_drawing_ahead(
    exchange, backend, floor_zero, takes
):
    replay_cells(exchange, backend)
    assert takes


def test_small_and_single_rank_reduces_draw_inline(takes):
    rng = np.random.default_rng(0)
    codec, ws = Qsgd(4), EncodeWorkspace()
    grads = [np.ones((64, 64), np.float32)] * 4
    make_exchange("nccl", 4).exchange("w", grads, codec, rng, workspace=ws)
    big = [np.ones((512, 256), np.float32)]
    make_exchange("nccl", 1).exchange("w", big, codec, rng, workspace=ws)
    assert takes == []
    make_exchange("nccl", 2).exchange("w", big * 2, codec, rng, workspace=ws)
    assert takes == [0, 1]


class Boom(RuntimeError):
    pass


class FailingQsgd(Qsgd):
    """Qsgd whose third encode (rank 2 of a reduce) raises."""

    def __init__(self):
        super().__init__(4)
        self.calls = 0

    def encode_into(self, grad, rng=None, workspace=None, uniforms=None):
        self.calls += 1
        if self.calls == 3:
            raise Boom("rank 2")
        return super().encode_into(grad, rng, workspace, uniforms=uniforms)


def test_an_encode_error_lands_the_draw_in_flight_then_reraises(floor_zero):
    shape = (64, 64)
    rng = np.random.default_rng(7)
    grads = [np.full(shape, r + 1.0, np.float32) for r in range(4)]
    with pytest.raises(Boom):
        make_exchange("nccl", 4).exchange("w", grads, FailingQsgd(), rng)
    helper = comm_base._helper
    assert not helper.pending
    # blocks 0-2 were consumed and block 3 was in flight: it landed
    # before the error left the reduce, so the generator is exactly
    # four blocks on, and nothing draws from it any more
    reference = np.random.default_rng(7)
    reference.random(4 * 64 * 64)
    assert rng.bit_generator.state == reference.bit_generator.state
    # the helper is free for the next reduce, which stays bit-identical
    again = make_exchange("nccl", 4).exchange("w", grads, Qsgd(4), rng)
    inline = make_exchange("nccl", 4).exchange(
        "w", grads, Qsgd(4), reference
    )
    assert comm_base._helper is helper
    assert np.array_equal(again.aggregate, inline.aggregate)


def test_concurrent_reduces_share_one_helper_without_crossing_draws(
    floor_zero,
):
    # more exchanging threads than cores, switching every microsecond:
    # one reduce holds the helper and the others draw inline, and no
    # block may land in another thread's generator or buffer
    def run(seed):
        rng = np.random.default_rng(seed)
        grads = [
            np.random.default_rng(seed + r).normal(size=(96, 96))
            .astype(np.float32)
            for r in range(3)
        ]
        exchange, codec, ws = make_exchange("nccl", 3), Qsgd(4), EncodeWorkspace()
        return [
            exchange.exchange("w", grads, codec, rng, workspace=ws)
            .aggregate.copy()
            for _ in range(20)
        ]

    seeds = range(6)
    expected = {seed: run(seed) for seed in seeds}
    got, errors = {}, []

    def worker(seed):
        try:
            got[seed] = run(seed)
        except Exception as exc:  # reported below, by seed
            errors.append((seed, exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker, args=(s,)) for s in seeds]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert errors == []
    for seed in seeds:
        for want, have in zip(expected[seed], got[seed], strict=True):
            assert np.array_equal(want, have), seed


def _aggregate(seed: int) -> np.ndarray:
    grads = [
        np.random.default_rng(r).normal(size=(256, 256)).astype(np.float32)
        for r in range(3)
    ]
    result = make_exchange("mpi", 3).exchange(
        "w", grads, Qsgd(4), np.random.default_rng(seed)
    )
    return result.aggregate.copy()


@pytest.mark.skipif(not hasattr(os, "fork"), reason="needs os.fork")
def test_a_forked_child_draws_ahead_with_its_own_helper(floor_zero, takes):
    expected = _aggregate(3)  # the parent's helper is up and has drawn
    assert takes and comm_base._helper is not None
    pid = os.fork()
    if pid == 0:  # pragma: no cover - runs in the child
        ok = False
        try:
            ok = np.array_equal(_aggregate(3), expected)
        finally:
            os._exit(0 if ok else 1)
    deadline = time.monotonic() + 60
    while True:
        done, status = os.waitpid(pid, os.WNOHANG)
        if done:
            break
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            pytest.fail("forked child hung on the draw-ahead")
        time.sleep(0.01)
    assert os.waitstatus_to_exitcode(status) == 0
