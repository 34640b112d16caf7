"""The four training workloads, all driven through ``ParallelTrainer.fit``.

Every workload trains 20-step epochs on a synthetic 16x16 image set
until ``--seconds`` have passed and at least 100 steps are done (p90
needs ten samples beyond it), after a 5-step warm-up ``fit`` that ends
set-up.  ``--seed`` is the dataset seed, the ``TrainingConfig`` seed
and (plus one) the model seed.

The traced run installs its span wrappers once and switches them on for
every second epoch from ``fit``'s ``on_epoch`` hook.  The plain epochs in
between are the baseline ``bench.trace_overhead_share`` is read against
(same process, same trainer, interleaved, so drift cancels), and all
epochs belong to one ``History`` that is compared, bit for bit, with the
untraced run's.
"""

from __future__ import annotations

import math
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import repro.core.trainer as trainer_module
from repro import ParallelTrainer, TrainingConfig
from repro.core import CheckpointPolicy, History, TrainingInterrupted
from repro.data import make_image_dataset
from repro.models import tiny_alexnet, tiny_resnet
from repro.nn import Dense, Flatten, ReLU, Sequential
from repro.quantization import EncodeWorkspace, bitpack, kernels
from repro.quantization.bucketing import bucket_plan
from repro.telemetry import NULL_TRACER
from repro.units import gbps_to_bytes_per_second

import stats
from catalog import WATERFALL_GATE, WATERFALL_GATED
from spans import SpanRecorder

STEPS_PER_EPOCH = 20
WARMUP_STEPS = 5
#: fewest timed steps of an untraced run: p90 then has ten beyond it
MIN_STEPS = 100
#: fewest steps of a traced run: two plain and two traced epochs
MIN_TRACED_RUN_STEPS = 4 * STEPS_PER_EPOCH
TAIL = stats.tail_percentile(MIN_STEPS)
IMAGE_SIZE = 16
CLASSES = 10
TEST_SAMPLES = 64


@dataclass(frozen=True)
class TrainWorkload:
    build_model: Callable[[int], Sequential]
    config: dict
    checkpoint_every: int | None = None


def fc_heavy(seed: int) -> Sequential:
    """AlexNet/VGG keep their gradient mass in FC layers; so does this."""
    rng = np.random.default_rng(seed)
    features = 3 * IMAGE_SIZE * IMAGE_SIZE
    return Sequential(
        Flatten(),
        Dense(features, 1024, "fc1", rng),
        ReLU(),
        Dense(1024, 1024, "fc2", rng),
        ReLU(),
        Dense(1024, CLASSES, "fc3", rng),
    )


def _resnet(seed: int) -> Sequential:
    return tiny_resnet(num_classes=CLASSES, seed=seed)


def _alexnet(seed: int) -> Sequential:
    return tiny_alexnet(num_classes=CLASSES, image_size=IMAGE_SIZE, seed=seed)


TRAIN = {
    "train-compute": TrainWorkload(
        _resnet,
        dict(scheme="32bit", exchange="mpi", world_size=1,
             engine="sequential", batch_size=32),
    ),
    "train-codec": TrainWorkload(
        fc_heavy,
        dict(scheme="qsgd4", exchange="nccl", world_size=4,
             engine="sequential", batch_size=16),
    ),
    "train-overlap": TrainWorkload(
        _resnet,
        dict(scheme="qsgd8", exchange="nccl", world_size=2,
             engine="threaded", batch_size=32, link_gbps=0.025),
    ),
    "train-process": TrainWorkload(
        _alexnet,
        dict(scheme="1bit", exchange="mpi", world_size=2,
             engine="process", batch_size=16),
        checkpoint_every=25,
    ),
}


def make_inputs(name: str, seed: int):
    """(dataset, model, config) of one workload -- a function of the seed."""
    spec = TRAIN[name]
    batch = spec.config["batch_size"]
    data = make_image_dataset(
        num_classes=CLASSES,
        train_samples=STEPS_PER_EPOCH * batch,
        test_samples=TEST_SAMPLES,
        image_size=IMAGE_SIZE,
        seed=seed,
    )
    config = TrainingConfig(lr=0.01, seed=seed, **spec.config)
    return data, spec.build_model(seed + 1), config


class StepClock:
    """Stands in for ``trainer.train_step``: times it, as a span when tracing."""

    def __init__(self, trainer: ParallelTrainer, recorder: SpanRecorder):
        self.inner = trainer.train_step
        self.recorder = recorder
        self.starts: list[float] = []
        self.ends: list[float] = []
        #: per step, whether the recorder was on
        self.traced: list[bool] = []
        trainer.train_step = self

    def __call__(self, x, y):
        traced = self.recorder.enabled
        start = time.perf_counter()
        if traced:
            with self.recorder.span("runtime.step"):
                out = self.inner(x, y)
        else:
            out = self.inner(x, y)
        self.ends.append(time.perf_counter())
        self.starts.append(start)
        self.traced.append(traced)
        return out

    @property
    def count(self) -> int:
        return len(self.ends)

    def walls(self, first: int, traced: bool | None = None) -> list[float]:
        """Step walls from step ``first`` on (only traced / only plain ones)."""
        return [
            self.ends[i] - self.starts[i]
            for i in range(first, self.count)
            if traced is None or self.traced[i] == traced
        ]

    def traced_gaps(self, first: int) -> list[float]:
        """Seconds between consecutive traced steps of one epoch."""
        return [
            self.starts[i] - self.ends[i - 1]
            for i in range(first + 1, self.count)
            if self.traced[i] and (i - first) % STEPS_PER_EPOCH
        ]


def epoch_rows(history: History) -> list[list]:
    """The numeric trajectory, exactly (floats as hex) -- what digest() hashes."""
    return [
        [
            float(m.train_loss).hex(),
            float(m.train_accuracy).hex(),
            float(m.test_accuracy).hex(),
            int(m.comm_bytes),
        ]
        for m in history.epochs
    ]


def prefix_digest(history: History, epochs: int) -> str:
    return History(
        label=history.label, epochs=history.epochs[:epochs]
    ).digest()


def check_history(history: History, pinned: list[str] | None) -> list[str]:
    """Output check of one timed ``fit``; returns what is wrong with it."""
    errors = []
    if history.failures:
        errors.append(f"worker failures: {history.failures}")
    if not history.epochs:
        errors.append("no epoch completed")
    for m in history.epochs:
        if not (math.isfinite(m.train_loss) and math.isfinite(m.test_accuracy)):
            errors.append(f"epoch {m.epoch}: non-finite metrics")
    if pinned and history.epochs:
        epochs = min(len(history.epochs), len(pinned))
        if prefix_digest(history, epochs) != pinned[epochs - 1]:
            errors.append(
                f"History.digest() of the first {epochs} epochs differs "
                "from expected.json"
            )
    return errors


#: epochs of seed 0 pinned in expected.json; a longer run checks this prefix
PINNED_EPOCHS = 48


def _warm_up(trainer: ParallelTrainer, data, batch: int, policy) -> History:
    """The 5-step ``fit`` that ends set-up (and is part of the trajectory)."""
    return trainer.fit(
        data.train_x[: WARMUP_STEPS * batch],
        data.train_y[: WARMUP_STEPS * batch],
        data.test_x, data.test_y,
        epochs=1, checkpoint=policy,
    )


def pin_digests(name: str) -> list[str]:
    """``History.digest()`` of the first 1..48 timed epochs of seed 0.

    Trained on the sequential engine with no pacing: the engines are
    bit-identical by contract, so a threaded or process run that does
    not reproduce these digests has broken that contract.
    """
    data, model, config = make_inputs(name, 0)
    config.engine, config.link_gbps = "sequential", None
    with ParallelTrainer(model, config) as trainer:
        _warm_up(trainer, data, config.batch_size, None)
        history = trainer.fit(
            data.train_x, data.train_y, data.test_x, data.test_y,
            epochs=PINNED_EPOCHS,
        )
    return [prefix_digest(history, n + 1) for n in range(PINNED_EPOCHS)]


# -- tracing ----------------------------------------------------------------


def _wrap_codec(recorder: SpanRecorder, codec, counts: dict) -> None:
    def encoded(args, _kwargs, message) -> None:
        counts["encoded_bytes"] += message.nbytes
        counts["raw_bytes"] += 4 * args[0].size

    recorder.wrap(codec, "encode_into", "quantization.encode", encoded)
    recorder.wrap(codec, "decode_into", "quantization.decode")
    make_decoder = codec.sum_decoder

    def sum_decoder(*args, **kwargs):
        decoder = make_decoder(*args, **kwargs)
        if recorder.enabled:
            recorder.wrap(decoder, "add", "quantization.decode")
            recorder.wrap(decoder, "result", "quantization.decode")
        return decoder

    codec.sum_decoder = sum_decoder


def _wrap_compute(recorder: SpanRecorder, worker) -> None:
    """Span ``worker.compute``, with the readiness hook as its own span.

    On the threaded engine the hook is where a rank's paced upload
    sleeps; left inside the compute span it would read as backward time.
    """
    inner = worker.compute

    def compute(x, y, on_ready=None, grad_scale=None):
        if not recorder.enabled:
            return inner(x, y, on_ready=on_ready, grad_scale=grad_scale)
        if on_ready is not None:
            on_ready = _spanned(recorder, "comm.wire_wait", on_ready)
        with recorder.span("nn.compute"):
            return inner(x, y, on_ready=on_ready, grad_scale=grad_scale)

    worker.compute = compute


def _spanned(recorder: SpanRecorder, name: str, fn):
    def timed(*args):
        with recorder.span(name):
            return fn(*args)

    return timed


def instrument(trainer: ParallelTrainer, recorder: SpanRecorder, counts: dict) -> None:
    """Install the span wrappers on this trainer's own objects.

    Under the process engine only coordinator-side objects are wrapped:
    a wrapper on a rank's model would be pickled into the spawned rank.
    """
    engine = trainer.engine
    step_engine = engine.step_engine
    recorder.wrap(step_engine, "aggregate", "core.aggregate")
    recorder.wrap(step_engine.exchange, "exchange", "comm.exchange")
    for codec in (step_engine.policy.quantizer, step_engine.policy.fullprec):
        _wrap_codec(recorder, codec, counts)
    for worker in engine.workers:
        recorder.wrap(worker, "apply_updates", "optim.apply")
        if engine.name != "process":
            _wrap_compute(recorder, worker)
            recorder.wrap(worker.model, "forward", "nn.forward")
    recorder.wrap(trainer_module, "save_checkpoint", "core.checkpoint_save")


def kernel_probe(codec, shape: tuple[int, ...], repeats: int = 20) -> dict:
    """The four QSGD hot kernels alone, on one layer's geometry (ms each)."""
    backend = kernels.active()
    ws = EncodeWorkspace()
    grad = np.random.default_rng(0).normal(size=shape).astype(np.float32)
    bucket_size = codec.effective_bucket(grad.size)
    plan = bucket_plan(grad.size, bucket_size)
    lanes = (plan.n_buckets, bucket_size)
    buckets = ws.array("qsgd.buckets", lanes)
    scales = ws.array("qsgd.scales", plan.n_buckets)
    rand = np.random.default_rng(1).random(lanes)
    words = np.empty(bitpack.packed_words(plan.padded, codec.bits), np.uint32)
    acc = ws.zeros("sumdec.bucket_acc", lanes)
    out = np.empty(shape, dtype=np.float32)
    backend.bucketize(grad, buckets)
    backend.absmax_scales(buckets, scales, ws)

    def timed(fn) -> float:
        fn()
        start = time.perf_counter()
        for _ in range(repeats):
            fn()
        return 1e3 * (time.perf_counter() - start) / repeats

    return {
        "quantization.probe.bucketize_ms": timed(
            lambda: backend.bucketize(grad, buckets)
        ),
        "quantization.probe.quantize_pack_ms": timed(
            lambda: backend.quantize_sign_packed(
                buckets, scales, codec.bits, rand, words, ws
            )
        ),
        "quantization.probe.unpack_decode_acc_ms": timed(
            lambda: backend.dequantize_sign_packed(
                words, scales, codec.bits, acc, True, ws
            )
        ),
        "quantization.probe.unbucketize_ms": timed(
            lambda: backend.unbucketize(acc, shape, out, False)
        ),
    }


def null_span_ns(iterations: int = 200_000) -> float:
    span = NULL_TRACER.span
    start = time.perf_counter()
    for _ in range(iterations):
        with span("encode", 0):
            pass
    return 1e9 * (time.perf_counter() - start) / iterations


def cold_cli_train_seconds() -> float:
    """One ``python -m repro train`` from a cold interpreter, 64 samples."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-m", "repro", "train", "--model", "resnet",
         "--scheme", "32bit", "--world-size", "1", "--epochs", "1",
         "--train-samples", "64", "--test-samples", "32",
         "--batch-size", "32"],
        check=True,
        stdout=subprocess.DEVNULL,
        timeout=120,
    )
    return time.perf_counter() - start


def layer_metrics(
    trainer: ParallelTrainer,
    recorder: SpanRecorder,
    counts: dict,
    clock: StepClock,
    base: int,
    history: History,
    checkpoint_dir: Path | None,
) -> dict:
    """The waterfall rows of one traced run, per step, summed over ranks."""
    engine = trainer.engine
    walls = clock.walls(base, traced=True)
    steps = len(walls)
    per_step_ms = 1e3 / steps

    def row(name: str, parent: str | None = None) -> float:
        return recorder.self_seconds(name, parent) * per_step_ms

    step_seconds = sum(walls)
    step_self = recorder.self_seconds("runtime.step")
    forward = row("nn.forward", "nn.compute")
    backward = row("nn.compute")
    apply = row("optim.apply")
    layers = {
        "data.batch_ms": 1e3 * stats.median(clock.traced_gaps(base)),
        "nn.forward_ms": forward,
        "nn.backward_ms": backward,
        "optim.apply_ms": apply,
        "quantization.encode_ms": row("quantization.encode"),
        "quantization.encode_calls": recorder.calls("quantization.encode") / steps,
        "quantization.decode_ms": row("quantization.decode"),
        "quantization.decode_calls": recorder.calls("quantization.decode") / steps,
        "quantization.encoded_bytes_per_step": counts["encoded_bytes"] / steps,
        "quantization.compression_ratio": (
            counts["raw_bytes"] / counts["encoded_bytes"]
            if counts["encoded_bytes"] else 0.0
        ),
        "comm.exchange_ms": row("comm.exchange"),
        "comm.exchange_calls": recorder.calls("comm.exchange") / steps,
        "comm.wire_bytes_per_step": (
            history.total_comm_bytes / (STEPS_PER_EPOCH * len(history.epochs))
        ),
        "comm.wire_wait_ms": row("comm.wire_wait"),
        "core.aggregate_ms": row("core.aggregate"),
        "core.aggregate_calls": recorder.calls("core.aggregate") / steps,
        "runtime.step_ms": 1e3 * stats.median(walls),
        # off one thread the coordinator's unattributed step time is
        # mostly spent blocked on its ranks
        "runtime.worker_wait_ms": (
            0.0 if engine.name == "sequential" else step_self * per_step_ms
        ),
        "runtime.unattributed_share": step_self / step_seconds,
        "bench.trace_overhead_share": (
            stats.median(walls) / stats.median(clock.walls(base, traced=False))
            - 1.0
        ),
    }
    link_gbps = trainer.config.link_gbps
    if link_gbps and engine.world_size > 1:
        wire_ms = 1e3 * engine.per_rank_payload_nbytes / gbps_to_bytes_per_second(link_gbps)
        # a rank's own work per step; what the step adds to it is exposed
        rank_busy_ms = (forward + backward + apply) / engine.world_size
        exposed_ms = step_seconds * per_step_ms - rank_busy_ms
        layers["comm.wire_ms_ideal"] = wire_ms
        layers["runtime.overlap_share"] = min(1.0, max(0.0, 1.0 - exposed_ms / wire_ms))
    saves = recorder.calls("core.checkpoint_save")
    if saves and checkpoint_dir is not None:
        save_seconds = recorder.self_seconds("core.checkpoint_save")
        newest = max(checkpoint_dir.glob("ckpt-*.npz"))
        layers.update({
            "core.checkpoint_save_ms": 1e3 * save_seconds / saves,
            "core.checkpoint_saves": saves,
            "core.checkpoint_bytes": newest.stat().st_size,
            "core.checkpoint_stall_share": save_seconds / (save_seconds + step_seconds),
        })
    return layers


# -- the run ----------------------------------------------------------------


def run(
    name: str,
    seed: int,
    seconds: float,
    mode: str,
    t0: float,
    tmp: Path,
    pinned: list[str] | None = None,
    spans_path: Path | None = None,
) -> dict:
    """One child's worth of work; ``mode`` is setup, untraced or traced."""
    spec = TRAIN[name]
    start = time.perf_counter()
    kernels.active()
    kernel_load_ms = 1e3 * (time.perf_counter() - start)
    data, model, config = make_inputs(name, seed)
    checkpoint_dir = tmp / "ckpts" if spec.checkpoint_every else None
    policy = (
        CheckpointPolicy(
            directory=checkpoint_dir, every_steps=spec.checkpoint_every, keep=2
        )
        if checkpoint_dir else None
    )
    spawn_start = time.perf_counter()
    trainer = ParallelTrainer(model, config)
    recorder = SpanRecorder()
    recorder.enabled = False
    clock = StepClock(trainer, recorder)
    out: dict = {"errors": [], "layers": {}}
    try:
        warm = _warm_up(trainer, data, config.batch_size, policy)
        out["setup_s"] = time.monotonic() - t0
        out["warm"] = epoch_rows(warm)
        out["errors"] += check_history(warm, None)
        out["layers"]["runtime.spawn_s"] = clock.ends[0] - spawn_start
        if mode != "setup":
            _timed_fit(
                name, trainer, clock, data, policy, seconds,
                mode == "traced", pinned, checkpoint_dir, out,
            )
    finally:
        start = time.perf_counter()
        trainer.close()
        out["layers"]["runtime.shutdown_s"] = time.perf_counter() - start
    if mode == "traced":
        layers = out["layers"]
        layers["quantization.kernel_load_ms"] = kernel_load_ms
        layers["telemetry.null_span_ns"] = null_span_ns()
        if config.scheme.startswith("qsgd"):
            largest = max(model.parameters(), key=lambda p: p.size)
            layers.update(
                kernel_probe(
                    trainer.step_engine.policy.quantizer, largest.data.shape
                )
            )
        if name == "train-compute":
            layers["cli.cold_train_s"] = cold_cli_train_seconds()
        if spans_path is not None:
            recorder.write(spans_path)
    return out


def _timed_fit(
    name, trainer, clock, data, policy, seconds, traced, pinned,
    checkpoint_dir, out,
) -> None:
    base = clock.count
    recorder = clock.recorder
    counts = {"encoded_bytes": 0, "raw_bytes": 0}
    if traced:
        instrument(trainer, recorder, counts)
        # equal numbers of plain and traced epochs, plain first
        min_steps, stride = MIN_TRACED_RUN_STEPS, 2 * STEPS_PER_EPOCH
    else:
        min_steps, stride = MIN_STEPS, STEPS_PER_EPOCH
    seen: list[History] = []
    epoch_ends: list[float] = []

    def on_epoch(metrics, history) -> None:
        epoch_ends.append(time.perf_counter())
        if not seen:
            seen.append(history)
        # the epoch that starts now is traced if its index is odd
        recorder.enabled = traced and metrics.epoch % 2 == 0

    deadline = time.monotonic() + seconds

    def should_stop() -> bool:
        done = clock.count - base
        return (
            done >= min_steps
            and done % stride == 0
            and time.monotonic() >= deadline
        )

    start = time.perf_counter()
    try:
        history = trainer.fit(
            data.train_x, data.train_y, data.test_x, data.test_y,
            epochs=10**9, checkpoint=policy,
            on_epoch=on_epoch, should_stop=should_stop,
        )
    except TrainingInterrupted:
        history = seen[0]
    recorder.enabled = False
    steps = clock.count - base
    out["epochs"] = epoch_rows(history)
    out["errors"] += check_history(history, pinned)
    out["attempted"] = max(1, steps + len(history.failures))
    out["failed"] = len(history.failures)
    if not traced:
        walls = clock.walls(base)
        # an epoch as fit() runs it: 20 steps, the shuffle, checkpoints,
        # the test-set evaluation.  The median epoch, not the whole
        # window, so a disturbance that hits a few epochs does not move it
        epoch_seconds = stats.median(
            b - a for a, b in zip([start] + epoch_ends, epoch_ends)
        )
        out["e2e"] = {
            "work_per_s": (
                STEPS_PER_EPOCH * trainer.config.batch_size / epoch_seconds
            ),
            "op_p50_ms": 1e3 * stats.median(walls),
            "op_tail_ms": 1e3 * stats.percentile(walls, TAIL),
        }
        out["info"] = f"{steps} steps, op_tail = p{TAIL}"
        return
    traced_steps = sum(clock.traced[base:])
    if not traced_steps:
        out["errors"].append("the run ended before any traced step")
        return
    layers = layer_metrics(
        trainer, recorder, counts, clock, base, history, checkpoint_dir
    )
    out["layers"].update(layers)
    out["info"] = f"{traced_steps} traced steps of {steps}"
    share = layers["runtime.unattributed_share"]
    if name in WATERFALL_GATED and share > WATERFALL_GATE:
        out["errors"].append(
            f"runtime.unattributed_share {share:.3f} > {WATERFALL_GATE}"
        )
