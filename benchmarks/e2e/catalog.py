"""Names of everything the benchmark measures: workloads and metrics.

This is the single list ``BENCHMARK.json`` is written from (a harness
test keeps the two equal).  End-to-end metrics are defined for every
workload, because the driver expects every one of them from every run;
what one *op* and one *unit of work* are differs per workload:

==============  ==========================  =======================
workload        op (``op_*_ms``)            work (``work_per_s``)
==============  ==========================  =======================
``train-*``     one ``trainer.train_step``  one training sample
``serve-burst`` one job, POST -> terminal   one job
``fabric-sweep`` one ``run_collective`` cell one simulated transfer
==============  ==========================  =======================

``op_tail_ms`` is the highest percentile that keeps at least ten
samples beyond it at the workload's guaranteed op count (p90 of >=100
steps, p80 of >=52 jobs, p75 of 40 cells); see ``stats.tail_percentile``.
"""

from __future__ import annotations

#: workload name -> the one-line reason it exists
WORKLOADS = {
    "train-compute": (
        "plain single-worker baseline: ~95% nn forward/backward, so "
        "codec, exchange and engine changes must leave it unmoved"
    ),
    "train-codec": (
        "FC-heavy qsgd4 x nccl x K=4: encode + fused decode-accumulate "
        "are about half the step; where codec and layout work must show"
    ),
    "train-overlap": (
        "threaded engine on a paced link whose wire time matches rank "
        "compute: measures communication not hidden behind compute"
    ),
    "train-process": (
        "process engine, 1bit x mpi with error feedback, shm/pipe IPC "
        "and periodic checkpoints: the other way through the codec layer"
    ),
    "serve-burst": (
        "repro serve daemon under 2 closed-loop clients: runner cold "
        "start, per-step checkpoints and admission dominate each job"
    ),
    "fabric-sweep": (
        "pure-Python fabric event loop over 40 collective cells; trains "
        "nothing, so it is the null workload for training-path changes"
    ),
}

#: (name, unit, better, bound) -- bound is the share of the parent's
#: median by which the metric may worsen before a change is a regression
END_TO_END = (
    ("setup_s", "s", "lower", 0.25),
    ("work_per_s", "1/s", "higher", 0.25),
    ("op_p50_ms", "ms", "lower", 0.25),
    ("op_tail_ms", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.15),
)

#: (name, unit, better) -- rows of the per-layer waterfall; a traced run
#: reports every one of them, 0 where the workload has no such layer
PER_LAYER = (
    ("data.batch_ms", "ms", "lower"),
    ("nn.forward_ms", "ms", "lower"),
    ("nn.backward_ms", "ms", "lower"),
    ("optim.apply_ms", "ms", "lower"),
    ("quantization.encode_ms", "ms", "lower"),
    ("quantization.encode_calls", "count", "lower"),
    ("quantization.decode_ms", "ms", "lower"),
    ("quantization.decode_calls", "count", "lower"),
    ("quantization.encoded_bytes_per_step", "B", "lower"),
    ("quantization.compression_ratio", "ratio", "higher"),
    ("quantization.probe.bucketize_ms", "ms", "lower"),
    ("quantization.probe.quantize_pack_ms", "ms", "lower"),
    ("quantization.probe.unpack_decode_acc_ms", "ms", "lower"),
    ("quantization.probe.unbucketize_ms", "ms", "lower"),
    ("quantization.kernel_load_ms", "ms", "lower"),
    ("comm.exchange_ms", "ms", "lower"),
    ("comm.exchange_calls", "count", "lower"),
    ("comm.wire_bytes_per_step", "B", "lower"),
    ("comm.wire_ms_ideal", "ms", "lower"),
    ("comm.wire_wait_ms", "ms", "lower"),
    ("core.aggregate_ms", "ms", "lower"),
    ("core.aggregate_calls", "count", "lower"),
    ("core.checkpoint_save_ms", "ms", "lower"),
    ("core.checkpoint_saves", "count", "lower"),
    ("core.checkpoint_bytes", "B", "lower"),
    ("core.checkpoint_stall_share", "ratio", "lower"),
    ("runtime.step_ms", "ms", "lower"),
    ("runtime.worker_wait_ms", "ms", "lower"),
    ("runtime.overlap_share", "ratio", "higher"),
    ("runtime.spawn_s", "s", "lower"),
    ("runtime.shutdown_s", "s", "lower"),
    ("runtime.unattributed_share", "ratio", "lower"),
    ("telemetry.null_span_ns", "ns", "lower"),
    ("bench.trace_overhead_share", "ratio", "lower"),
    ("cli.cold_train_s", "s", "lower"),
    ("serve.submit_ms", "ms", "lower"),
    ("serve.poll_ms", "ms", "lower"),
    ("serve.queue_wait_s", "s", "lower"),
    ("serve.run_s", "s", "lower"),
    ("serve.runner_overhead_s", "s", "lower"),
    ("serve.settle_s", "s", "lower"),
    ("serve.pool_occupancy", "ratio", "higher"),
    ("serve.http_requests", "count", "lower"),
    ("serve.http_errors", "count", "lower"),
    ("fabric.topology_ms", "ms", "lower"),
    ("fabric.compile_ms", "ms", "lower"),
    ("fabric.verify_ms", "ms", "lower"),
    ("fabric.simulate_ms", "ms", "lower"),
    ("fabric.ring_share", "ratio", "lower"),
    ("fabric.transfers", "count", "higher"),
    ("fabric.occupancies", "count", "higher"),
    ("fabric.events_per_s", "1/s", "higher"),
    ("fabric.fault_rerun_ms", "ms", "lower"),
    ("simulator.figures_cold_ms", "ms", "lower"),
)

#: what the generic end-to-end names read as on each workload
READS_AS = {
    "train": {
        "work_per_s": "samples_per_s",
        "op_p50_ms": "step_p50_ms",
        "op_tail_ms": "step_p90_ms",
    },
    "serve": {
        "work_per_s": "jobs_per_s",
        "op_p50_ms": "job_latency_p50_ms",
        "op_tail_ms": "job_latency_p80_ms",
    },
    "fabric": {
        "work_per_s": "sim_transfers_per_s",
        "op_p50_ms": "cell_p50_ms",
        "op_tail_ms": "cell_p75_ms",
    },
}

#: workloads whose traced run fails when the step's unattributed share
#: exceeds the gate (everything runs on one thread there, so the rows
#: must add up to the step)
WATERFALL_GATED = ("train-compute", "train-codec")
WATERFALL_GATE = 0.10


def manifest(run_seconds: int = 15) -> dict:
    """The ``BENCHMARK.json`` document these tables describe."""
    return {
        "command": ["python3", "benchmarks/e2e/run.py"],
        "paths": ["benchmarks/e2e"],
        "run_seconds": run_seconds,
        "workloads": [
            {"name": name, "why": why} for name, why in WORKLOADS.items()
        ],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [
            {"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER
        ],
    }
