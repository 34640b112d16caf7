"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``list`` — show every registered experiment (one per paper figure);
* ``run <exp-id>...`` — regenerate specific tables/figures;
* ``train`` — train a zoo model end-to-end on synthetic data, with
  ``--engine sequential|threaded|process`` selecting the execution
  engine, optional straggler/crash fault injection, retry/degradation
  policy (``--max-retries``, ``--allow-degraded``), and periodic
  checkpointing (``--checkpoint-dir``);
* ``resume`` — continue a ``train`` run from a checkpoint file (or the
  latest checkpoint in a directory), bit-identically: the resumed
  run's history digest equals the uninterrupted run's;
* ``trace`` — train a small traced cell, write a Chrome-trace JSON
  timeline (``chrome://tracing`` / Perfetto), and print the measured
  per-phase breakdown, optionally cross-validated against the
  simulator's prediction;
* ``fabric`` — simulate one collective on a multi-node fabric
  (event-driven per-link queueing), optionally injecting link faults,
  exporting a per-link Chrome trace, sweeping K, or gating the K=4
  anchor against a measured process-engine run (``--crossval``);
* ``serve`` — run the training-as-a-service daemon: a persistent job
  queue with priorities, a REST/JSON API
  (submit/status/cancel/list/stream-metrics), admission control onto a
  bounded runner-process pool, and crash-resume of in-flight jobs on
  restart (``--drain`` exits once every job is terminal);
* ``insights`` — re-derive the paper's five summary answers;
* ``calibration`` — compare simulated throughput to the published
  Figure 10/11 tables cell by cell;
* ``networks`` / ``machines`` — print the Figure 2/3 inventory tables.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .core import (
    CheckpointError,
    ParallelTrainer,
    RunSpec,
    TrainingCheckpoint,
    TrainingConfig,
    latest_checkpoint,
)
from .core.runspec import add_run_arguments, argparse_type
from .fabric import PATTERN_NAMES, TOPOLOGY_NAMES
from .models.specs import NETWORKS
from .quantization import kernels, validate_scheme
from .runtime import ENGINE_NAMES
from .serve.queue import QUEUE_NAMES
from .serve.scheduler import SCHEDULER_NAMES
from .simulator import MACHINES
from .study import EXPERIMENTS, print_table, run_experiment, throughput_table
from .study.compression import print_compression_report
from .study.insights import print_insights
from .telemetry import (
    PhaseBreakdown,
    Tracer,
    cross_validate,
    write_chrome_trace,
)

__all__ = ["main"]


def _cmd_list(_args: argparse.Namespace) -> int:
    rows = [
        [exp.exp_id, exp.paper_artefact, exp.description]
        for exp in sorted(EXPERIMENTS.values(), key=lambda e: e.exp_id)
    ]
    print_table(["Id", "Paper artefact", "Description"], rows,
                title="Registered experiments")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    for exp_id in args.experiments:
        if exp_id not in EXPERIMENTS:
            print(f"error: unknown experiment {exp_id!r} "
                  "(see `python -m repro list`)", file=sys.stderr)
            return 2
    for exp_id in args.experiments:
        print(f"\n### {exp_id}: {EXPERIMENTS[exp_id].description}")
        run_experiment(exp_id)
    return 0


def _print_failures(history) -> bool:
    """Report a run's structured failures on stderr; whether it had any."""
    for failure in history.failures:
        print(
            f"FAILED: rank {failure.rank} {failure.kind} at step "
            f"{failure.step}: {failure.message}",
            file=sys.stderr,
        )
    return bool(history.failures)


def _report_run(config: TrainingConfig, history) -> int:
    """Shared tail of ``train`` / ``resume``: verdict, digest, exit code."""
    for change in history.topology_changes:
        survivors = ",".join(str(r) for r in change.survivors)
        print(
            f"DEGRADED: rank {change.rank} evicted at step {change.step} "
            f"after {change.retries} retries ({change.kind}); "
            f"continuing on ranks [{survivors}]"
        )
    if _print_failures(history):
        return 1
    total_mb = history.total_comm_bytes / 1e6
    print(
        f"[{config.label}/{config.engine}] final test accuracy "
        f"{history.final_test_accuracy:.3f}, {total_mb:.1f} MB on the wire"
    )
    print(f"history digest: {history.digest()}")
    return 0


def _cmd_train(args: argparse.Namespace) -> int:
    try:
        kernels.active()
        spec = RunSpec.from_flat(vars(args), "train")
        policy = (
            None if args.checkpoint_dir is None
            else spec.checkpoint_policy(args.checkpoint_dir)
        )
    except ValueError as exc:
        print(f"repro train: error: {exc}", file=sys.stderr)
        return 2
    history = spec.run(verbose=True, checkpoint=policy)
    return _report_run(spec.config, history)


def _cmd_resume(args: argparse.Namespace) -> int:
    path = Path(args.checkpoint)
    if path.is_dir():
        found = latest_checkpoint(path)
        if found is None:
            print(
                f"repro resume: error: no ckpt-*.npz under {path}",
                file=sys.stderr,
            )
            return 2
        path = found
    try:
        kernels.active()
        ckpt = TrainingCheckpoint.load(path)
        spec = RunSpec.from_checkpoint(
            ckpt, keep_faults=args.keep_faults, engine=args.engine,
            epochs=args.epochs,
        )
    except (OSError, ValueError, KeyError) as exc:
        print(f"repro resume: error: {exc}", file=sys.stderr)
        return 2
    config = spec.config
    print(
        f"resuming {config.label}/{config.engine} from {path} "
        f"(step {ckpt.step}, epoch {ckpt.epoch}, "
        f"{ckpt.batches_done} batches in)"
    )
    policy = spec.checkpoint_policy(path.parent)
    try:
        history = spec.run(verbose=True, checkpoint=policy, resume_from=ckpt)
    except CheckpointError as exc:
        print(f"repro resume: error: {exc}", file=sys.stderr)
        return 2
    return _report_run(config, history)


def _cmd_trace(args: argparse.Namespace) -> int:
    tracer = Tracer()
    try:
        kernels.active()
        spec = RunSpec.from_flat(vars(args), "trace", tracer=tracer)
    except ValueError as exc:
        print(f"repro trace: error: {exc}", file=sys.stderr)
        return 2
    config = spec.config
    history = spec.run()
    if _print_failures(history):
        return 1

    write_chrome_trace(tracer, args.output)
    wall = sum(m.wall_seconds for m in history.epochs)
    breakdown = PhaseBreakdown.from_tracer(
        tracer, wall_seconds=wall, label=f"{config.label}/{config.engine}"
    )
    print(breakdown.report())
    counters = tracer.counters
    print(
        f"wire bytes: {counters.wire_bytes_total}  "
        f"encodes: {counters.encode_calls}  "
        f"decodes: {counters.decode_calls}"
    )
    if counters.rounds_skipped:
        print(
            f"rounds skipped: {counters.rounds_skipped}  "
            f"wire bytes saved: {counters.wire_bytes_saved}"
        )
    print(f"trace written to {args.output} (load in chrome://tracing)")
    if args.crossval:
        validation = cross_validate(
            breakdown,
            scheme=config.scheme,
            exchange=config.exchange,
            world_size=config.world_size,
            network=args.network,
        )
        print()
        print(validation.report())
    return 0


def _fabric_faults(args: argparse.Namespace):
    from .fabric import LinkFault

    if args.fail_link is None:
        if args.recover_at is not None:
            raise ValueError("--recover-at requires --fail-link")
        return ()
    try:
        src, dst = args.fail_link.split(":", 1)
    except ValueError:
        raise ValueError(
            f"--fail-link must be SRC:DST (e.g. leaf0:spine1), got "
            f"{args.fail_link!r}"
        ) from None
    return (
        LinkFault(
            src=src,
            dst=dst,
            fail_at_s=args.fail_at,
            recover_at_s=args.recover_at,
        ),
    )


def _fabric_crossval(args: argparse.Namespace) -> int:
    """The K=4 reality anchor: measured process engine vs fabric."""
    import numpy as np

    from .fabric import fabric_cross_validate
    from .nn import Dense, Sequential

    world_size, steps, batch = 4, 3, 16
    link_gbps = args.link_gbps if args.link_gbps is not None else 0.002
    rng = np.random.default_rng(args.seed)
    samples = steps * batch
    x = rng.normal(size=(samples, 32)).astype(np.float32)
    y = rng.integers(0, 4, size=samples).astype(np.int64)
    tracer = Tracer()
    config = TrainingConfig(
        scheme=args.scheme,
        exchange="nccl",
        world_size=world_size,
        batch_size=batch,
        lr=0.01,
        seed=args.seed,
        engine="process",
        link_gbps=link_gbps,
        tracer=tracer,
    )
    model = Sequential(Dense(32, 4, "fc", rng))
    elements = sum(int(np.prod(p.shape)) for p in model.parameters())
    with ParallelTrainer(model, config) as trainer:
        history = trainer.fit(x, y, x, y, epochs=1)
    if _print_failures(history):
        return 1
    breakdown = PhaseBreakdown.from_history(history)
    validation = fabric_cross_validate(
        breakdown,
        scheme=args.scheme,
        pattern=args.pattern if args.pattern != "auto" else "ring",
        world_size=world_size,
        total_elements=elements,
        steps=steps,
        link_gbps=link_gbps,
    )
    print(validation.report())
    if not validation.passes():
        print(
            "fabric crossval: FAIL — simulated communication share "
            "diverges from the measured process engine",
            file=sys.stderr,
        )
        return 1
    print("fabric crossval: PASS")
    return 0


def _cmd_fabric(args: argparse.Namespace) -> int:
    from .fabric import (
        make_topology,
        run_collective,
        select_collective,
        write_fabric_trace,
    )
    from .study.fabric import print_fabric_sweep

    if args.crossval:
        return _fabric_crossval(args)
    if args.sweep:
        sizes = tuple(args.sweep_ranks) if args.sweep_ranks else None
        if sizes is None:
            print_fabric_sweep()
        else:
            print_fabric_sweep(world_sizes=sizes)
        return 0
    try:
        kwargs = {}
        if args.topology == "leaf-spine":
            kwargs["oversubscription"] = args.oversubscription
        topology = make_topology(args.topology, args.ranks, **kwargs)
        if args.network is not None:
            from .models.specs import get_network

            elements = get_network(args.network).parameter_count
        else:
            elements = args.elements
        faults = _fabric_faults(args)
        if args.pattern == "auto":
            choice = select_collective(topology, elements, args.scheme)
            print(
                f"auto-selected {choice.pattern} "
                f"(candidates: "
                + ", ".join(
                    f"{p}={s * 1e3:.3f}ms"
                    for p, s in sorted(choice.candidates.items())
                )
                + ")"
            )
            pattern = choice.pattern
        else:
            pattern = args.pattern
        result = run_collective(
            topology, pattern, elements, scheme=args.scheme,
            faults=faults,
        )
    except ValueError as exc:
        print(f"repro fabric: error: {exc}", file=sys.stderr)
        return 2
    print(
        f"[{topology.name}/K={args.ranks}] {pattern}/{args.scheme}: "
        f"{result.makespan_seconds * 1e3:.3f} ms makespan, "
        f"{result.total_wire_bytes / 1e6:.2f} MB on the wire, "
        f"{result.completed_transfers} transfers"
    )
    for link, utilization in result.busiest_links(3):
        print(f"  hot link {link[0]}->{link[1]}: {utilization:.1%} busy")
    for change in result.topology_changes:
        survivors = ",".join(str(r) for r in change.survivors)
        print(
            f"DEGRADED: rank {change.rank} evicted ({change.kind}); "
            f"continuing on ranks [{survivors}]"
        )
    if result.dropped_transfers:
        print(
            f"  {result.dropped_transfers} transfers dropped at the "
            "partition and re-issued over the survivors"
        )
    if args.trace is not None:
        write_fabric_trace(result, args.trace)
        print(
            f"per-link trace written to {args.trace} "
            "(load in chrome://tracing)"
        )
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import signal

    from .serve import ServeDaemon

    try:
        # runners load the backend; refuse a name they would die on
        kernels.requested_backend()
        daemon = ServeDaemon(
            args.root,
            max_ranks=args.max_ranks,
            queue=args.queue,
            scheduler=args.scheduler,
            host=args.host,
            port=args.port,
            poll_interval=args.poll_interval,
            max_restarts=args.max_restarts,
            grace_s=args.grace,
        )
    except ValueError as exc:
        print(f"repro serve: error: {exc}", file=sys.stderr)
        return 2

    def on_signal(_signum, _frame) -> None:  # pragma: no cover - signal
        daemon.request_stop()

    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    host, port = daemon.start_api()
    counts = daemon.store.counts()
    print(
        f"serving on http://{host}:{port} (root={args.root}, "
        f"max_ranks={args.max_ranks}, queue={daemon.queue.name}, "
        f"scheduler={daemon.scheduler.name}); "
        f"rescanned {sum(counts.values())} job(s): {counts or '{}'}",
        flush=True,
    )
    try:
        daemon.serve_forever(drain=args.drain)
    finally:
        daemon.close()
    print("serve: shut down cleanly", flush=True)
    return 0


def _cmd_insights(_args: argparse.Namespace) -> int:
    insights = print_insights()
    return 0 if all(i.holds for i in insights) else 1


def _cmd_calibration(args: argparse.Namespace) -> int:
    total_errors = []
    for exchange in ("mpi", "nccl"):
        cells = [
            c for c in throughput_table(exchange) if c.paper is not None
        ]
        errors = [abs(c.relative_error) for c in cells]
        total_errors.extend(errors)
        print(
            f"{exchange.upper()}: {len(cells)} cells, mean |error| = "
            f"{sum(errors) / len(errors):.1%}"
        )
        if args.verbose:
            for cell in cells:
                print(
                    f"  {cell.network:13s} {cell.scheme:7s} "
                    f"K={cell.world_size:2d} sim={cell.simulated:8.1f} "
                    f"paper={cell.paper:8.1f} "
                    f"err={cell.relative_error:+.1%}"
                )
    mean = sum(total_errors) / len(total_errors)
    print(f"overall mean |error| = {mean:.1%}")
    return 0 if mean < 0.2 else 1


def _cmd_compression(_args: argparse.Namespace) -> int:
    print_compression_report()
    return 0


def _cmd_networks(_args: argparse.Namespace) -> int:
    rows = [
        [
            spec.name,
            spec.dataset,
            f"{spec.parameter_count / 1e6:.1f}M",
            spec.epochs_to_converge,
            spec.initial_lr,
            f"{spec.conv_fraction:.0%}",
        ]
        for spec in NETWORKS.values()
    ]
    print_table(
        ["Network", "Dataset", "Params", "Epochs", "LR", "Conv share"],
        rows,
        title="Networks (paper Figure 3)",
    )
    return 0


def _cmd_machines(_args: argparse.Namespace) -> int:
    rows = [
        [
            machine.name,
            machine.cpu_cores,
            f"{machine.max_gpus} x {machine.gpu.name}",
            f"{machine.gpu.tflops_single} TFLOPS",
            f"${machine.price_per_hour}/h",
        ]
        for machine in MACHINES.values()
    ]
    print_table(
        ["Instance", "CPU cores", "GPUs", "Single-prec", "Price"],
        rows,
        title="Machines (paper Figure 2)",
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Synchronous Multi-GPU Deep Learning with "
            "Low-Precision Communication' (EDBT 2018)"
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list registered experiments").set_defaults(
        handler=_cmd_list
    )
    run = sub.add_parser("run", help="regenerate tables/figures")
    run.add_argument("experiments", nargs="+", metavar="exp-id")
    run.set_defaults(handler=_cmd_run)
    train = sub.add_parser(
        "train", help="train a zoo model on synthetic data"
    )
    add_run_arguments(train, "train")
    train.add_argument(
        "--checkpoint-dir", default=None,
        help="write ckpt-<step>.npz checkpoints here (enables "
        "`repro resume`)",
    )
    train.set_defaults(handler=_cmd_train)
    resume = sub.add_parser(
        "resume",
        help="continue a `repro train` run from a checkpoint, "
        "bit-identically",
    )
    resume.add_argument(
        "checkpoint",
        help="a ckpt-*.npz file, or a directory (latest checkpoint wins)",
    )
    resume.add_argument(
        "--epochs", type=int, default=None,
        help="total epochs to train to (default: the original run's)",
    )
    resume.add_argument(
        "--engine", default=None, choices=ENGINE_NAMES,
        help="override the engine (legal: all engines are "
        "bit-identical)",
    )
    resume.add_argument(
        "--keep-faults", action="store_true",
        help="re-apply the original run's fault injection instead of "
        "clearing it",
    )
    resume.set_defaults(handler=_cmd_resume)
    trace = sub.add_parser(
        "trace",
        help="trace a small training cell (Chrome trace + breakdown)",
    )
    add_run_arguments(trace, "trace")
    trace.add_argument(
        "--output", default="trace.json",
        help="Chrome-trace JSON path (chrome://tracing / Perfetto)",
    )
    trace.add_argument(
        "--crossval", action="store_true",
        help="compare measured phase ratios to the simulator's "
        "prediction for --network at the same scheme/exchange/scale",
    )
    trace.add_argument(
        "--network", default="AlexNet", choices=sorted(NETWORKS),
        help="paper network the cross-validation simulates",
    )
    trace.set_defaults(handler=_cmd_trace)
    fabric = sub.add_parser(
        "fabric",
        help="simulate a collective on a multi-node fabric "
        "(per-link queueing, failures, traces, K-sweeps)",
    )
    fabric.add_argument(
        "--topology", default="leaf-spine", choices=TOPOLOGY_NAMES,
        help="fabric family: single-node star (pcie/nvlink) or "
        "two-level Clos (fat-tree/leaf-spine)",
    )
    fabric.add_argument(
        "--ranks", type=int, default=64, help="number of GPUs (K)"
    )
    fabric.add_argument(
        "--pattern", default="auto",
        choices=("auto",) + PATTERN_NAMES,
        help="collective schedule; 'auto' simulates every candidate "
        "and picks the minimum-makespan one",
    )
    fabric.add_argument(
        "--scheme", default="qsgd4", type=argparse_type(validate_scheme)
    )
    fabric.add_argument(
        "--network", default=None, choices=sorted(NETWORKS),
        help="size the payload as this paper network's gradient "
        "(overrides --elements)",
    )
    fabric.add_argument(
        "--elements", type=int, default=2_000_000,
        help="gradient elements per collective",
    )
    fabric.add_argument(
        "--oversubscription", type=float, default=3.0,
        help="leaf-spine trunk oversubscription factor (>= 1.0)",
    )
    fabric.add_argument(
        "--fail-link", default=None, metavar="SRC:DST",
        help="inject a fault on this link (e.g. leaf0:spine1, "
        "host0:leaf0)",
    )
    fabric.add_argument(
        "--fail-at", type=float, default=0.0,
        help="failure time in simulated seconds",
    )
    fabric.add_argument(
        "--recover-at", type=float, default=None,
        help="recovery time; omit for a permanent failure (routes "
        "around it, or evicts unreachable ranks like the resilience "
        "loop)",
    )
    fabric.add_argument(
        "--trace", default=None, metavar="PATH",
        help="write the per-link occupancy Chrome trace here",
    )
    fabric.add_argument(
        "--sweep", action="store_true",
        help="run the K-sweep study table + crossover chart instead "
        "of a single cell",
    )
    fabric.add_argument(
        "--sweep-ranks", type=int, nargs="*", default=None,
        help="rank counts for --sweep (default 64..1024)",
    )
    fabric.add_argument(
        "--crossval", action="store_true",
        help="gate the fabric against reality: measure a K=4 process-"
        "engine run and require phase shares to agree within "
        "tolerance (exit 1 past it)",
    )
    fabric.add_argument(
        "--link-gbps", type=float, default=None,
        help="paced link rate of the --crossval measured run",
    )
    fabric.add_argument("--seed", type=int, default=0)
    fabric.set_defaults(handler=_cmd_fabric)
    serve = sub.add_parser(
        "serve",
        help="run the training-as-a-service daemon (job queue + "
        "REST/JSON API + bounded runner pool + crash-resume)",
    )
    serve.add_argument(
        "--root", required=True,
        help="persistent store directory (job records, checkpoints, "
        "metric streams); a restarted daemon rescans it and resumes",
    )
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument(
        "--port", type=int, default=8080,
        help="API port (0 = pick a free one, printed at startup)",
    )
    serve.add_argument(
        "--max-ranks", type=int, default=4,
        help="total concurrent ranks across all running jobs; each "
        "job occupies its declared world_size",
    )
    serve.add_argument(
        "--queue", default="priority", choices=QUEUE_NAMES,
        help="dispatch order: 'priority' (higher first, FIFO "
        "tie-break) or 'fifo'",
    )
    serve.add_argument(
        "--scheduler", default="first-fit", choices=SCHEDULER_NAMES,
        help="admission control: 'first-fit' packs small jobs around "
        "a wide waiting one, 'strict' never bypasses the queue head",
    )
    serve.add_argument(
        "--poll-interval", type=float, default=0.05,
        help="longest wait between scheduler ticks, in seconds (events end it early)",
    )
    serve.add_argument(
        "--max-restarts", type=int, default=3,
        help="times a job whose runner dies without a result is "
        "requeued to resume before being evicted",
    )
    serve.add_argument(
        "--grace", type=float, default=5.0,
        help="seconds between a cancellation SIGTERM and the SIGKILL",
    )
    serve.add_argument(
        "--drain", action="store_true",
        help="exit once every stored job is terminal (batch mode)",
    )
    serve.set_defaults(handler=_cmd_serve)
    sub.add_parser(
        "insights", help="re-derive the paper's summary answers"
    ).set_defaults(handler=_cmd_insights)
    calibration = sub.add_parser(
        "calibration", help="compare simulation to the published tables"
    )
    calibration.add_argument("-v", "--verbose", action="store_true")
    calibration.set_defaults(handler=_cmd_calibration)
    sub.add_parser(
        "compression", help="wire bits/element per network and scheme"
    ).set_defaults(handler=_cmd_compression)
    sub.add_parser("networks", help="show Figure 3").set_defaults(
        handler=_cmd_networks
    )
    sub.add_parser("machines", help="show Figure 2").set_defaults(
        handler=_cmd_machines
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    return args.handler(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    raise SystemExit(main())
