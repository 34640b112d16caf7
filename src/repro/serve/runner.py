"""One job's worker process: ``python -m repro.serve.runner <job-dir>``.

The daemon runs one runner per admitted job.  The runner rebuilds
model + dataset + config from the job's spec, trains under the
existing :class:`~repro.core.ParallelTrainer` with per-step
checkpoints into the job's own ``ckpts/`` directory, and — if a
checkpoint already exists because a previous attempt (or the whole
daemon) was killed — resumes from the latest one, bit-identically to
an uninterrupted run.

Live telemetry streams incrementally to ``metrics.ndjson``: one NDJSON
line per completed epoch (the numeric ``EpochMetrics`` fields) and a
final ``phase_totals`` line; with ``spec.trace`` set the run is traced
and a per-job Chrome trace is exported post-hoc next to it.  The
terminal outcome is written atomically to ``result.json`` — the daemon
never trusts an exit code alone, only this file:

* present → ``succeeded`` / ``failed`` (with traceback) / ``cancelled``;
* absent after the process died → the runner was killed (SIGKILL, OOM,
  daemon crash) and the daemon requeues the job to resume, or evicts
  it past its restart budget.

Cancellation is cooperative: the daemon's SIGTERM sets a flag the
training loop polls between steps, so the job stops at a step boundary
and reports ``cancelled`` itself.  If the *daemon* dies instead, the
runner notices it was reparented (``os.getppid()``) and exits without
a result so the restarted daemon resumes it — orphans never train to
completion unsupervised.

The daemon does not pay an interpreter start per job.  It keeps one
**zygote** (``python -m repro.serve.runner --zygote <fd>``, the
daemon's private entry): a single-threaded process that imports the
training stack and loads the kernel backend once, then forks a child
per job directory it is sent over the socket ``<fd>``.  The child's
body is :func:`main` with that directory — the same function the
standalone command runs — so a job is still one process that can be
signalled, killed and resumed.  The zygote itself never builds a
model, draws from an RNG or opens a job directory: every fork starts
from the same pristine image, and a job's bits cannot depend on what
ran before it.  The runner's parent is now the zygote, which exits
when the daemon's end of the socket closes; the reparenting check
above then stops the runner, so the chain daemon → zygote → runner
dies from the top down.
"""

from __future__ import annotations

import json
import os
import signal
import socket
import sys
import time
import traceback
from pathlib import Path

from ..core import TrainingInterrupted
from ..core.checkpoint import checkpoint_steps
from ..telemetry import Tracer, write_chrome_trace
from .jobspec import JobSpec
from .jobstore import (
    JobState,
    process_start_time,
    read_json,
    write_json_atomic,
)

__all__ = ["ORPHAN_EXIT_CODE", "main", "run_job"]

#: exit code of a runner that stopped because its daemon disappeared
#: (EX_TEMPFAIL: the job is unfinished and will be resumed)
ORPHAN_EXIT_CODE = 75


class _DaemonGone(Exception):
    """The spawning daemon died; stop without writing a result."""


def _append_ndjson(path: Path, payload: dict) -> None:
    with open(path, "a") as stream:
        stream.write(json.dumps(payload, sort_keys=True) + "\n")
        stream.flush()
        os.fsync(stream.fileno())


def _epoch_line(metrics) -> dict:
    line = {"type": "epoch"}
    line.update(
        {k: v for k, v in vars(metrics).items() if v is not None}
    )
    return line


def run_job(
    job_dir: str | os.PathLike,
    *,
    daemon_pid: int | None = None,
    cancel_flag: dict | None = None,
) -> int:
    """Train one job to a terminal result; returns the exit code.

    ``cancel_flag`` is a mutable ``{"cancel": bool}`` cell the SIGTERM
    handler (or an in-process test) flips; ``daemon_pid`` enables the
    orphan watch — when the runner's parent is no longer that pid the
    job stops without a result so a restarted daemon resumes it.
    """
    job_dir = Path(job_dir)
    cancel_flag = {"cancel": False} if cancel_flag is None else cancel_flag
    record = read_json(job_dir / "record.json")
    if record is None:
        print(f"runner: no readable record.json under {job_dir}",
              file=sys.stderr)
        return 2
    metrics_path = job_dir / "metrics.ndjson"
    result_path = job_dir / "result.json"
    started = time.perf_counter()

    resumed_from_step: int | None = None

    def finish(state: str, history=None, **extra) -> int:
        payload = {
            "state": state,
            "job_id": record.get("job_id"),
            "resumed_from_step": resumed_from_step,
        }
        if history is not None:
            payload.update(
                digest=history.digest(),
                epochs_trained=len(history.epochs),
                final_test_accuracy=(
                    history.final_test_accuracy if history.epochs else None
                ),
                total_comm_bytes=history.total_comm_bytes,
                kernel_backend=history.kernel_backend,
            )
            if history.failures:
                payload["failures"] = [
                    f.to_dict() for f in history.failures
                ]
        payload["wall_seconds"] = time.perf_counter() - started
        payload.update(extra)
        write_json_atomic(result_path, payload)
        return 0 if state == JobState.SUCCEEDED else 1

    def should_stop() -> bool:
        if daemon_pid is not None and os.getppid() != daemon_pid:
            raise _DaemonGone(f"parent is no longer pid {daemon_pid}")
        return bool(cancel_flag["cancel"])

    try:
        spec = JobSpec.from_dict(record["spec"])
        tracer = spec.config.tracer = Tracer() if spec.trace else None
        policy = spec.checkpoint_policy(
            job_dir / "ckpts", keep=2, extra={"job_id": record.get("job_id")}
        )
        # a previous attempt's checkpoints mean this attempt resumes
        # (numeric-step discovery: ckpt-100 beats ckpt-99)
        found = checkpoint_steps(policy.directory)
        resumed_from_step, resume_from = found[-1] if found else (None, None)

        def on_epoch(metrics, history) -> None:
            _append_ndjson(metrics_path, _epoch_line(metrics))

        try:
            history = spec.run(
                checkpoint=policy,
                resume_from=resume_from,
                on_epoch=on_epoch,
                should_stop=should_stop,
            )
        except TrainingInterrupted:
            return finish(JobState.CANCELLED)
        _append_ndjson(
            metrics_path,
            {"type": "phase_totals", **history.phase_totals()},
        )
        if tracer is not None:
            write_chrome_trace(tracer, job_dir / "trace.json")
    except _DaemonGone as exc:
        print(f"runner: daemon gone ({exc}); exiting for resume",
              file=sys.stderr)
        return ORPHAN_EXIT_CODE
    except Exception:
        return finish(JobState.FAILED, traceback=traceback.format_exc())
    if history.failures:
        return finish(JobState.FAILED, history=history)
    return finish(JobState.SUCCEEDED, history=history)


def _forked_runner(request: dict, channel_fd: int):  # pragma: no cover - forked
    """A process the zygote just forked: become the job's runner.

    Answers the daemon's request itself -- ``[pid, start time]``, one
    line, so the answer arrives when the runner is running, not when
    the zygote is next scheduled -- then gives the process what a
    freshly started runner has: its own ``runner.log`` on fds 1 and 2,
    default ``SIGCHLD`` / ``SIGINT`` dispositions (the process engine
    waits for its ranks), no copy of the control socket.  Then runs
    :func:`main`.  Never returns into the zygote's loop: the process
    ends here whatever happens.
    """
    code = 1
    try:
        pid = os.getpid()
        reply = json.dumps([pid, process_start_time(pid)]) + "\n"
        os.write(channel_fd, reply.encode())
        os.close(channel_fd)
        signal.signal(signal.SIGCHLD, signal.SIG_DFL)
        signal.signal(signal.SIGINT, signal.default_int_handler)
        log = os.open(
            request["log"], os.O_WRONLY | os.O_CREAT | os.O_APPEND, 0o644
        )
        os.dup2(log, 1)
        os.dup2(log, 2)
        os.close(log)
        code = main([request["job_dir"]])
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def _zygote(channel_fd: int) -> int:  # pragma: no cover - forked
    """Fork one runner per request until the daemon closes the socket.

    Requests and replies are JSON lines on ``channel_fd``, never fd 1
    (a stray ``print`` from an import must not corrupt the protocol):
    ``"ready"`` once the imports are done, then for each request
    ``{"job_dir": ..., "log": ...}`` a reply ``[pid, start_time]``
    written by the forked child (the daemon has one request in flight
    at a time, so lines never interleave).  Exited runners are reaped
    by the kernel (``SIGCHLD`` ignored); the daemon watches them by
    pid and start time, not through the zygote.
    """
    signal.signal(signal.SIGCHLD, signal.SIG_IGN)
    # a terminal's Ctrl-C goes to the whole foreground group; the
    # zygote stays until the daemon has shut its runners down
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    # the runners' orphan watch: their parent is this process
    os.environ["REPRO_SERVE_DAEMON_PID"] = str(os.getpid())
    # what a job would import on first use, and the kernel backend
    # (loading the compiled one dlopens its .so)
    import zipfile  # noqa: F401 - numpy.savez, at the first checkpoint

    import numpy.random  # noqa: F401

    from ..quantization import kernels

    kernels.active()
    with socket.socket(fileno=channel_fd) as channel, \
            channel.makefile("rb") as requests:
        channel.sendall(b'"ready"\n')
        for line in requests:
            request = json.loads(line)
            # text still buffered would be written by both processes
            sys.stdout.flush()
            sys.stderr.flush()
            if os.fork() == 0:
                _forked_runner(request, channel_fd)
    return 0


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) == 2 and argv[0] == "--zygote":  # pragma: no cover - forked
        return _zygote(int(argv[1]))
    if len(argv) != 1:
        print("usage: python -m repro.serve.runner <job-dir>",
              file=sys.stderr)
        return 2
    daemon_pid = os.environ.get("REPRO_SERVE_DAEMON_PID")
    cancel_flag = {"cancel": False}

    def on_sigterm(_signum, _frame) -> None:  # pragma: no cover - signal
        cancel_flag["cancel"] = True

    signal.signal(signal.SIGTERM, on_sigterm)
    return run_job(
        argv[0],
        daemon_pid=int(daemon_pid) if daemon_pid else None,
        cancel_flag=cancel_flag,
    )


if __name__ == "__main__":  # pragma: no cover - subprocess entry
    raise SystemExit(main())
