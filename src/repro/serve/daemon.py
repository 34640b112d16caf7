"""The serve daemon: queue → admission → runner pool → resume.

One :class:`ServeDaemon` owns a :class:`~repro.serve.jobstore.JobStore`
root, an HTTP API (see :mod:`repro.serve.api`), and a bounded pool of
runner processes.  Its scheduling loop is a plain synchronous tick —
:meth:`step` reaps finished runners, enforces cancellations/timeouts,
and admits queued jobs into the free rank budget — which makes the
whole daemon drivable deterministically from tests (construct it, call
``step()``) as well as from the CLI loop (:meth:`serve_forever`), which
runs a tick whenever a runner exits or a request arrives and at least
every ``poll_interval`` seconds.

Runners are forked from a **zygote** (see :mod:`repro.serve.runner`):
one child of the daemon that has imported the training stack, so a job
starts in milliseconds instead of paying an interpreter start.  A
forked runner is not the daemon's child, so the daemon knows it by
``(pid, start time)`` — :func:`~repro.serve.jobstore.process_start_time`
— and signals a pid only while it still reads the recorded start time.

Crash story: all scheduling state lives in the store, so a SIGKILLed
daemon loses nothing.  The zygote exits when the daemon's end of its
socket closes, and runners exit on their own when their parent is
gone.  On construction the daemon rescans the store: jobs left
``running`` by the dead daemon have any runner still alive killed, are
finalized if the runner already wrote its result, and are otherwise
requeued — the next admission resumes them from their last per-step
checkpoint, bit-identically.  A job whose runner keeps dying without
ever writing a result is *evicted* after ``max_restarts`` requeues
rather than crash-looping forever.  A zygote that died is restarted by
the next admission: one cold start, no job lost.
"""

from __future__ import annotations

import json
import os
import select
import signal
import socket
import subprocess
import sys
import threading
import time
from typing import NamedTuple

from .jobspec import JobSpec
from .jobstore import JobRecord, JobState, JobStore, process_start_time
from .queue import make_queue
from .scheduler import make_scheduler

__all__ = ["ServeDaemon", "ZygoteError"]

#: map from a runner result.json "state" to the job record state
_RESULT_STATES = {
    "succeeded": JobState.SUCCEEDED,
    "failed": JobState.FAILED,
    "cancelled": JobState.CANCELLED,
}

#: seconds a fork request waits for the zygote's reply.  A healthy
#: zygote answers in a millisecond, or after its ~0.2 s of imports when
#: the request reached it first; the bound is for a stopped or wedged
#: one, and is generous because the scheduling lock is held meanwhile
_FORK_REPLY_TIMEOUT = 30.0
#: seconds a zygote gets to exit once its channel is closed
_ZYGOTE_EXIT_GRACE = 2.0


def _wait_readable(fds, timeout: float) -> list[int]:
    """The fds of ``fds`` readable (or hung up) within ``timeout`` s."""
    poller = select.poll()
    for fd in fds:
        poller.register(fd, select.POLLIN)
    return [fd for fd, _ in poller.poll(max(0.0, timeout) * 1e3)]


class ZygoteError(RuntimeError):
    """The zygote would not fork a runner, even after a restart."""


class _Runner(NamedTuple):
    """A job's runner process, named by pid *and* start time.

    Every signal the daemon sends goes through :meth:`signal`, so a
    pid that was recycled (another start time) is never touched and an
    unreaped zombie counts as gone.
    """

    pid: int
    start_time: int | None
    #: wakes the loop when the process exits; ``None`` if it was
    #: already gone when the daemon looked, or the daemon never ran it
    pidfd: int | None = None

    def alive(self) -> bool:
        return (
            self.start_time is not None
            and process_start_time(self.pid) == self.start_time
        )

    def signal(self, signum: int) -> None:
        if self.alive():
            try:
                os.kill(self.pid, signum)
            except ProcessLookupError:  # pragma: no cover - raced
                pass

    def await_gone(self, timeout: float = 10.0) -> None:
        deadline = time.monotonic() + timeout
        while self.alive() and time.monotonic() < deadline:
            time.sleep(0.01)


class _Zygote:
    """The daemon's end of its ``runner --zygote`` child.

    Started by the first admission or by ``serve_forever``, restarted
    by the first admission after it died.  Mutated only under the
    daemon's lock; ``state`` / ``starts`` / ``forked`` are plain reads
    for ``/healthz``.
    """

    def __init__(self):
        self.process: subprocess.Popen | None = None
        self.channel: socket.socket | None = None
        self.ready = False
        self.starts = 0
        self.forked = 0
        self._buffer = b""

    @property
    def state(self) -> str:
        if self.channel is None:
            return "down"
        return "warm" if self.ready else "starting"

    def start(self) -> None:
        """Make sure a zygote is running (it may still be importing)."""
        if self.channel is not None:
            return
        if self.process is not None:
            pid, status = self.process.pid, self.retire()
            print(
                f"serve: zygote pid {pid} exited with status {status}; "
                "starting a new one",
                file=sys.stderr,
            )
        ours, theirs = socket.socketpair()
        try:
            # stdout/stderr are the daemon's; runners get their own log
            self.process = subprocess.Popen(
                [sys.executable, "-m", "repro.serve.runner",
                 "--zygote", str(theirs.fileno())],
                pass_fds=[theirs.fileno()],
            )
        except OSError:
            ours.close()
            raise
        finally:
            theirs.close()
        self.channel = ours
        self.starts += 1

    def _lose(self) -> None:
        """The zygote died or is not answering: drop the channel."""
        if self.channel is not None:
            self.channel.close()
        self.channel = None
        self.ready = False
        self._buffer = b""

    def retire(self) -> int | None:
        """End the zygote and reap it; returns its exit status.

        Closing the channel is the request to exit (the zygote reads
        EOF); one that does not is killed.
        """
        self._lose()
        if self.process is None:
            return None
        try:
            status = self.process.wait(timeout=_ZYGOTE_EXIT_GRACE)
        except subprocess.TimeoutExpired:
            self.process.kill()
            status = self.process.wait()
        self.process = None
        return status

    def _read_message(self, timeout: float):
        """The zygote's next JSON line; ``None`` if none comes in time.

        Raises ``EOFError`` when the zygote has closed its end (or
        ``ConnectionResetError`` when it died with a request unread).
        """
        deadline = time.monotonic() + timeout
        while b"\n" not in self._buffer:
            if not _wait_readable(
                [self.channel], deadline - time.monotonic()
            ):
                return None
            chunk = self.channel.recv(4096)
            if not chunk:
                raise EOFError("zygote closed its channel")
            self._buffer += chunk
        line, _, self._buffer = self._buffer.partition(b"\n")
        return json.loads(line)

    def poll(self) -> None:
        """Take in what the zygote said unasked: ``ready``, or EOF."""
        if self.channel is None:
            return
        try:
            while self._read_message(0.0) is not None:
                self.ready = True
        except (EOFError, OSError):
            self._lose()

    def fork_runner(self, job_dir, log_path) -> tuple[int, int | None]:
        """Have the zygote fork a runner: its ``(pid, start time)``.

        A request sent to a zygote that is still importing waits in
        the socket, so the first job costs one cold start.  A zygote
        that is dead, dies or does not answer in time is replaced once
        and the request sent again; then :class:`ZygoteError`.  (A
        runner forked by a zygote that died before answering stops at
        its first step boundary: its parent is gone.)
        """
        request = json.dumps(
            {"job_dir": str(job_dir), "log": str(log_path)}
        ).encode() + b"\n"
        for _ in range(2):
            self.start()
            try:
                self.channel.sendall(request)
                while (
                    reply := self._read_message(_FORK_REPLY_TIMEOUT)
                ) == "ready":
                    self.ready = True
            except (EOFError, OSError):
                reply = None
            if reply is not None:
                self.forked += 1
                pid, start_time = reply
                return pid, start_time
            self._lose()
        raise ZygoteError(
            f"no runner for {job_dir}: the zygote died or did not "
            f"answer a fork request within {_FORK_REPLY_TIMEOUT:.0f} s, "
            "twice in a row"
        )


class ServeDaemon:
    """Multi-tenant training scheduler over a persistent job store.

    Attributes:
        max_ranks: total concurrent-rank budget of the runner pool;
            admission packs jobs' declared ``world_size`` into it.
        max_restarts: requeues allowed for a runner that dies without
            writing a result before the job is evicted.
        grace_s: seconds between a cancellation SIGTERM and the
            escalation SIGKILL.
        poll_interval: longest :meth:`serve_forever` waits between
            ticks; events (a runner's exit, a submit, a cancel) end
            the wait early, ``timeout_s`` and ``grace_s`` enforcement
            is only as prompt as this.
    """

    def __init__(
        self,
        root: str | os.PathLike,
        *,
        max_ranks: int = 4,
        queue: str = "priority",
        scheduler: str = "first-fit",
        host: str = "127.0.0.1",
        port: int = 0,
        poll_interval: float = 0.05,
        max_restarts: int = 3,
        grace_s: float = 5.0,
    ):
        if max_ranks < 1:
            raise ValueError(f"max_ranks must be >= 1, got {max_ranks}")
        if max_restarts < 0:
            raise ValueError(
                f"max_restarts must be >= 0, got {max_restarts}"
            )
        self.max_ranks = max_ranks
        self.queue = make_queue(queue)
        self.scheduler = make_scheduler(scheduler)
        self.host = host
        self.port = port
        self.poll_interval = poll_interval
        self.max_restarts = max_restarts
        self.grace_s = grace_s
        self.store = JobStore(root)
        self.started_at = time.time()
        self._lock = threading.RLock()
        self._children: dict[str, _Runner] = {}
        self._term_sent: dict[str, float] = {}
        self._zygote = _Zygote()
        self._stop = threading.Event()
        # submit / cancel / request_stop write a byte here to end the
        # loop's wait early
        self._wake_rx, self._wake_tx = socket.socketpair()
        self._wake_rx.setblocking(False)
        self._wake_tx.setblocking(False)
        self._server = None
        self._server_thread = None
        self.rescan()

    # -- restart recovery -------------------------------------------------
    def rescan(self) -> None:
        """Reconcile the store after a (possibly violent) restart."""
        self.store.sweep_tmp()
        for record in self.store.list():
            if record.terminal:
                continue
            if record.state == JobState.QUEUED:
                if record.cancel_requested:
                    self.store.update(
                        record.job_id,
                        state=JobState.CANCELLED,
                        finished_at=time.time(),
                    )
                continue
            # state == RUNNING under the dead daemon: no second runner
            # may start while the first can still write into ckpts/
            if record.pid is not None:
                # a record without a start time names no process we can
                # prove is its runner: _Runner treats it as gone
                runner = _Runner(record.pid, record.pid_start_time)
                runner.signal(signal.SIGKILL)
                runner.await_gone()
            self._settle_dead_runner(record)

    def _settle_dead_runner(self, record: JobRecord) -> None:
        """A runner process is gone; decide the job's next state."""
        result = self.store.read_result(record.job_id)
        changes: dict = {"finished_at": time.time()}
        if result is not None:
            changes.update(
                state=_RESULT_STATES.get(result.get("state"),
                                         JobState.FAILED),
                result=result,
            )
        elif record.cancel_requested:
            changes["state"] = JobState.CANCELLED
        elif record.error is not None:
            # marked for eviction (timeout) before the kill
            changes["state"] = JobState.EVICTED
        elif record.restarts >= self.max_restarts:
            changes.update(
                state=JobState.EVICTED,
                error=(
                    f"runner died {record.restarts + 1} times without "
                    "writing a result (see its runner.log)"
                ),
            )
        else:
            changes = {
                "state": JobState.QUEUED,
                "restarts": record.restarts + 1,
            }
        self.store.update(
            record.job_id, pid=None, pid_start_time=None, **changes
        )

    # -- API-facing operations --------------------------------------------
    def submit(self, spec: JobSpec | dict, priority: int = 0) -> JobRecord:
        """Validate and enqueue one job (raises ``ValueError`` on bad
        specs or a ``world_size`` that can never be admitted)."""
        if not isinstance(spec, JobSpec):
            spec = JobSpec.from_dict(spec)
        if spec.world_size > self.max_ranks:
            raise ValueError(
                f"job world_size {spec.world_size} exceeds the pool's "
                f"max_ranks {self.max_ranks}; it could never be admitted"
            )
        with self._lock:
            record = self.store.submit(spec, priority=priority)
        self._wake()
        return record

    def cancel(self, job_id: str) -> JobRecord:
        """Cancel one job; idempotent, raises ``KeyError`` if unknown.

        Queued jobs go terminal immediately; running jobs get a
        cooperative SIGTERM now and a SIGKILL after ``grace_s`` if the
        runner has not stopped at a step boundary by then.
        """
        with self._lock:
            record = self.store.get(job_id)
            if record.terminal:
                return record
            if record.state == JobState.QUEUED:
                record = self.store.update(
                    job_id,
                    state=JobState.CANCELLED,
                    cancel_requested=True,
                    finished_at=time.time(),
                )
            else:
                record = self.store.update(job_id, cancel_requested=True)
                runner = self._children.get(job_id)
                if runner is not None and job_id not in self._term_sent:
                    self._terminate(job_id, runner)
        self._wake()
        return record

    def _terminate(self, job_id: str, runner: _Runner) -> None:
        runner.signal(signal.SIGTERM)
        self._term_sent[job_id] = time.monotonic()

    def runners(self) -> dict:
        """How warm the pool is (``/healthz``): a daemon that keeps
        restarting its zygote is paying cold starts again."""
        zygote = self._zygote
        return {
            "zygote": zygote.state,
            "zygote_starts": zygote.starts,
            "forked": zygote.forked,
        }

    def running_ranks(self) -> int:
        return sum(
            r.spec.world_size
            for r in self.store.list(JobState.RUNNING)
        )

    # -- the scheduling tick ----------------------------------------------
    def step(self) -> None:
        """One scheduler tick: reap, enforce, admit."""
        with self._lock:
            self._zygote.poll()
            self._reap()
            self._enforce()
            self._admit()

    def _reap(self) -> None:
        for job_id, runner in list(self._children.items()):
            if runner.alive():
                continue
            del self._children[job_id]
            if runner.pidfd is not None:
                os.close(runner.pidfd)
            self._term_sent.pop(job_id, None)
            self._settle_dead_runner(self.store.get(job_id))

    def _enforce(self) -> None:
        now = time.monotonic()
        for job_id, runner in list(self._children.items()):
            record = self.store.get(job_id)
            if record.cancel_requested:
                sent = self._term_sent.get(job_id)
                if sent is None:
                    self._terminate(job_id, runner)
                elif now - sent > self.grace_s:
                    runner.signal(signal.SIGKILL)
            timeout = record.spec.timeout_s
            if (
                timeout is not None
                and record.started_at is not None
                and time.time() - record.started_at > timeout
                and record.error is None
            ):
                self.store.update(
                    job_id,
                    error=f"evicted: exceeded timeout_s={timeout}",
                )
                runner.signal(signal.SIGKILL)

    def _admit(self) -> None:
        free = self.max_ranks - self.running_ranks()
        if free <= 0:
            return
        queued = [
            r for r in self.store.list(JobState.QUEUED)
            if not r.cancel_requested
        ]
        for record in self.scheduler.admit(self.queue.order(queued), free):
            self._spawn(record)

    def _spawn(self, record: JobRecord) -> None:
        pid, start_time = self._zygote.fork_runner(
            self.store.job_dir(record.job_id),
            self.store.log_path(record.job_id),
        )
        try:
            pidfd = os.pidfd_open(pid)
        except OSError:
            # already gone (the next tick settles it), or a kernel
            # without pidfds (its exit is seen a poll interval late)
            pidfd = None
        self._children[record.job_id] = _Runner(pid, start_time, pidfd)
        self.store.update(
            record.job_id,
            state=JobState.RUNNING,
            pid=pid,
            pid_start_time=start_time,
            started_at=time.time(),
        )

    # -- long-running service ---------------------------------------------
    def start_api(self) -> tuple[str, int]:
        """Bind and start the HTTP API thread; returns (host, port)."""
        from .api import make_server

        if self._server is None:
            self._server = make_server(self, self.host, self.port)
            self._server_thread = threading.Thread(
                target=self._server.serve_forever,
                name="serve-api",
                daemon=True,
            )
            self._server_thread.start()
        return self._server.server_address[:2]

    @property
    def address(self) -> tuple[str, int] | None:
        return None if self._server is None else (
            self._server.server_address[:2]
        )

    def request_stop(self) -> None:
        self._stop.set()
        self._wake()

    def _wake(self) -> None:
        try:
            self._wake_tx.send(b"\0")
        except OSError:
            # full: a wake-up is already pending; closed: nobody waits
            pass

    def _wait(self, timeout: float) -> None:
        """Sleep until a tick is due: an event, or ``timeout`` at most.

        Events are a runner's exit (its pidfd), a word from the zygote
        (it is ready, or it died) and :meth:`_wake`.  Timeouts and the
        cancel grace period have no event, hence the upper bound.
        """
        with self._lock:
            fds = [self._wake_rx.fileno()]
            if self._zygote.channel is not None:
                fds.append(self._zygote.channel.fileno())
            fds += [
                runner.pidfd for runner in self._children.values()
                if runner.pidfd is not None
            ]
        if self._wake_rx.fileno() in _wait_readable(fds, timeout):
            try:
                self._wake_rx.recv(4096)
            except BlockingIOError:  # pragma: no cover - raced
                pass

    def serve_forever(self, drain: bool = False) -> None:
        """Run the scheduling loop until stopped.

        With ``drain=True`` the loop exits once every job in the store
        is terminal — the batch mode the load test and CI use.
        """
        self.start_api()
        with self._lock:
            # imports while the API comes up and the first job arrives
            self._zygote.start()
        while not self._stop.is_set():
            self.step()
            if drain and all(r.terminal for r in self.store.list()):
                return
            self._wait(self.poll_interval)

    def close(self) -> None:
        """Stop the API, kill any still-running runners, end the zygote.

        Killed runners are requeued by the settle path, so a later
        daemon over the same root resumes them — closing is equivalent
        to a crash that was tidied up.
        """
        with self._lock:
            for runner in self._children.values():
                runner.signal(signal.SIGKILL)
            for runner in self._children.values():
                runner.await_gone()
            self._reap()
            self._zygote.retire()
        if self._server is not None:
            self._server.shutdown()
            self._server.server_close()
            self._server_thread.join(timeout=5.0)
            self._server = None
            self._server_thread = None
        self._wake_rx.close()
        self._wake_tx.close()

    def __enter__(self) -> "ServeDaemon":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
