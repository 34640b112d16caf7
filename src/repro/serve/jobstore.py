"""Persistent on-disk job records with atomic writes and rescan.

Layout (everything under the daemon's ``--root``)::

    <root>/jobs/<job-id>/record.json     daemon-owned job record
    <root>/jobs/<job-id>/result.json     runner-owned terminal result
    <root>/jobs/<job-id>/metrics.ndjson  runner-owned live metric stream
    <root>/jobs/<job-id>/trace.json      runner-owned Chrome trace (opt)
    <root>/jobs/<job-id>/runner.log      runner stdout/stderr
    <root>/jobs/<job-id>/ckpts/          per-job checkpoint directory

Single-writer discipline keeps the store race-free without file locks:
``record.json`` is written only by the daemon, ``result.json`` and the
metric stream only by the job's runner process.  Every JSON write goes
through tmp-file + ``os.replace`` so a crash mid-write can never leave
a torn file — a reader sees either the previous record or the new one,
and stray ``*.tmp*`` leftovers are ignored (and swept) on rescan.

The store survives the daemon: a restarted daemon constructs a fresh
:class:`JobStore` over the same root and :meth:`JobStore.reload` finds
every job exactly as the dead daemon left it.
"""

from __future__ import annotations

import json
import os
import re
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

from .jobspec import JobSpec

__all__ = [
    "JobRecord",
    "JobState",
    "JobStore",
    "TERMINAL_STATES",
    "process_start_time",
    "read_json",
    "write_json_atomic",
]


class JobState:
    """Job lifecycle states (plain strings, JSON-friendly)."""

    QUEUED = "queued"
    RUNNING = "running"
    SUCCEEDED = "succeeded"
    FAILED = "failed"
    CANCELLED = "cancelled"
    EVICTED = "evicted"


#: states a job never leaves
TERMINAL_STATES = frozenset(
    {JobState.SUCCEEDED, JobState.FAILED, JobState.CANCELLED,
     JobState.EVICTED}
)


def write_json_atomic(path: str | os.PathLike, payload: dict) -> Path:
    """Write ``payload`` as JSON via tmp-file + ``os.replace``."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{path.name}.tmp{os.getpid()}"
    try:
        tmp.write_text(json.dumps(payload, indent=1, sort_keys=True))
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # pragma: no cover - only on failed write
            tmp.unlink()
    return path


def read_json(path: str | os.PathLike) -> dict | None:
    """Read a JSON file; ``None`` when absent or torn mid-write."""
    try:
        return json.loads(Path(path).read_text())
    except FileNotFoundError:
        return None
    except (OSError, json.JSONDecodeError):
        return None


def process_start_time(pid: int) -> int | None:
    """Start time of live process ``pid`` (clock ticks since boot).

    Field 22 of ``/proc/<pid>/stat``.  Paired with the pid it names one
    process for the machine's uptime: a recycled pid starts later, so
    it reads a different value.  ``None`` when there is no such
    process or it is an unreaped zombie -- a runner that has exited is
    gone whether or not anyone has waited for it.
    """
    try:
        stat = Path(f"/proc/{pid}/stat").read_bytes()
    except OSError:
        return None
    # the command (field 2) is parenthesised and may itself hold
    # spaces or parentheses; field 3 (the state) follows its last ")"
    fields = stat.rsplit(b")", 1)[1].split()
    if fields[0] in (b"Z", b"X"):
        return None
    return int(fields[19])


@dataclass
class JobRecord:
    """One job as the daemon tracks it.

    Attributes:
        job_id: stable id, ``job-<seq>``.
        seq: monotonic submission counter — the FIFO tie-break.
        priority: higher runs first (under the priority queue).
        spec: what the job trains.
        state: one of the :class:`JobState` values.
        cancel_requested: set by the API; the daemon turns it into a
            SIGTERM (running) or an immediate ``cancelled`` (queued).
        pid: the runner process id while ``running``.
        pid_start_time: that process's :func:`process_start_time`; the
            daemon signals ``pid`` only while it still reads this value
            (``None`` in records written before the field existed).
        restarts: times the runner died without writing a result and
            the job was requeued to resume (daemon crash, SIGKILL);
            past the daemon's ``max_restarts`` the job is evicted.
        error: human-readable reason for ``evicted``.
        result: the runner's terminal payload (digest, accuracy,
            traceback, ...) merged in at reap time.
    """

    job_id: str
    seq: int
    priority: int
    spec: JobSpec
    state: str = JobState.QUEUED
    cancel_requested: bool = False
    pid: int | None = None
    pid_start_time: int | None = None
    restarts: int = 0
    submitted_at: float = field(default_factory=time.time)
    started_at: float | None = None
    finished_at: float | None = None
    error: str | None = None
    result: dict | None = None

    @property
    def terminal(self) -> bool:
        return self.state in TERMINAL_STATES

    def to_dict(self) -> dict:
        record = dict(vars(self))
        record["spec"] = self.spec.to_dict()
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "JobRecord":
        kwargs = dict(record)
        kwargs["spec"] = JobSpec.from_dict(kwargs["spec"])
        return cls(**kwargs)


class JobStore:
    """Directory-backed job records; the daemon's single source of truth.

    Thread-safe: the API server's request threads and the scheduling
    loop mutate through one lock.  All mutations write through to disk
    atomically before returning, so at every instant the on-disk state
    is a consistent snapshot a restarted daemon can rescan.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = Path(root)
        self.jobs_dir = self.root / "jobs"
        self.jobs_dir.mkdir(parents=True, exist_ok=True)
        self._lock = threading.RLock()
        self._records: dict[str, JobRecord] = {}
        self.reload()

    # -- paths ------------------------------------------------------------
    def job_dir(self, job_id: str) -> Path:
        return self.jobs_dir / job_id

    def record_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "record.json"

    def result_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "result.json"

    def metrics_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "metrics.ndjson"

    def trace_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "trace.json"

    def log_path(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "runner.log"

    def checkpoint_dir(self, job_id: str) -> Path:
        return self.job_dir(job_id) / "ckpts"

    # -- scanning ---------------------------------------------------------
    def reload(self) -> None:
        """Rebuild the in-memory view from disk (daemon restart)."""
        with self._lock:
            self._records.clear()
            # every job-<seq> directory owns its id (and checkpoints),
            # readable record or not
            taken = [-1]
            for entry in sorted(self.jobs_dir.iterdir()):
                if not entry.is_dir():
                    continue
                if match := re.fullmatch(r"job-(\d+)", entry.name):
                    taken.append(int(match.group(1)))
                payload = read_json(entry / "record.json")
                if payload is None:
                    # a submission that crashed before its first
                    # atomic record write; nothing to recover
                    continue
                try:
                    record = JobRecord.from_dict(payload)
                except (ValueError, TypeError, KeyError) as exc:
                    # valid JSON that no longer validates (a spec field
                    # or scheme this version rejects, a missing key):
                    # one bad record must not keep the daemon from
                    # starting and resuming the others
                    print(
                        f"jobstore: skipping {entry.name}: "
                        f"{type(exc).__name__}: {exc}",
                        file=sys.stderr,
                    )
                    continue
                self._records[record.job_id] = record
                taken.append(record.seq)
            self._seq = max(taken) + 1

    # -- reads ------------------------------------------------------------
    def get(self, job_id: str) -> JobRecord:
        with self._lock:
            return self._records[job_id]

    def list(self, state: str | None = None) -> list[JobRecord]:
        """All records (optionally one state), in submission order."""
        with self._lock:
            records = sorted(
                self._records.values(), key=lambda r: r.seq
            )
        if state is not None:
            records = [r for r in records if r.state == state]
        return records

    def counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for record in self.list():
            counts[record.state] = counts.get(record.state, 0) + 1
        return counts

    # -- writes (daemon only) ---------------------------------------------
    def save(self, record: JobRecord) -> JobRecord:
        with self._lock:
            self._records[record.job_id] = record
            write_json_atomic(
                self.record_path(record.job_id), record.to_dict()
            )
        return record

    def submit(self, spec: JobSpec, priority: int = 0) -> JobRecord:
        with self._lock:
            seq = self._seq
            self._seq += 1
            record = JobRecord(
                job_id=f"job-{seq:06d}",
                seq=seq,
                priority=int(priority),
                spec=spec,
            )
            self.job_dir(record.job_id).mkdir(parents=True, exist_ok=True)
            return self.save(record)

    def update(self, job_id: str, **fields_) -> JobRecord:
        """Mutate named fields of one record, atomically persisted."""
        with self._lock:
            record = self._records[job_id]
            for name, value in fields_.items():
                if not hasattr(record, name):
                    raise AttributeError(
                        f"JobRecord has no field {name!r}"
                    )
                setattr(record, name, value)
            return self.save(record)

    # -- runner artefacts -------------------------------------------------
    def read_result(self, job_id: str) -> dict | None:
        return read_json(self.result_path(job_id))

    def sweep_tmp(self) -> int:
        """Delete stray ``*.tmp*`` files left by a killed writer."""
        swept = 0
        for entry in self.jobs_dir.glob("*/.*.tmp*"):
            entry.unlink(missing_ok=True)
            swept += 1
        return swept
