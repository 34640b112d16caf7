"""Training-as-a-service: a multi-tenant scheduler over the trainer.

The serve layer turns the repository from "runs an experiment" into
"serves traffic": a long-running daemon (``repro serve``) accepts
training jobs over a REST/JSON API, holds them in a persistent on-disk
queue with priorities and FIFO tie-breaking, and packs them onto a
bounded pool of runner processes under admission control (a cap on
total concurrent ranks; every job declares its ``world_size``).
Runners are forked from a pre-imported zygote process, so a job starts
in milliseconds, and the scheduling loop wakes on events (a runner
exited, a request arrived) rather than on a timer.  Each
job trains in its own directory with per-step checkpoints, so a daemon
crash loses nothing: on restart the store is rescanned, queued jobs
run, and in-flight jobs resume bit-identically through the checkpoint
path (resumed ``History.digest()`` equals the uninterrupted run's).

Module map::

    jobspec.py    what a job trains (model/dataset/config), validated
    jobstore.py   persistent job records, atomic writes, rescan;
                  process identity (pid + /proc start time)
    queue.py      dispatch-order policies          (QUEUE_NAMES)
    scheduler.py  admission control onto the pool  (SCHEDULER_NAMES)
    runner.py     one job's worker process (python -m repro.serve.runner
                  <job-dir>), and the zygote that forks it (--zygote)
    daemon.py     the event-driven scheduling loop owning store, zygote
                  and pool
    api.py        REST/JSON endpoints over http.server
"""

from .api import make_server
from .daemon import ServeDaemon
from .jobspec import JobSpec
from .jobstore import (
    TERMINAL_STATES,
    JobRecord,
    JobState,
    JobStore,
    read_json,
    write_json_atomic,
)
from .queue import QUEUE_NAMES, make_queue
from .scheduler import SCHEDULER_NAMES, make_scheduler

__all__ = [
    "JobSpec",
    "JobRecord",
    "JobState",
    "JobStore",
    "TERMINAL_STATES",
    "read_json",
    "write_json_atomic",
    "QUEUE_NAMES",
    "make_queue",
    "SCHEDULER_NAMES",
    "make_scheduler",
    "ServeDaemon",
    "make_server",
]
