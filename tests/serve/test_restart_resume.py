"""Daemon crash recovery: SIGKILL mid-flight, restart, resume, digests.

The acceptance bar for the serve subsystem: a daemon killed with
SIGKILL while jobs are running must, on restart, finish every job with
a ``History.digest()`` equal to the job's uninterrupted single-run
counterpart, and at least one interrupted job must provably resume
from an on-disk checkpoint rather than restart from scratch.
"""

import json
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

from repro.serve import JobState, JobStore, TERMINAL_STATES
from repro.serve.jobstore import process_start_time

from .conftest import SLOW_SPEC, TINY_SPEC, http_json, reference_result

SRC = Path(__file__).resolve().parents[2] / "src"

#: (spec, priority) batch mixing sizes and priorities; the slow jobs
#: are the ones the SIGKILL will interrupt mid-flight
BATCH = [
    (SLOW_SPEC, 5),
    ({**SLOW_SPEC, "world_size": 2}, 1),
    (TINY_SPEC, 0),
    ({**TINY_SPEC, "world_size": 2}, 3),
    (TINY_SPEC, 9),
    (SLOW_SPEC, 0),
]


def reference_digest(spec, tmp_path, tag):
    """Digest of an uninterrupted in-process run of ``spec``."""
    return reference_result(spec, tmp_path / f"ref-{tag}")["digest"]


def start_daemon(root, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root),
         "--port", "0", "--max-ranks", "2",
         "--poll-interval", "0.02", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    banner = process.stdout.readline()
    assert "serving on http://" in banner, banner
    port = int(banner.split("http://", 1)[1].split("/")[0]
               .rsplit(":", 1)[1].split()[0].rstrip(")"))
    return process, port


def wait_for(predicate, timeout=60.0, message="condition"):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.05)
    if callable(message):
        message = message()
    pytest.fail(f"{message} not reached within {timeout}s")


@pytest.mark.slow
def test_sigkill_restart_resumes_bit_identically(tmp_path):
    references = {}
    for index, (spec, _) in enumerate(BATCH):
        key = json.dumps(spec, sort_keys=True)
        if key not in references:
            references[key] = reference_digest(spec, tmp_path, index)

    root = tmp_path / "root"
    process, port = start_daemon(root)
    base = f"http://127.0.0.1:{port}"
    try:
        job_ids = []
        for spec, priority in BATCH:
            code, body = http_json(
                base + "/jobs", {"spec": spec, "priority": priority}
            )
            assert code == 201
            job_ids.append(body["job_id"])

        # observe the store read-only from this process: kill once a
        # slow job is mid-flight with at least one checkpoint on disk
        slow_ids = [
            job_id for job_id, (spec, _) in zip(job_ids, BATCH)
            if spec["epochs"] == SLOW_SPEC["epochs"]
        ]

        def slow_job_mid_flight():
            store = JobStore(root)
            for job_id in slow_ids:
                record = store.get(job_id)
                if record.state != JobState.RUNNING:
                    continue
                if any(store.checkpoint_dir(job_id).glob("ckpt-*.npz")):
                    return True
            return False

        wait_for(slow_job_mid_flight, message="slow job mid-flight")
        # the jobs were forked from the warm zygote, not cold-started
        _, health = http_json(base + "/healthz")
        assert health["runners"]["zygote"] == "warm"
        assert health["runners"]["zygote_starts"] == 1
        assert health["runners"]["forked"] >= 1
        store = JobStore(root)
        in_flight = [
            (record.job_id, record.pid, record.pid_start_time)
            for record in store.list(JobState.RUNNING)
        ]

        def names_its_runner(job_id, pid, start_time):
            # a record stays RUNNING until the daemon's next tick reaps
            # its runner, so a job that just finished may name a runner
            # that has exited -- after writing its result, never before
            live = process_start_time(pid)
            if live is None:
                return store.result_path(job_id).exists()
            return live == start_time

        assert in_flight and all(
            names_its_runner(*entry) for entry in in_flight
        )
        os.kill(process.pid, signal.SIGKILL)
        process.wait(timeout=30)
    finally:
        if process.poll() is None:
            process.kill()
            process.wait(timeout=30)

    # the chain dies from the top: the zygote reads EOF on its socket
    # and exits, the runners (whose command line is the zygote's) see
    # their parent gone and exit without writing a result
    def runners_left():
        found = []
        for path in Path("/proc").glob("[0-9]*/cmdline"):
            try:
                cmdline = path.read_bytes()
                if b"repro.serve.runner" in cmdline:
                    found.append(
                        (path.parent / "stat").read_text().split()[:4]
                        + cmdline.decode(errors="replace").split("\0")
                    )
            except OSError:
                continue
        return found

    wait_for(
        lambda: not runners_left(), timeout=30,
        message=lambda: f"exit of {runners_left()}",
    )
    assert not any(
        process_start_time(pid) == start_time
        for _, pid, start_time in in_flight
    )

    # restart in drain mode: rescan requeues the interrupted jobs and
    # the daemon exits once everything is terminal
    drained, _ = start_daemon(root, "--drain")
    output = drained.stdout.read()
    assert drained.wait(timeout=300) == 0, output
    assert "shut down cleanly" in output

    store = JobStore(root)
    records = {job_id: store.get(job_id) for job_id in job_ids}
    assert all(r.state in TERMINAL_STATES for r in records.values())
    assert all(
        r.state == JobState.SUCCEEDED for r in records.values()
    ), {job_id: (r.state, r.error) for job_id, r in records.items()}

    for job_id, (spec, _) in zip(job_ids, BATCH):
        expected = references[json.dumps(spec, sort_keys=True)]
        assert records[job_id].result["digest"] == expected, job_id

    resumed = [
        job_id for job_id, record in records.items()
        if record.result["resumed_from_step"] is not None
        and record.result["resumed_from_step"] > 0
    ]
    assert resumed, "no job resumed from a checkpoint after the kill"
    assert any(records[job_id].restarts >= 1 for job_id in resumed)
