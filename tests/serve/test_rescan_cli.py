"""Restart reconciliation in-process, runner entry point, serve CLI."""

import contextlib
import os
import signal
import subprocess
import sys
import threading
import time
import urllib.request
from pathlib import Path

import pytest

from repro.cli import main as cli_main
from repro.serve import JobSpec, JobState, JobStore, ServeDaemon
from repro.serve.daemon import _Runner
from repro.serve.jobstore import process_start_time
from repro.serve.runner import main as runner_main

from .conftest import SLOW_SPEC, TINY_SPEC, drive_to_terminal


@contextlib.contextmanager
def foreign_runner(job_dir):
    """A live cold-started runner of ``job_dir`` that is not our child.

    Its parent is a launcher that stays until its stdin closes, so the
    runner is neither ours to reap nor an orphan (some sandboxes kill
    orphans at once).  Killed, it stays a zombie until the launcher
    goes -- exactly what a rescan must treat as gone.
    """
    launcher = subprocess.Popen(
        [sys.executable, "-c",
         "import subprocess, sys\n"
         "child = subprocess.Popen(\n"
         "    [sys.executable, '-m', 'repro.serve.runner',\n"
         "     sys.argv[1]],\n"
         "    stdout=subprocess.DEVNULL,\n"
         "    stderr=subprocess.STDOUT)\n"
         "print(child.pid, flush=True)\n"
         "sys.stdin.read()",
         str(job_dir)],
        stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
    )
    pid = int(launcher.stdout.readline())
    # Popen returns when exec has begun; the new command line is in
    # /proc a moment later
    deadline = time.monotonic() + 10.0
    while (
        b"repro.serve.runner"
        not in Path(f"/proc/{pid}/cmdline").read_bytes()
        and time.monotonic() < deadline
    ):
        time.sleep(0.001)
    try:
        yield pid
    finally:
        if process_start_time(pid) is not None:
            os.kill(pid, signal.SIGKILL)
        launcher.communicate(timeout=30)


def seeded_store(tmp_path, spec=TINY_SPEC, **fields):
    store = JobStore(tmp_path / "root")
    record = store.submit(JobSpec.from_dict(spec))
    if fields:
        store.update(record.job_id, **fields)
    return store, record.job_id


class TestRescan:
    def test_dead_pid_requeues_and_resumes(self, tmp_path):
        # a pid that is long gone: settle must requeue, and the next
        # admission runs the job to completion
        probe = subprocess.Popen([sys.executable, "-c", "pass"])
        probe.wait()
        store, job_id = seeded_store(
            tmp_path, state=JobState.RUNNING, pid=probe.pid, restarts=0
        )
        with ServeDaemon(store.root, max_ranks=2) as daemon:
            record = daemon.store.get(job_id)
            assert record.state == JobState.QUEUED
            assert record.restarts == 1
            final = drive_to_terminal(daemon, job_id)
        assert final.state == JobState.SUCCEEDED

    def test_recycled_pid_is_not_killed(self, tmp_path):
        # our own (alive) pid recorded against the job with no start
        # time: nothing proves it is the job's runner, so it is left
        # alone and the job requeues
        store, job_id = seeded_store(
            tmp_path, state=JobState.RUNNING, pid=os.getpid()
        )
        with ServeDaemon(store.root, max_ranks=2) as daemon:
            assert daemon.store.get(job_id).state == JobState.QUEUED

    def test_pid_with_another_start_time_is_not_signalled(self, tmp_path):
        # a live runner of this very job dir, but recorded with a start
        # time it does not have -- what a recycled pid looks like.  It
        # must survive the rescan and every later kill path.
        store, job_id = seeded_store(tmp_path, SLOW_SPEC)
        with foreign_runner(store.job_dir(job_id)) as pid:
            start_time = process_start_time(pid)
            assert start_time is not None
            store.update(
                job_id, state=JobState.RUNNING, pid=pid,
                pid_start_time=start_time + 1,
                spec=JobSpec.from_dict({**SLOW_SPEC, "timeout_s": 0.01}),
            )
            with ServeDaemon(store.root, max_ranks=2) as daemon:
                assert daemon.store.get(job_id).state == JobState.QUEUED
                assert process_start_time(pid) == start_time
                # adopt it under the wrong identity: cancel, timeout
                # enforcement and close() all go through the same check
                daemon._children[job_id] = _Runner(pid, start_time + 1, None)
                daemon.cancel(job_id)
                daemon.step()
            assert process_start_time(pid) == start_time

    def test_live_runner_with_start_time_is_killed_before_requeue(
        self, tmp_path
    ):
        store, job_id = seeded_store(tmp_path, SLOW_SPEC)
        with foreign_runner(store.job_dir(job_id)) as pid:
            store.update(
                job_id, state=JobState.RUNNING, pid=pid,
                pid_start_time=process_start_time(pid),
            )
            with ServeDaemon(store.root, max_ranks=2) as daemon:
                assert process_start_time(pid) is None
                record = daemon.store.get(job_id)
                assert record.state == JobState.QUEUED
                assert record.pid is None and record.pid_start_time is None

    def test_exhausted_restarts_evict(self, tmp_path):
        store, job_id = seeded_store(
            tmp_path, state=JobState.RUNNING, pid=None, restarts=3
        )
        with ServeDaemon(store.root, max_ranks=2) as daemon:
            record = daemon.store.get(job_id)
        assert record.state == JobState.EVICTED
        assert "without writing a result" in record.error

    def test_cancel_requested_while_queued_finalised(self, tmp_path):
        store, job_id = seeded_store(tmp_path, cancel_requested=True)
        with ServeDaemon(store.root, max_ranks=2) as daemon:
            assert daemon.store.get(job_id).state == JobState.CANCELLED

    def test_existing_result_is_honoured_over_requeue(self, tmp_path):
        store, job_id = seeded_store(
            tmp_path, state=JobState.RUNNING, pid=None
        )
        from repro.serve import write_json_atomic

        write_json_atomic(
            store.result_path(job_id),
            {"state": "succeeded", "digest": "cafe"},
        )
        with ServeDaemon(store.root, max_ranks=2) as daemon:
            record = daemon.store.get(job_id)
        assert record.state == JobState.SUCCEEDED
        assert record.result["digest"] == "cafe"


class TestRunnerMain:
    @pytest.fixture(autouse=True)
    def restore_sigterm(self):
        previous = signal.getsignal(signal.SIGTERM)
        yield
        signal.signal(signal.SIGTERM, previous)

    def test_main_trains_job_dir(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SERVE_DAEMON_PID", raising=False)
        store, job_id = seeded_store(tmp_path)
        assert runner_main([str(store.job_dir(job_id))]) == 0
        assert store.read_result(job_id)["state"] == "succeeded"

    def test_main_usage_error(self, capsys):
        assert runner_main([]) == 2
        assert "usage" in capsys.readouterr().err


class TestServeCli:
    @pytest.fixture(autouse=True)
    def restore_signals(self):
        previous = [
            (signum, signal.getsignal(signum))
            for signum in (signal.SIGTERM, signal.SIGINT)
        ]
        yield
        for signum, handler in previous:
            signal.signal(signum, handler)

    def test_drain_runs_seeded_store_to_terminal(self, tmp_path, capsys):
        store, job_id = seeded_store(tmp_path)
        code = cli_main([
            "serve", "--root", str(store.root), "--port", "0",
            "--max-ranks", "2", "--poll-interval", "0.01", "--drain",
        ])
        assert code == 0
        output = capsys.readouterr().out
        assert "serving on http://" in output
        assert "shut down cleanly" in output
        assert store.read_result(job_id)["state"] == "succeeded"

    def test_bad_max_ranks_exits_2(self, tmp_path, capsys):
        code = cli_main([
            "serve", "--root", str(tmp_path / "root"), "--max-ranks", "0",
        ])
        assert code == 2
        assert "max_ranks" in capsys.readouterr().err

    def test_unknown_kernel_backend_exits_2(
        self, tmp_path, capsys, monkeypatch
    ):
        # refused before the store exists; runners would die on it
        monkeypatch.setenv("REPRO_KERNELS", "cuda")
        code = cli_main([
            "serve", "--root", str(tmp_path / "root"), "--port", "0",
            "--drain",
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("repro serve: error: REPRO_KERNELS='cuda'")
        assert "cext, numpy" in err
        assert not (tmp_path / "root").exists()

    def test_unknown_queue_rejected_by_argparse(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as excinfo:
            cli_main([
                "serve", "--root", str(tmp_path / "root"),
                "--queue", "lifo",
            ])
        assert excinfo.value.code == 2
        assert "invalid choice" in capsys.readouterr().err


class TestFollowStream:
    def test_follow_streams_until_terminal(self, api):
        daemon, base = api
        record = daemon.submit(SLOW_SPEC)
        lines = []
        done = threading.Event()

        def follow():
            url = base + f"/jobs/{record.job_id}/metrics?follow=1"
            with urllib.request.urlopen(url, timeout=120) as stream:
                for raw in stream:
                    lines.append(raw)
            done.set()

        thread = threading.Thread(target=follow, daemon=True)
        thread.start()
        drive_to_terminal(daemon, record.job_id)
        assert done.wait(timeout=60), "follow stream never closed"
        thread.join(timeout=10)
        # every epoch line plus the phase totals arrived live
        assert len(lines) == SLOW_SPEC["epochs"] + 1
