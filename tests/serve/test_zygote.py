"""The warm process model: zygote-forked runners and the event loop.

A job is still one OS process with its own log, killable and resumable;
what changed is who starts it (a pre-imported zygote forks it) and how
the daemon knows it (pid + start time).  These tests pin that nothing
observable moved: digests, logs, cancel / timeout / crash recovery.
"""

import os
import signal
import subprocess
import sys
import threading
import time

import pytest

from repro.serve import JobSpec, JobState, JobStore, ServeDaemon
from repro.serve import daemon as daemon_module
from repro.serve.daemon import ZygoteError
from repro.serve.jobstore import process_start_time

from .conftest import (
    SLOW_SPEC,
    TINY_SPEC,
    drive_to_terminal,
    drive_until,
    reference_result,
)

_BURST = {
    "model": "alexnet",
    "world_size": 2,
    "image_size": 8,
    "train_samples": 32,
    "test_samples": 32,
    "epochs": 1,
}
#: the four scheme families of the e2e ``serve-burst`` workload (on the
#: default sequential engine) and one job on each other engine
PARITY_SPECS = [
    {**_BURST, "scheme": "32bit"},
    {**_BURST, "scheme": "qsgd4"},
    {**_BURST, "scheme": "1bit"},
    {**_BURST, "scheme": "qsgd8"},
    {**_BURST, "scheme": "qsgd4", "engine": "threaded"},
    {**_BURST, "scheme": "1bit", "engine": "process"},
]


def outcome(result):
    return result["state"], result["digest"], result["kernel_backend"]


def mid_training(daemon, job_id):
    """The runner has finished an epoch: it is past its imports."""
    return lambda: daemon.store.metrics_path(job_id).exists()


class TestDigestParity:
    def test_zygote_cold_and_in_process_agree_in_any_order(self, tmp_path):
        store = JobStore(tmp_path / "cold")
        in_process, cold = [], []
        for index, spec in enumerate(PARITY_SPECS):
            in_process.append(outcome(
                reference_result(spec, tmp_path / f"ref-{index}")
            ))
            record = store.submit(JobSpec.from_dict(spec))
            subprocess.run(
                [sys.executable, "-m", "repro.serve.runner",
                 str(store.job_dir(record.job_id))],
                check=True, timeout=120,
            )
            cold.append(outcome(store.read_result(record.job_id)))
        assert cold == in_process
        assert all(state == "succeeded" for state, _, _ in in_process)

        # a job's bits cannot depend on what the zygote forked before it
        order = list(range(len(PARITY_SPECS)))
        with ServeDaemon(tmp_path / "root", max_ranks=2) as daemon:
            for indices in (order, order[::-1]):
                ids = [
                    daemon.submit(PARITY_SPECS[i]).job_id for i in indices
                ]
                drive_until(daemon, lambda: all(
                    daemon.store.get(j).terminal for j in ids
                ), timeout=120)
                forked = [
                    outcome(daemon.store.get(j).result) for j in ids
                ]
                assert forked == [in_process[i] for i in indices]
            assert daemon.runners() == {
                "zygote": "warm",
                "zygote_starts": 1,
                "forked": 2 * len(PARITY_SPECS),
            }


class TestZygoteCrash:
    def test_killed_zygote_costs_one_restart_and_no_job(
        self, tmp_path, capfd
    ):
        # long enough that the kill, sent when the first epoch line
        # appears, lands with most of the job still to run
        spec = {**SLOW_SPEC, "epochs": 12}
        reference = reference_result(spec, tmp_path / "ref")["digest"]

        with ServeDaemon(tmp_path / "root", max_ranks=2) as daemon:
            ids = [daemon.submit(spec).job_id for _ in range(2)]
            for job_id in ids:
                drive_until(daemon, mid_training(daemon, job_id))
            zygote_pid = daemon._zygote.process.pid
            os.kill(zygote_pid, signal.SIGKILL)
            finals = [drive_to_terminal(daemon, j) for j in ids]
            # a third job, after the dust settled: the new zygote serves
            last = drive_to_terminal(
                daemon, daemon.submit(TINY_SPEC).job_id
            )
            assert daemon.runners()["zygote_starts"] == 2
            assert daemon.runners()["forked"] == 5
            logs = [
                daemon.store.log_path(j).read_text() for j in ids
            ]
        for final in finals:
            assert final.state == JobState.SUCCEEDED, final.error
            assert final.result["digest"] == reference
        assert last.state == JobState.SUCCEEDED
        # each interrupted job ran in exactly two processes: the one
        # that lost its parent, and the one that resumed it
        assert [f.restarts for f in finals] == [1, 1]
        assert all(f.result["resumed_from_step"] > 0 for f in finals)
        assert last.restarts == 0
        assert len(daemon.store.list()) == 3
        # the orphaned runners said so, each in its own log and only
        # there; the daemon's stderr names the zygote's exit status
        for log in logs:
            assert log.count("runner: daemon gone") == 1
        stderr = capfd.readouterr().err
        assert "runner: daemon gone" not in stderr
        assert (
            f"serve: zygote pid {zygote_pid} exited with status -9"
            in stderr
        )

    def test_dead_on_arrival_zygote_fails_the_tick_by_name(
        self, tmp_path, monkeypatch, capfd
    ):
        with ServeDaemon(tmp_path / "root", max_ranks=2) as daemon:
            record = daemon.submit(TINY_SPEC)
            monkeypatch.setattr(sys, "executable", "/bin/false")
            with pytest.raises(ZygoteError, match="twice in a row"):
                daemon.step()
            # one restart was tried, the job was neither lost nor begun
            assert daemon.runners()["zygote_starts"] == 2
            assert daemon.store.get(record.job_id).state == JobState.QUEUED
            assert "exited with status 1" in capfd.readouterr().err
            monkeypatch.undo()
            final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.SUCCEEDED and final.restarts == 0

    def test_silent_zygote_is_replaced_within_a_bound(
        self, tmp_path, monkeypatch
    ):
        mute = tmp_path / "mute-zygote"
        mute.write_text("#!/bin/sh\nexec sleep 60\n")
        mute.chmod(0o755)
        monkeypatch.setattr(daemon_module, "_FORK_REPLY_TIMEOUT", 0.2)
        monkeypatch.setattr(daemon_module, "_ZYGOTE_EXIT_GRACE", 0.1)
        with ServeDaemon(tmp_path / "root", max_ranks=2) as daemon:
            daemon.submit(TINY_SPEC)
            monkeypatch.setattr(sys, "executable", str(mute))
            started = time.monotonic()
            with pytest.raises(ZygoteError):
                daemon.step()
            assert time.monotonic() - started < 5.0
            replacement = daemon._zygote.process
        # close() ended the replacement as well
        assert replacement.poll() is not None


class TestForkedRunnerControl:
    def test_sigkill_after_grace_when_sigterm_is_not_acted_on(
        self, tmp_path
    ):
        with ServeDaemon(
            tmp_path / "root", max_ranks=2, grace_s=0.2
        ) as daemon:
            record = daemon.submit(SLOW_SPEC)
            drive_until(daemon, mid_training(daemon, record.job_id))
            running = daemon.store.get(record.job_id)
            assert running.pid_start_time == process_start_time(running.pid)
            # a stopped process runs no handler: the cooperative path
            # cannot work and only the escalation ends it
            os.kill(running.pid, signal.SIGSTOP)
            daemon.cancel(record.job_id)
            final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.CANCELLED
        assert final.result is None
        assert process_start_time(running.pid) is None

    def test_timeout_kills_the_forked_runner(self, tmp_path):
        with ServeDaemon(tmp_path / "root", max_ranks=2) as daemon:
            record = daemon.submit({**SLOW_SPEC, "timeout_s": 0.3})
            daemon.step()
            running = daemon.store.get(record.job_id)
            assert running.state == JobState.RUNNING
            pid, start_time = running.pid, running.pid_start_time
            final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.EVICTED
        assert start_time is not None
        assert process_start_time(pid) is None


class TestEventLoop:
    def test_submit_and_exit_wake_a_loop_blocked_on_a_long_interval(
        self, tmp_path
    ):
        with ServeDaemon(
            tmp_path / "root", max_ranks=2, poll_interval=5.0
        ) as daemon:
            loop = threading.Thread(target=daemon.serve_forever)
            loop.start()
            try:
                deadline = time.monotonic() + 60.0
                while (
                    daemon.runners()["zygote"] != "warm"
                    and time.monotonic() < deadline
                ):
                    time.sleep(0.01)
                # the ready line woke the loop; it is blocked again now
                time.sleep(0.2)
                sent = time.monotonic()
                record = daemon.submit(TINY_SPEC)
                while (
                    not daemon.store.get(record.job_id).terminal
                    and time.monotonic() - sent < 4.0
                ):
                    time.sleep(0.005)
                took = time.monotonic() - sent
                final = daemon.store.get(record.job_id)
            finally:
                daemon.request_stop()
                loop.join(timeout=10.0)
            assert not loop.is_alive()
        # admitted on the submit and settled on the exit: two waits cut
        # short, where ticking alone would need 5 s for each
        assert final.state == JobState.SUCCEEDED
        assert took < 4.0
