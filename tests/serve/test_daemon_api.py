"""In-process daemon: lifecycle, admission, cancellation, REST API."""

import json
import socket

import pytest

from repro.serve import JobSpec, JobState, ServeDaemon
from repro.serve.runner import run_job

from .conftest import (
    SLOW_SPEC,
    TINY_SPEC,
    drive_to_terminal,
    drive_until,
    http_json,
)


class TestDaemonLifecycle:
    def test_job_runs_to_succeeded_with_digest(self, daemon):
        record = daemon.submit(TINY_SPEC)
        assert record.state == JobState.QUEUED
        final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.SUCCEEDED
        assert final.result["digest"]
        assert final.result["epochs_trained"] == TINY_SPEC["epochs"]
        assert final.result["resumed_from_step"] is None
        lines = [
            json.loads(line)
            for line in daemon.store.metrics_path(record.job_id)
            .read_text().splitlines()
        ]
        assert [line["type"] for line in lines] == [
            "epoch", "phase_totals"
        ]
        assert lines[0]["epoch"] == 0

    def test_admission_respects_rank_budget(self, daemon):
        wide = daemon.submit({**SLOW_SPEC, "world_size": 2})
        narrow = daemon.submit(TINY_SPEC)
        daemon.step()
        assert daemon.store.get(wide.job_id).state == JobState.RUNNING
        # the pool (max_ranks=2) is full: the narrow job must wait
        assert daemon.store.get(narrow.job_id).state == JobState.QUEUED
        assert daemon.running_ranks() == 2
        drive_to_terminal(daemon, narrow.job_id)
        assert daemon.store.get(narrow.job_id).state == JobState.SUCCEEDED

    def test_priority_wins_over_fifo(self, daemon):
        low = daemon.submit(TINY_SPEC, priority=0)
        high = daemon.submit({**TINY_SPEC, "world_size": 2}, priority=9)
        daemon.step()
        assert daemon.store.get(high.job_id).state == JobState.RUNNING
        assert daemon.store.get(low.job_id).state == JobState.QUEUED

    def test_oversized_world_size_rejected_at_submit(self, daemon):
        with pytest.raises(ValueError, match="exceeds the pool"):
            daemon.submit(
                {**TINY_SPEC, "world_size": 64, "batch_size": 64}
            )

    def test_impossible_cell_rejected_at_submit(self, daemon):
        with pytest.raises(ValueError, match="batch_size must be >= world"):
            daemon.submit({**TINY_SPEC, "world_size": 2, "batch_size": 1})
        assert daemon.store.list() == []
        assert list(daemon.store.jobs_dir.iterdir()) == []

    def test_config_error_surfaces_as_failed_with_traceback(self, daemon):
        # submission validates the whole cell, so a runner only meets a
        # bad spec when the stored record was changed behind its back
        record = daemon.submit({**TINY_SPEC, "world_size": 2})
        record.spec.config.batch_size = 1
        daemon.store.save(record)
        final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.FAILED
        assert "batch_size" in final.result["traceback"]

    def test_timeout_evicts_running_job(self, daemon):
        record = daemon.submit({**SLOW_SPEC, "timeout_s": 0.2})
        final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.EVICTED
        assert "timeout_s" in final.error

    def test_cancel_while_queued_never_runs(self, daemon):
        blocker = daemon.submit({**SLOW_SPEC, "world_size": 2})
        queued = daemon.submit(TINY_SPEC)
        daemon.step()
        cancelled = daemon.cancel(queued.job_id)
        assert cancelled.state == JobState.CANCELLED
        drive_to_terminal(daemon, blocker.job_id)
        final = daemon.store.get(queued.job_id)
        assert final.state == JobState.CANCELLED
        assert final.started_at is None and final.pid is None

    def test_cancel_while_running_stops_at_step_boundary(self, daemon):
        record = daemon.submit(SLOW_SPEC)
        # wait until the runner has streamed at least one epoch, so the
        # SIGTERM is guaranteed to hit a process that is mid-training
        # (not one still importing, where the default handler wins)
        drive_until(
            daemon,
            lambda: daemon.store.metrics_path(record.job_id).exists(),
        )
        daemon.cancel(record.job_id)
        final = drive_to_terminal(daemon, record.job_id)
        assert final.state == JobState.CANCELLED
        # the runner stopped cooperatively and reported itself
        assert final.result["state"] == "cancelled"

    def test_cancel_is_idempotent_and_unknown_raises(self, daemon):
        record = daemon.submit(TINY_SPEC)
        daemon.cancel(record.job_id)
        again = daemon.cancel(record.job_id)
        assert again.state == JobState.CANCELLED
        with pytest.raises(KeyError):
            daemon.cancel("job-424242")

    def test_drain_mode_returns_once_all_terminal(self, tmp_path):
        with ServeDaemon(tmp_path / "root", max_ranks=2,
                         poll_interval=0.01) as daemon:
            a = daemon.submit(TINY_SPEC)
            b = daemon.submit(TINY_SPEC)
            daemon.serve_forever(drain=True)
            states = {
                daemon.store.get(r.job_id).state for r in (a, b)
            }
        assert states == {JobState.SUCCEEDED}

    def test_constructor_validates_knobs(self, tmp_path):
        with pytest.raises(ValueError, match="max_ranks must be >= 1"):
            ServeDaemon(tmp_path / "a", max_ranks=0)
        with pytest.raises(ValueError, match="unknown queue"):
            ServeDaemon(tmp_path / "b", queue="lifo")
        with pytest.raises(ValueError, match="unknown scheduler"):
            ServeDaemon(tmp_path / "c", scheduler="edf")


class TestRunnerInProcess:
    def test_run_job_writes_result_and_metrics(self, tmp_path):
        from repro.serve import JobStore

        store = JobStore(tmp_path / "root")
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        assert run_job(store.job_dir(record.job_id)) == 0
        result = store.read_result(record.job_id)
        assert result["state"] == "succeeded"
        assert result["digest"]
        assert store.metrics_path(record.job_id).exists()

    def test_run_job_without_record_fails_cleanly(self, tmp_path):
        assert run_job(tmp_path) == 2

    def test_torn_checkpoint_fails_the_job_with_a_named_error(self, tmp_path):
        from repro.serve import JobStore

        store = JobStore(tmp_path / "root")
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        ckpts = store.job_dir(record.job_id) / "ckpts"
        ckpts.mkdir()
        (ckpts / "ckpt-00000001.npz").write_bytes(b"PK\x03\x04 torn")
        assert run_job(store.job_dir(record.job_id)) == 1
        result = store.read_result(record.job_id)
        assert result["state"] == "failed"
        assert "CheckpointError" in result["traceback"]
        assert "ckpt-00000001.npz" in result["traceback"]

    def test_cooperative_cancel_flag(self, tmp_path):
        from repro.serve import JobStore

        store = JobStore(tmp_path / "root")
        record = store.submit(JobSpec.from_dict(SLOW_SPEC))
        exit_code = run_job(
            store.job_dir(record.job_id),
            cancel_flag={"cancel": True},
        )
        assert exit_code == 1
        assert store.read_result(record.job_id)["state"] == "cancelled"


class TestRestApi:
    def test_submit_status_list_cancel_session(self, api):
        daemon, base = api
        code, record = http_json(
            base + "/jobs",
            {"spec": TINY_SPEC, "priority": 2},
        )
        assert code == 201
        job_id = record["job_id"]
        assert record["state"] == "queued"

        code, status = http_json(base + f"/jobs/{job_id}")
        assert code == 200 and status["priority"] == 2

        drive_to_terminal(daemon, job_id)
        code, status = http_json(base + f"/jobs/{job_id}")
        assert status["state"] == "succeeded"
        assert status["result"]["digest"]

        code, listing = http_json(base + "/jobs?state=succeeded")
        assert [j["job_id"] for j in listing["jobs"]] == [job_id]

        code, cancelled = http_json(
            base + f"/jobs/{job_id}/cancel", method="POST"
        )
        # cancelling a terminal job is an idempotent no-op
        assert code == 200 and cancelled["state"] == "succeeded"

    def test_healthz_reports_pool_and_counts(self, api):
        daemon, base = api
        code, health = http_json(base + "/healthz")
        assert code == 200
        assert health["ok"] and health["max_ranks"] == 2
        assert health["queue"] == "priority"
        assert health["scheduler"] == "first-fit"
        # nothing admitted yet: no zygote has been started
        assert health["runners"] == {
            "zygote": "down", "zygote_starts": 0, "forked": 0,
        }
        drive_to_terminal(daemon, daemon.submit(TINY_SPEC).job_id)
        _, health = http_json(base + "/healthz")
        assert health["runners"] == {
            "zygote": "warm", "zygote_starts": 1, "forked": 1,
        }

    def test_metrics_endpoint_streams_ndjson(self, api):
        daemon, base = api
        _, record = http_json(base + "/jobs", {"spec": TINY_SPEC})
        drive_to_terminal(daemon, record["job_id"])
        import urllib.request

        with urllib.request.urlopen(
            base + f"/jobs/{record['job_id']}/metrics"
        ) as response:
            assert response.headers["Content-Type"] == (
                "application/x-ndjson"
            )
            lines = response.read().decode().splitlines()
        assert json.loads(lines[0])["type"] == "epoch"
        assert json.loads(lines[-1])["type"] == "phase_totals"

    def test_trace_roundtrip(self, api):
        daemon, base = api
        _, record = http_json(
            base + "/jobs", {"spec": {**TINY_SPEC, "trace": True}}
        )
        code, body = http_json(base + f"/jobs/{record['job_id']}/trace")
        assert code == 404  # not finished yet
        drive_to_terminal(daemon, record["job_id"])
        code, trace = http_json(base + f"/jobs/{record['job_id']}/trace")
        assert code == 200
        assert trace["traceEvents"]

    def test_error_statuses(self, api):
        daemon, base = api
        code, body = http_json(base + "/jobs/job-424242")
        assert code == 404 and "unknown job" in body["error"]
        code, body = http_json(base + "/nope")
        assert code == 404
        code, body = http_json(
            base + "/jobs", {"spec": {**TINY_SPEC, "gpus": 2}}
        )
        assert code == 400 and "unknown spec fields" in body["error"]
        code, body = http_json(base + "/jobs", {"priority": 1})
        assert code == 400 and "spec" in body["error"]
        code, body = http_json(
            base + "/jobs",
            {"spec": {**TINY_SPEC, "world_size": 99, "batch_size": 99}},
        )
        assert code == 400 and "max_ranks" in body["error"]

    def test_invalid_cell_is_400_and_leaves_no_job_dir(self, api):
        daemon, base = api
        code, body = http_json(base + "/jobs", {"spec": {
            "scheme": "bogus", "exchange": "nope",
            "world_size": 4, "batch_size": 2,
        }})
        assert code == 400 and "qsgd4" in body["error"]
        code, body = http_json(
            base + "/jobs", {"spec": {"world_size": 2, "batch_size": 1}}
        )
        assert code == 400 and "batch_size" in body["error"]
        assert list(daemon.store.jobs_dir.iterdir()) == []

    def raw_post(self, base, head_lines, body=b""):
        """POST /jobs with hand-written headers; returns the status code."""
        host, port = base.removeprefix("http://").split(":")
        head = "\r\n".join(["POST /jobs HTTP/1.0", *head_lines, "", ""])
        with socket.create_connection((host, int(port)), timeout=10) as conn:
            conn.sendall(head.encode() + body)
            reply = b""
            while chunk := conn.recv(65536):
                reply += chunk
        status, _, payload = reply.partition(b"\r\n\r\n")
        return int(status.split()[1]), json.loads(payload)

    @pytest.mark.parametrize("length", ["-1", "ten", "1e3"])
    def test_bad_content_length_is_400_not_a_hang(self, api, length):
        _, base = api
        code, body = self.raw_post(base, [f"Content-Length: {length}"])
        assert code == 400 and "Content-Length" in body["error"]

    def test_oversize_body_is_413_before_any_read(self, api):
        from repro.serve.api import MAX_BODY_BYTES

        daemon, base = api
        code, body = self.raw_post(
            base, [f"Content-Length: {MAX_BODY_BYTES + 1}"]
        )
        assert code == 413 and str(MAX_BODY_BYTES) in body["error"]
        assert daemon.store.list() == []

    def test_truncated_json_body_is_400(self, api):
        daemon, base = api
        raw = json.dumps({"spec": TINY_SPEC}).encode()[:-7]
        code, body = self.raw_post(
            base, [f"Content-Length: {len(raw)}"], raw
        )
        assert code == 400 and "error" in body
        assert daemon.store.list() == []
