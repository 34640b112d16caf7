"""Job store: atomic writes, rescan, and state-transition persistence."""

import json
import os
import subprocess
import sys
import time

import pytest

from repro.serve import (
    TERMINAL_STATES,
    JobRecord,
    JobSpec,
    JobState,
    JobStore,
    read_json,
    write_json_atomic,
)

from repro.serve.jobstore import process_start_time

from .conftest import TINY_SPEC


def make_store(tmp_path):
    return JobStore(tmp_path / "root")


class TestAtomicity:
    def test_write_leaves_no_tmp_files(self, tmp_path):
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        files = sorted(
            p.name for p in store.job_dir(record.job_id).iterdir()
        )
        assert files == ["record.json"]

    def test_torn_tmp_file_is_ignored_and_swept(self, tmp_path):
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        # a writer SIGKILLed mid-write leaves a torn tmp next to the
        # last good record; rescan must read the record and sweep the
        # leftover
        torn = store.job_dir(record.job_id) / ".record.json.tmp999"
        torn.write_text('{"state": "half-writ')
        rescanned = JobStore(store.root)
        assert rescanned.get(record.job_id).state == JobState.QUEUED
        assert rescanned.sweep_tmp() == 1
        assert not torn.exists()

    def test_torn_record_is_skipped_on_rescan(self, tmp_path):
        store = make_store(tmp_path)
        keep = store.submit(JobSpec.from_dict(TINY_SPEC))
        broken = store.jobs_dir / "job-999999"
        broken.mkdir()
        (broken / "record.json").write_text('{"job_id": "job-9')
        rescanned = JobStore(store.root)
        assert [r.job_id for r in rescanned.list()] == [keep.job_id]

    def test_read_json_missing_and_torn(self, tmp_path):
        assert read_json(tmp_path / "absent.json") is None
        torn = tmp_path / "torn.json"
        torn.write_text("{")
        assert read_json(torn) is None

    def test_write_json_atomic_roundtrip(self, tmp_path):
        path = write_json_atomic(tmp_path / "deep" / "result.json",
                                 {"state": "succeeded", "digest": "abc"})
        assert json.loads(path.read_text())["digest"] == "abc"


class TestProcessStartTime:
    def test_names_one_process_for_as_long_as_it_lives(self):
        child = subprocess.Popen([sys.executable, "-c", "input()"],
                                 stdin=subprocess.PIPE)
        try:
            start_time = process_start_time(child.pid)
            assert isinstance(start_time, int)
            assert process_start_time(child.pid) == start_time
            assert start_time >= process_start_time(os.getpid())
        finally:
            child.kill()
        # killed but not yet waited for: a zombie is already gone
        deadline = time.monotonic() + 10.0
        while (
            process_start_time(child.pid) is not None
            and time.monotonic() < deadline
        ):
            time.sleep(0.005)
        assert process_start_time(child.pid) is None
        assert os.path.exists(f"/proc/{child.pid}/stat")
        child.communicate()
        assert process_start_time(child.pid) is None


class TestRescan:
    def test_restart_rescan_preserves_order_and_seq(self, tmp_path):
        store = make_store(tmp_path)
        submitted = [
            store.submit(JobSpec.from_dict(TINY_SPEC), priority=p)
            for p in (0, 5, 1)
        ]
        rescanned = JobStore(store.root)
        assert [r.job_id for r in rescanned.list()] == [
            r.job_id for r in submitted
        ]
        assert [r.priority for r in rescanned.list()] == [0, 5, 1]
        # the seq counter continues after the highest persisted seq,
        # so post-restart submissions keep FIFO ordering
        fresh = rescanned.submit(JobSpec.from_dict(TINY_SPEC))
        assert fresh.seq == submitted[-1].seq + 1

    def test_update_persists_across_reload(self, tmp_path):
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        store.update(record.job_id, state=JobState.RUNNING, pid=4321)
        rescanned = JobStore(store.root)
        found = rescanned.get(record.job_id)
        assert (found.state, found.pid) == (JobState.RUNNING, 4321)

    def test_unknown_record_field_rejected(self, tmp_path):
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        with pytest.raises(AttributeError, match="no field"):
            store.update(record.job_id, bogus=1)


class TestTransitions:
    def test_cancelled_while_queued_vs_running(self, tmp_path):
        store = make_store(tmp_path)
        queued = store.submit(JobSpec.from_dict(TINY_SPEC))
        running = store.submit(JobSpec.from_dict(TINY_SPEC))
        store.update(running.job_id, state=JobState.RUNNING, pid=1234)
        # queued -> cancelled is immediate and terminal
        store.update(
            queued.job_id,
            state=JobState.CANCELLED,
            cancel_requested=True,
            finished_at=1.0,
        )
        # running -> cancel is a *request*; the job stays running (and
        # occupies its ranks) until the runner stops
        store.update(running.job_id, cancel_requested=True)
        assert store.get(queued.job_id).terminal
        live = store.get(running.job_id)
        assert live.state == JobState.RUNNING and not live.terminal
        assert live.cancel_requested

    def test_terminal_states_are_exactly_the_documented_four(self):
        assert TERMINAL_STATES == {
            JobState.SUCCEEDED,
            JobState.FAILED,
            JobState.CANCELLED,
            JobState.EVICTED,
        }

    def test_record_roundtrip(self, tmp_path):
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC), priority=7)
        clone = JobRecord.from_dict(record.to_dict())
        assert clone == record

    def test_record_of_the_previous_version_loads(self, tmp_path):
        # written before pid_start_time existed: the key is absent
        store = make_store(tmp_path)
        record = store.submit(JobSpec.from_dict(TINY_SPEC))
        store.update(record.job_id, state=JobState.RUNNING, pid=4242)
        payload = read_json(store.record_path(record.job_id))
        del payload["pid_start_time"]
        write_json_atomic(store.record_path(record.job_id), payload)
        loaded = JobStore(store.root).get(record.job_id)
        assert loaded.pid == 4242 and loaded.pid_start_time is None

    def test_counts(self, tmp_path):
        store = make_store(tmp_path)
        a = store.submit(JobSpec.from_dict(TINY_SPEC))
        store.submit(JobSpec.from_dict(TINY_SPEC))
        store.update(a.job_id, state=JobState.SUCCEEDED)
        assert store.counts() == {"succeeded": 1, "queued": 1}

    def test_spec_rejects_unknown_fields_by_name(self):
        with pytest.raises(ValueError, match="unknown spec fields: gpus"):
            JobSpec.from_dict({**TINY_SPEC, "gpus": 4})

    def test_spec_validates_model_and_sizes(self):
        with pytest.raises(ValueError, match="unknown model"):
            JobSpec.from_dict({**TINY_SPEC, "model": "gpt5"})
        with pytest.raises(ValueError, match="epochs must be >= 1"):
            JobSpec.from_dict({**TINY_SPEC, "epochs": 0})
        with pytest.raises(ValueError, match="timeout_s must be > 0"):
            JobSpec.from_dict({**TINY_SPEC, "timeout_s": -1})

    @pytest.mark.parametrize(
        "field, choices",
        [
            ("scheme", ("qsgd4", "aqsgd<bits>")),
            ("exchange", ("mpi", "nccl", "alltoall")),
            ("engine", ("sequential", "threaded", "process")),
            ("policy", ("static", "adaptive")),
            ("sync_mode", ("allreduce", "local_sgd")),
        ],
    )
    def test_spec_rejects_unknown_cell_listing_choices(self, field, choices):
        with pytest.raises(ValueError) as err:
            JobSpec.from_dict({**TINY_SPEC, field: "bogus"})
        assert "bogus" in str(err.value)
        for choice in choices:
            assert choice in str(err.value)

    def test_spec_rejects_impossible_cell(self):
        with pytest.raises(ValueError, match="batch_size must be >= world"):
            JobSpec.from_dict({**TINY_SPEC, "world_size": 4, "batch_size": 2})
        with pytest.raises(ValueError, match="world_size must be int"):
            JobSpec.from_dict({**TINY_SPEC, "world_size": "4"})

    def test_spec_dict_roundtrip_is_flat(self):
        spec = JobSpec.from_dict({**TINY_SPEC, "scheme": "topk0.01"})
        flat = spec.to_dict()
        assert flat["scheme"] == "topk0.01" and flat["world_size"] == 1
        assert "config" not in flat
        assert JobSpec.from_dict(flat) == spec


class TestBadRecordOnRescan:
    """One record that no longer validates must not stop a restart."""

    @pytest.mark.parametrize(
        "damage",
        [
            lambda r: r["spec"].update(ipc="shm"),  # unknown spec field
            lambda r: r["spec"].update(scheme="bogus"),
            lambda r: r.pop("seq"),  # missing key
            lambda r: r.pop("spec"),
        ],
        ids=["unknown-field", "rejected-scheme", "missing-key", "no-spec"],
    )
    def test_bad_record_is_skipped_and_named(self, tmp_path, capsys, damage):
        store = make_store(tmp_path)
        keep = store.submit(JobSpec.from_dict(TINY_SPEC))
        bad = store.submit(JobSpec.from_dict(TINY_SPEC))
        payload = json.loads(store.record_path(bad.job_id).read_text())
        damage(payload)
        store.record_path(bad.job_id).write_text(json.dumps(payload))

        rescanned = JobStore(store.root)
        assert [r.job_id for r in rescanned.list()] == [keep.job_id]
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and f"skipping {bad.job_id}" in err
        # the skipped directory keeps its id: a new job never inherits
        # the bad job's checkpoints
        fresh = rescanned.submit(JobSpec.from_dict(TINY_SPEC))
        assert fresh.job_id not in (keep.job_id, bad.job_id)
