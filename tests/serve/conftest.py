"""Shared helpers for the serve-layer tests: tiny specs, HTTP client."""

import json
import time
import urllib.error
import urllib.request

import pytest

from repro.serve import TERMINAL_STATES, JobSpec, JobStore, ServeDaemon
from repro.serve.runner import run_job

#: a job small enough to finish in well under a second
TINY_SPEC = {
    "model": "alexnet",
    "scheme": "32bit",
    "world_size": 1,
    "batch_size": 16,
    "epochs": 1,
    "train_samples": 16,
    "test_samples": 8,
    "image_size": 8,
}

#: a job long enough to be observably mid-flight (many checkpointed
#: steps), used by the cancel / kill / resume tests
SLOW_SPEC = {
    "model": "alexnet",
    "scheme": "qsgd4",
    "world_size": 1,
    "batch_size": 16,
    "epochs": 30,
    "train_samples": 64,
    "test_samples": 16,
    "image_size": 8,
}


def reference_result(spec, root):
    """``result.json`` of an uninterrupted in-process run of ``spec``."""
    store = JobStore(root)
    record = store.submit(JobSpec.from_dict(spec))
    assert run_job(store.job_dir(record.job_id)) == 0
    return store.read_result(record.job_id)


def http_json(url, payload=None, method=None):
    """One JSON request; returns (status_code, parsed body)."""
    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=30) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def drive_until(daemon, predicate, timeout=60.0, interval=0.02):
    """Tick ``daemon.step()`` until ``predicate()`` or fail the test."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        daemon.step()
        if predicate():
            return
        time.sleep(interval)
    pytest.fail(f"condition not reached within {timeout}s")


def drive_to_terminal(daemon, job_id, timeout=60.0):
    drive_until(
        daemon,
        lambda: daemon.store.get(job_id).state in TERMINAL_STATES,
        timeout=timeout,
    )
    return daemon.store.get(job_id)


@pytest.fixture
def daemon(tmp_path):
    with ServeDaemon(tmp_path / "root", max_ranks=2) as instance:
        yield instance


@pytest.fixture
def api(daemon):
    host, port = daemon.start_api()
    return daemon, f"http://{host}:{port}"
