"""``serve-burst``: the ``repro serve`` daemon under a closed loop.

The daemon runs as a subprocess (``--max-ranks 2 --poll-interval
0.02``).  Two clients each submit a job, poll ``GET /jobs/<id>`` every
10 ms until it is terminal, then submit the next -- a closed loop, so a
slower daemon receives less load.  Jobs cycle four tiny specs (one per
scheme family); the seed sets every spec's dataset and model seeds and
where in the cycle the run starts.  Every job asks for both ranks of the
pool, so the daemon always has one job running and one queued behind it:
admission is exercised by every job and the latency distribution has one
mode (a K=1 / K=2 mix on a 2-rank pool has four, and its median jumps
between them from seed to seed).  Whole cycles are submitted until
``--seconds`` have passed and at least 52 jobs are in (p80 then keeps
ten beyond it).

Set-up ends when the daemon answers ``/healthz`` and each client has
run one warm job.  After the window every job must be ``succeeded``
with the digest of an in-process ``run_job`` of the same spec.
"""

from __future__ import annotations

import http.client
import itertools
import json
import subprocess
import sys
import threading
import time
from pathlib import Path

from repro.serve import JobSpec, JobStore, TERMINAL_STATES
from repro.serve.runner import run_job

import stats

CLIENTS = 2
MAX_RANKS = 2
POLL_SECONDS = 0.01
#: fewest jobs of an untraced run: p80 then has ten beyond it
MIN_JOBS = 52
MIN_TRACED_JOBS = 12
TAIL = stats.tail_percentile(MIN_JOBS)

_BASE = {
    "model": "alexnet",
    "world_size": MAX_RANKS,
    "image_size": 8,
    "train_samples": 32,
    "test_samples": 32,
    "epochs": 1,
}
_CELLS = (
    {"scheme": "32bit"},
    {"scheme": "qsgd4"},
    {"scheme": "1bit"},
    {"scheme": "qsgd8"},
)


def job_specs(seed: int) -> list[dict]:
    """The four specs of this seed (the seed sets each spec's seeds)."""
    return [
        {**_BASE, **cell, "seed": 1000 * seed + i, "model_seed": 1000 * seed + i + 1}
        for i, cell in enumerate(_CELLS)
    ]


def job_order(seed: int, count: int) -> list[int]:
    """Spec index of the first ``count`` jobs: the cycle, entered at ``seed``."""
    return [(seed + i) % len(_CELLS) for i in range(count)]


class Daemon:
    """The ``repro serve`` subprocess and a counting HTTP client for it."""

    def __init__(self, root: Path):
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--root", str(root),
             "--port", "0", "--max-ranks", str(MAX_RANKS),
             "--poll-interval", "0.02"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
        )
        banner = self.process.stdout.readline()
        if "serving on http://" not in banner:
            self.close()
            raise RuntimeError(f"daemon failed to start: {banner!r}")
        address = banner.split("http://", 1)[1].split(" ", 1)[0]
        self.port = int(address.rsplit(":", 1)[1])
        self.requests = 0
        self.errors = 0
        self._lock = threading.Lock()

    def request(self, method: str, path: str, payload: dict | None = None):
        """One round trip: (status, body, seconds)."""
        body = None if payload is None else json.dumps(payload).encode()
        start = time.perf_counter()
        connection = http.client.HTTPConnection("127.0.0.1", self.port, timeout=30)
        try:
            connection.request(
                method, path, body=body,
                headers={"Content-Type": "application/json"},
            )
            response = connection.getresponse()
            status, raw = response.status, response.read()
        finally:
            connection.close()
        seconds = time.perf_counter() - start
        with self._lock:
            self.requests += 1
            self.errors += status >= 400
        return status, json.loads(raw or b"{}"), seconds

    def close(self) -> None:
        """SIGTERM lets the daemon kill and reap its runners before it exits."""
        if self.process.poll() is None:
            self.process.terminate()
            try:
                self.process.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self.process.stdout.close()


def run_one(daemon: Daemon, spec: dict) -> dict:
    """Submit one job and poll it to a terminal state (the client's op)."""
    sent = time.perf_counter()
    status, body, submit_s = daemon.request("POST", "/jobs", {"spec": spec})
    if status != 201:
        return {
            "state": f"submit {status}", "latency": submit_s,
            "done": time.perf_counter(), "polls": [],
        }
    polls = []
    while True:
        time.sleep(POLL_SECONDS)
        _, record, poll_s = daemon.request("GET", f"/jobs/{body['job_id']}")
        polls.append(poll_s)
        if record.get("state") in TERMINAL_STATES:
            break
    done = time.perf_counter()
    return {
        "state": record["state"],
        "record": record,
        "latency": done - sent,
        "done": done,
        "observed_at": time.time(),
        "submit_s": submit_s,
        "polls": polls,
    }


def closed_loop(daemon: Daemon, specs, order, seconds: float, min_jobs: int):
    """Run the clients; returns (jobs, loop start, window seconds)."""
    jobs: list[dict] = []
    lock = threading.Lock()
    cursor = iter(order)
    deadline = time.monotonic() + seconds

    def client() -> None:
        while True:
            with lock:
                submitted = len(jobs)
                if (
                    time.monotonic() >= deadline
                    and submitted >= min_jobs
                    and submitted % len(_CELLS) == 0
                ):
                    return
                index = next(cursor, None)
                if index is None:
                    return
                slot: dict = {"spec_index": index}
                jobs.append(slot)
            slot.update(run_one(daemon, specs[index]))

    threads = [threading.Thread(target=client) for _ in range(CLIENTS)]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return jobs, start, time.perf_counter() - start


def jobs_per_second(jobs: list[dict], start: float) -> float:
    """Throughput of the median cycle: four jobs over the time they took.

    Cycles are cut by completion order; the median cycle, not the whole
    window, so a disturbance that hits a few cycles does not move it.
    """
    done = sorted(job["done"] for job in jobs)
    cycle_ends = [start] + done[len(_CELLS) - 1::len(_CELLS)]
    return len(_CELLS) / stats.median(
        b - a for a, b in zip(cycle_ends, cycle_ends[1:])
    )


def reference_digests(specs: list[dict], root: Path) -> list[str]:
    digests = []
    for index, spec in enumerate(specs):
        store = JobStore(root / f"ref-{index}")
        record = store.submit(JobSpec.from_dict(spec))
        if run_job(store.job_dir(record.job_id)) != 0:
            raise RuntimeError(f"reference run failed for {spec}")
        digests.append(store.read_result(record.job_id)["digest"])
    return digests


def layer_metrics(jobs: list[dict], daemon: Daemon, window: float) -> dict:
    records = [job["record"] for job in jobs]
    run = [r["finished_at"] - r["started_at"] for r in records]
    return {
        "serve.submit_ms": 1e3 * stats.median(j["submit_s"] for j in jobs),
        "serve.poll_ms": 1e3 * stats.median(
            [p for j in jobs for p in j["polls"]]
        ),
        "serve.queue_wait_s": stats.median(
            r["started_at"] - r["submitted_at"] for r in records
        ),
        "serve.run_s": stats.median(run),
        "serve.runner_overhead_s": stats.median(
            s - r["result"]["wall_seconds"] for s, r in zip(run, records)
        ),
        "serve.settle_s": stats.median(
            j["observed_at"] - j["record"]["finished_at"] for j in jobs
        ),
        "serve.pool_occupancy": sum(
            r["spec"]["world_size"] * s for s, r in zip(run, records)
        ) / (MAX_RANKS * window),
        "serve.http_requests": daemon.requests,
        "serve.http_errors": daemon.errors,
    }


def run(seed: int, seconds: float, mode: str, t0: float, tmp: Path) -> dict:
    specs = job_specs(seed)
    traced = mode == "traced"
    min_jobs = MIN_TRACED_JOBS if traced else MIN_JOBS
    out: dict = {"errors": [], "layers": {}}
    daemon = Daemon(tmp / "store")
    try:
        status, health, _ = daemon.request("GET", "/healthz")
        if status != 200 or not health.get("ok"):
            raise RuntimeError(f"healthz answered {status}: {health}")
        warm, _, _ = closed_loop(daemon, specs, range(CLIENTS), 0.0, CLIENTS)
        out["setup_s"] = time.monotonic() - t0
        out["warm"] = [job["state"] for job in warm]
        if mode == "setup":
            return out
        # endless: the loop stops taking jobs at the deadline
        order = itertools.cycle(job_order(seed, len(_CELLS)))
        jobs, start, window = closed_loop(daemon, specs, order, seconds, min_jobs)
        if traced:
            done = [j for j in jobs if j["state"] == "succeeded"]
            if done:
                out["layers"] = layer_metrics(done, daemon, window)
    finally:
        daemon.close()
    digests = reference_digests(specs, tmp)
    bad = [
        job for job in jobs
        if job["state"] != "succeeded"
        or job["record"]["result"]["digest"] != digests[job["spec_index"]]
    ]
    for job in bad[:3]:
        out["errors"].append(
            f"job of spec {job['spec_index']}: {job['state']}, digest "
            "differs from the in-process reference"
            if job["state"] == "succeeded" else
            f"job of spec {job['spec_index']} ended {job['state']}"
        )
    out["attempted"] = max(1, len(jobs))
    out["failed"] = len(bad)
    latencies = [job["latency"] for job in jobs]
    if not traced:
        out["e2e"] = {
            "work_per_s": jobs_per_second(jobs, start),
            "op_p50_ms": 1e3 * stats.median(latencies),
            "op_tail_ms": 1e3 * stats.percentile(latencies, TAIL),
        }
    out["info"] = f"{len(jobs)} jobs in {window:.1f} s, op_tail = p{TAIL}"
    return out
