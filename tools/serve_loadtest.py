"""Load-test the `repro serve` daemon: many jobs, one SIGKILL, no loss.

Run:  PYTHONPATH=src python tools/serve_loadtest.py [--jobs 200]

Submits a batch of tiny training jobs with mixed priorities and world
sizes to a daemon with a 4-rank pool, SIGKILLs the daemon's zygote (the
pre-imported process its runners are forked from) mid-load and waits
for the daemon to replace it, SIGKILLs the daemon itself while jobs are
mid-flight, restarts it in ``--drain`` mode, and then checks the hard
guarantees of the serve subsystem:

  * every job reaches a terminal state (here: all succeeded),
  * every digest equals the digest of an uninterrupted in-process run
    of the same spec (bit-identical recovery),
  * at least one interrupted job resumed from an on-disk checkpoint
    instead of restarting from scratch.

Exits 0 when every check holds, 1 otherwise.
"""

import argparse
import itertools
import json
import os
import signal
import subprocess
import sys
import tempfile
import time
from pathlib import Path

from repro.serve import JobSpec, JobState, JobStore, TERMINAL_STATES
from repro.serve.runner import run_job

TINY = {
    "model": "alexnet",
    "world_size": 1,
    "batch_size": 16,
    "epochs": 1,
    "train_samples": 16,
    "test_samples": 8,
    "image_size": 8,
}

#: the bulk of the batch: tiny jobs over mixed schemes and world sizes
VARIANTS = [
    {**TINY, "scheme": "32bit"},
    {**TINY, "scheme": "qsgd4", "world_size": 2},
    {**TINY, "scheme": "qsgd8", "world_size": 4},
    {**TINY, "scheme": "qsgd2", "world_size": 2, "epochs": 2},
]

#: a longer job the SIGKILL is guaranteed to catch mid-flight, so the
#: run also proves checkpoint resume (not just requeue-from-scratch)
SLOW = {**TINY, "scheme": "qsgd4", "epochs": 40, "train_samples": 64}


def http_json(url, payload=None, method=None):
    import urllib.error
    import urllib.request

    data = None if payload is None else json.dumps(payload).encode()
    request = urllib.request.Request(
        url, data=data, method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(request, timeout=60) as response:
            return response.status, json.loads(response.read() or b"{}")
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read() or b"{}")


def start_daemon(root, max_ranks, *extra):
    process = subprocess.Popen(
        [sys.executable, "-m", "repro", "serve", "--root", str(root),
         "--port", "0", "--max-ranks", str(max_ranks),
         "--poll-interval", "0.02", *extra],
        stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
    )
    banner = process.stdout.readline()
    if "serving on http://" not in banner:
        raise RuntimeError(f"daemon failed to start: {banner!r}")
    port = int(banner.split("http://", 1)[1].split(" ", 1)[0]
               .rsplit(":", 1)[1])
    return process, port


def wait_for(predicate, timeout, message):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.1)
    raise TimeoutError(f"{message} not reached within {timeout}s")


def reference_digests(specs, scratch):
    digests = {}
    for index, spec in enumerate(specs):
        key = json.dumps(spec, sort_keys=True)
        if key in digests:
            continue
        store = JobStore(scratch / f"ref-{index}")
        record = store.submit(JobSpec.from_dict(spec))
        if run_job(store.job_dir(record.job_id)) != 0:
            raise RuntimeError(f"reference run failed for {spec}")
        digests[key] = store.read_result(record.job_id)["digest"]
    return digests


def no_runners_left():
    for path in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            if b"repro.serve.runner" in path.read_bytes():
                return False
        except OSError:
            continue
    return True


def zygote_pid(daemon_pid):
    """The daemon's ``runner --zygote`` child (``None`` before it starts)."""
    for path in Path("/proc").glob("[0-9]*/stat"):
        try:
            parent = int(path.read_bytes().rsplit(b")", 1)[1].split()[1])
            cmdline = (path.parent / "cmdline").read_bytes()
        except (OSError, ValueError, IndexError):
            continue
        if parent == daemon_pid and b"--zygote" in cmdline:
            return int(path.parent.name)
    return None


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--jobs", type=int, default=200)
    parser.add_argument("--max-ranks", type=int, default=4)
    parser.add_argument("--root", type=Path, default=None)
    args = parser.parse_args()

    root = args.root or Path(tempfile.mkdtemp(prefix="serve-loadtest-"))
    scratch = root / "references"
    started = time.monotonic()

    variants = itertools.cycle(VARIANTS)
    batch = [(SLOW, 0), (SLOW, 9)]
    batch += [
        (next(variants), priority)
        for priority in itertools.islice(
            itertools.cycle((0, 5, 1, 9, 3)), max(0, args.jobs - 2)
        )
    ]
    print(f"computing reference digests for "
          f"{len({json.dumps(s, sort_keys=True) for s, _ in batch})} "
          f"distinct specs ...")
    digests = reference_digests([spec for spec, _ in batch], scratch)

    store_root = root / "store"
    process, port = start_daemon(store_root, args.max_ranks)
    base = f"http://127.0.0.1:{port}"
    print(f"daemon pid={process.pid} on {base}; "
          f"submitting {len(batch)} jobs ...")

    job_ids = []
    for spec, priority in batch:
        code, body = http_json(
            base + "/jobs", {"spec": spec, "priority": priority}
        )
        if code != 201:
            raise RuntimeError(f"submit failed ({code}): {body}")
        job_ids.append(body["job_id"])
    slow_ids = job_ids[:2]

    def mid_flight():
        store = JobStore(store_root)
        running_slow = any(
            store.get(job_id).state == JobState.RUNNING
            and any(store.checkpoint_dir(job_id).glob("ckpt-*.npz"))
            for job_id in slow_ids
        )
        return running_slow and store.counts().get("succeeded", 0) >= 5

    wait_for(mid_flight, 300, "jobs mid-flight")
    zygote = zygote_pid(process.pid)
    print(f"SIGKILL zygote pid={zygote} mid-load")
    os.kill(zygote, signal.SIGKILL)
    done_before = JobStore(store_root).counts().get("succeeded", 0)

    def zygote_replaced():
        runners = http_json(base + "/healthz")[1]["runners"]
        done = JobStore(store_root).counts().get("succeeded", 0)
        return runners["zygote_starts"] >= 2 and done >= done_before + 5

    wait_for(zygote_replaced, 300, "zygote restart")
    wait_for(mid_flight, 300, "jobs mid-flight again")
    print(f"SIGKILL daemon pid={process.pid} mid-flight")
    os.kill(process.pid, signal.SIGKILL)
    process.wait(timeout=60)
    wait_for(no_runners_left, 60, "orphan runner exit")

    print("restarting with --drain ...")
    drained, _ = start_daemon(store_root, args.max_ranks, "--drain")
    output = drained.stdout.read()
    if drained.wait(timeout=1800) != 0:
        print(output)
        raise RuntimeError("drain run exited non-zero")

    store = JobStore(store_root)
    failures = []
    resumed = 0
    for job_id, (spec, _) in zip(job_ids, batch):
        record = store.get(job_id)
        if record.state not in TERMINAL_STATES:
            failures.append(f"{job_id}: non-terminal {record.state}")
            continue
        if record.state != JobState.SUCCEEDED:
            failures.append(
                f"{job_id}: {record.state} ({record.error})"
            )
            continue
        expected = digests[json.dumps(spec, sort_keys=True)]
        if record.result["digest"] != expected:
            failures.append(f"{job_id}: digest mismatch")
        if (record.result["resumed_from_step"] or 0) > 0:
            resumed += 1

    if resumed == 0:
        failures.append("no job resumed from a checkpoint")
    elapsed = time.monotonic() - started
    counts = store.counts()
    print(f"done in {elapsed:.1f}s: {counts}; "
          f"{resumed} job(s) resumed from checkpoints")
    if failures:
        for line in failures[:20]:
            print(f"FAIL {line}")
        print(f"{len(failures)} check(s) failed")
        return 1
    print("all jobs terminal, every digest matches its "
          "uninterrupted reference")
    return 0


if __name__ == "__main__":
    sys.exit(main())
