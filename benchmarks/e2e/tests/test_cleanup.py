"""Bounded, clean runs: nothing survives a run, normal or hung."""

import os
from pathlib import Path

import pytest

import harness


def leftovers_snapshot() -> tuple[set, dict]:
    shm = set(os.listdir("/dev/shm")) if os.path.isdir("/dev/shm") else set()
    processes = {}
    for entry in Path("/proc").glob("[0-9]*/cmdline"):
        try:
            processes[int(entry.parent.name)] = entry.read_bytes()
        except OSError:
            continue
    return shm, processes


def assert_nothing_left(before: tuple[set, dict]) -> None:
    shm_before, processes_before = before
    shm_after, processes_after = leftovers_snapshot()
    assert shm_after - shm_before == set()
    ours = (b"benchmarks/e2e", b"repro", b"multiprocessing")
    survivors = {
        pid: cmdline
        for pid, cmdline in processes_after.items()
        if pid not in processes_before
        and pid != os.getpid()
        and any(mark in cmdline for mark in ours)
    }
    assert survivors == {}
    assert not list(harness.BUILD.glob("run-*"))


@pytest.mark.parametrize("workload", ["train-process", "serve-burst"])
def test_a_normal_run_leaves_nothing_behind(workload):
    before = leftovers_snapshot()
    result = harness.measure(workload, seed=2, seconds=1.0, traced=False)
    assert result["correct"], result["errors"]
    assert result["failed"] == 0
    assert_nothing_left(before)


@pytest.mark.parametrize("workload", ["train-process", "serve-burst"])
def test_a_hang_becomes_a_failed_run_and_is_cleaned_up(workload):
    """The child is cut off mid-run: ranks / daemon / runners are alive."""
    before = leftovers_snapshot()
    result = harness.measure(
        workload, seed=2, seconds=60.0, traced=True, timeout=4.0
    )
    assert result["correct"] is False
    assert result["failed"] == result["attempted"] >= 1
    assert "did not finish" in result["errors"][0]
    assert_nothing_left(before)
