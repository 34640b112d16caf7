"""Parent side of the benchmark: pinned children, bounded and cleaned up.

Every measurement happens in a fresh child interpreter (``child.py``)
started with the environment of :func:`child_env`: ``PYTHONPATH=src``,
``PYTHONHASHSEED=0`` and BLAS/OMP/MKL pinned to one thread -- with
OpenBLAS left at its default thread count the process engine's step
time more than doubles and its run-to-run spread reaches 26 % on two
cores.  Each child leads its own process group; whatever happens
(success, output-check failure, timeout, ``KeyboardInterrupt``) the
group is killed and waited for, the run's temp directory is removed,
and ``/dev/shm`` segments a killed child left behind are unlinked.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import stats
from catalog import END_TO_END, PER_LAYER

HERE = Path(__file__).resolve().parent
REPO = HERE.parents[1]
SRC = REPO / "src"
#: build products and scratch; git-ignored, inside the checkout
BUILD = REPO / ".bench_build" / "e2e"
BLAS_THREADS = "1"
#: fresh-interpreter set-ups per untraced run; ``setup_s`` is their median
SETUPS = 3
SHM = Path("/dev/shm")


def child_env(tmp: Path) -> dict:
    env = dict(os.environ)
    inherited = env.get("PYTHONPATH")
    env.update(
        PYTHONPATH=str(SRC) + (os.pathsep + inherited if inherited else ""),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=BLAS_THREADS,
        OMP_NUM_THREADS=BLAS_THREADS,
        MKL_NUM_THREADS=BLAS_THREADS,
        REPRO_KERNELS_CACHE=str(BUILD / "kernels"),
        TMPDIR=str(tmp),
    )
    return env


def preflight() -> None:
    """Build step, outside every ``setup_s``: kernel ``.so`` and bytecode.

    Runs once per state of the kernel sources (a marker file records
    their hash), so ordinary runs pay nothing for it.
    """
    kernel_dir = SRC / "repro" / "quantization" / "kernels"
    digest = hashlib.sha256(platform.python_version().encode())
    for source in sorted(kernel_dir.glob("_*")):
        if source.is_file():
            digest.update(source.read_bytes())
    marker = BUILD / "preflight"
    if marker.exists() and marker.read_text() == digest.hexdigest():
        return
    BUILD.mkdir(parents=True, exist_ok=True)
    env = child_env(BUILD)
    subprocess.run(
        [sys.executable, "-m", "compileall", "-q", str(SRC / "repro"), str(HERE)],
        check=True, env=env, timeout=600,
    )
    subprocess.run(
        [sys.executable, "-c",
         "from repro.quantization import kernels; kernels.active()"],
        check=True, env=env, timeout=600,
    )
    marker.write_text(digest.hexdigest())


def fingerprint(child: dict) -> dict:
    """What must match before two results may be compared, and context.

    ``child`` is the ``env`` report of any one child of the suite.
    """
    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=REPO, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": child.get("python", platform.python_version()),
        "numpy": child.get("numpy", "unknown"),
        "kernel_backend": child.get("kernel_backend", "unknown"),
        "blas_threads": BLAS_THREADS,
        "loadavg_at_start": list(os.getloadavg()),
        "commit": commit,
    }


class ChildFailed(Exception):
    """A child timed out, crashed, or printed no result."""


def _group_members(pgid: int) -> list[int]:
    """Live processes of one group (zombies have ended; init reaps them)."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            # after the parenthesised command: state, ppid, pgrp, ...
            state, _, group = stat.read_text().rsplit(")", 1)[1].split()[:3]
        except (OSError, ValueError):
            continue
        if int(group) == pgid and state != "Z":
            members.append(int(stat.parent.name))
    return members


def kill_group(pgid: int, timeout: float = 10.0) -> None:
    """SIGKILL a process group and wait until none of it is left."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + timeout
    while _group_members(pgid) and time.monotonic() < deadline:
        time.sleep(0.02)


def run_child(
    workload: str, seed: int, seconds: float, mode: str, tmp: Path,
    timeout: float, spans: Path | None = None,
) -> dict:
    """Run ``child.py`` once; returns its result or raises ChildFailed."""
    tmp.mkdir(parents=True, exist_ok=True)
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--mode", mode,
        "--t0", repr(time.monotonic()), "--tmp", str(tmp),
    ]
    if spans is not None:
        command += ["--spans", str(spans)]
    shm_before = set(os.listdir(SHM)) if SHM.is_dir() else set()
    process = subprocess.Popen(
        command, cwd=REPO, env=child_env(tmp), stdout=subprocess.PIPE,
        text=True, start_new_session=True,
    )
    try:
        try:
            stdout, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise ChildFailed(
                f"{workload} ({mode}) did not finish within {timeout:.0f} s"
            ) from None
        lines = stdout.strip().splitlines()
        if process.returncode != 0 or not lines:
            raise ChildFailed(
                f"{workload} ({mode}) exited with code {process.returncode}"
            )
        try:
            return json.loads(lines[-1])
        except json.JSONDecodeError:
            raise ChildFailed(
                f"{workload} ({mode}) printed no result: {lines[-1][:200]!r}"
            ) from None
    finally:
        # the group outlives a killed or crashed leader: ranks, the
        # serve daemon and its runners all share it
        kill_group(process.pid)
        process.wait()
        process.stdout.close()
        if process.returncode != 0 and SHM.is_dir():
            # a killed coordinator cannot unlink its gradient arena
            for name in set(os.listdir(SHM)) - shm_before:
                try:
                    (SHM / name).unlink()
                except OSError:
                    pass
        shutil.rmtree(tmp, ignore_errors=True)


def measure(
    workload: str, seed: int, seconds: float, traced: bool,
    timeout: float = 150.0, spans: Path | None = None,
) -> dict:
    """One benchmark run: the result the driver's last line is built from.

    An untraced run sets the workload up in ``SETUPS`` fresh
    interpreters (the last one goes on to measure) and reports the
    median set-up; their warm-up records must agree exactly.  A failed
    or hung child makes the run ``correct: false`` with every attempted
    op failed, and no metrics.
    """
    preflight()
    tmp = BUILD / f"run-{os.getpid()}"
    errors: list[str] = []
    reports: list[dict] = []
    try:
        if not traced:
            for _ in range(SETUPS - 1):
                reports.append(
                    run_child(workload, seed, seconds, "setup", tmp, timeout)
                )
        reports.append(
            run_child(
                workload, seed, seconds, "traced" if traced else "untraced",
                tmp, timeout, spans,
            )
        )
    except ChildFailed as failure:
        return {
            "correct": False, "attempted": 1, "failed": 1, "metrics": {},
            "errors": [str(failure)], "env": {}, "epochs": None,
        }
    final = reports[-1]
    errors += final["errors"]
    if any(report["warm"] != final["warm"] for report in reports):
        errors.append(
            "fresh interpreters disagree on the warm-up output of one seed"
        )
    if traced:
        metrics = {
            name: {"value": float(final["layers"].get(name, 0.0)), "unit": unit}
            for name, unit, _ in PER_LAYER
        }
    else:
        values = dict(
            final["e2e"],
            setup_s=stats.median(report["setup_s"] for report in reports),
            peak_rss_mb=final["peak_rss_mb"],
        )
        metrics = {
            name: {"value": float(values[name]), "unit": unit}
            for name, unit, _, _ in END_TO_END
        }
    attempted = final["attempted"]
    return {
        "correct": not errors,
        "attempted": attempted,
        # a failed output check fails the whole run, not one op of it
        "failed": attempted if errors else final["failed"],
        "metrics": metrics,
        "errors": errors,
        "env": final["env"],
        "epochs": final.get("epochs"),
        "info": final.get("info", ""),
    }
