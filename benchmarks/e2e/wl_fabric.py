"""``fabric-sweep``: the fabric simulator's event loop, nothing trained.

One pass is the quick depth of the ``repro fabric --sweep`` study --
``run_collective`` on ``leaf_spine(K, oversubscription=3)`` for K in
{64, 128, 256} x {ring, tree, butterfly, hierarchical} x {32bit, qsgd4,
1bit} -- followed by four K=128 cells whose collective loses one host
uplink for good, so the fabric partitions and the survivors re-run.
The work is fixed, not timed: one pass of 40 cells (~12 s on two cores;
p75 keeps ten beyond it) per whole 12 s of ``--seconds``, and never fewer
than two.  The simulator is deterministic, so a cell's passes differ only
by what else the machine was doing; every metric is computed from each
cell's fastest pass.

Seed 0 sweeps exactly 2 000 000 elements and cuts host 1, which pins
its makespans and wire bytes to ``expected.json`` (the K<=256 cells of
``BENCH_fabric.json``); other seeds draw the element count within 5 %
and the cut host from the seed.  ``verify_allreduce`` costs O(K^3), so
the output check interprets the K=64 schedules only; at every K the
transfer count of each cell must equal the pinned one.

The traced run calls the layers one by one -- ``leaf_spine``,
``compile_collective``, ``verify_allreduce``, ``simulate_schedule`` --
on the K <= 128 cells.
"""

from __future__ import annotations

import contextlib
import io
import random
import time
from pathlib import Path

from repro.fabric import (
    PATTERN_NAMES,
    LinkFault,
    compile_collective,
    leaf_spine,
    run_collective,
    simulate_schedule,
    verify_allreduce,
)
from repro.study import EXPERIMENTS, run_experiment

import stats

WORLD_SIZES = (64, 128, 256)
TRACED_WORLD_SIZES = (64, 128)
SCHEMES = ("32bit", "qsgd4", "1bit")
OVERSUBSCRIPTION = 3.0
ELEMENTS = 2_000_000
FAULT_WORLD_SIZE = 128
FAULT_SCHEME = "qsgd4"
FAULT_AT_S = 1e-4
VERIFIED_WORLD_SIZE = 64
#: what one pass takes on two cores; ``--seconds`` buys whole passes
PASS_SECONDS = 12
MIN_PASSES = 2
#: collective cells of one pass; p75 of 40 keeps ten beyond it
CELLS_PER_PASS = len(WORLD_SIZES) * len(SCHEMES) * len(PATTERN_NAMES) + len(PATTERN_NAMES)
TAIL = stats.tail_percentile(CELLS_PER_PASS)


def make_inputs(seed: int) -> tuple[int, LinkFault]:
    """(gradient elements, the permanent uplink cut) of this seed."""
    if seed == 0:
        elements, host = ELEMENTS, 1
    else:
        rng = random.Random(seed)
        elements = int(ELEMENTS * rng.uniform(0.95, 1.05))
        # never host 0: rank 0 anchors the surviving component
        host = rng.randrange(1, FAULT_WORLD_SIZE // 8)
    return elements, LinkFault(f"host{host}", f"leaf{host // 4}", fail_at_s=FAULT_AT_S)


def cell_key(world_size: int, pattern: str, scheme: str, faulted: bool = False) -> str:
    key = f"K{world_size}/{pattern}/{scheme}"
    return key + "/cut" if faulted else key


def pass_cells(topologies: dict, fault: LinkFault):
    """(key, topology, pattern, scheme, faults) of the 40 cells of one pass."""
    for world_size, topology in topologies.items():
        for scheme in SCHEMES:
            for pattern in PATTERN_NAMES:
                yield cell_key(world_size, pattern, scheme), topology, pattern, scheme, ()
    for pattern in PATTERN_NAMES:
        yield (
            cell_key(FAULT_WORLD_SIZE, pattern, FAULT_SCHEME, faulted=True),
            topologies[FAULT_WORLD_SIZE], pattern, FAULT_SCHEME, (fault,),
        )


def sweep_pass(topologies: dict, elements: int, fault: LinkFault):
    """Yield (key, wall seconds, result) for the 40 cells of one pass."""
    for key, topology, pattern, scheme, faults in pass_cells(topologies, fault):
        start = time.perf_counter()
        result = run_collective(
            topology, pattern, elements, scheme=scheme, faults=faults
        )
        yield key, time.perf_counter() - start, result


def pin_of(result) -> dict:
    return {
        "makespan_seconds": result.makespan_seconds,
        "total_wire_bytes": result.total_wire_bytes,
        "transfers": result.completed_transfers,
    }


def check_cell(key: str, result, pinned: dict | None, exact: bool) -> str | None:
    """What is wrong with one simulated cell (``None`` when nothing is)."""
    if key.endswith("/cut"):
        lost = result.world_size - len(result.survivors)
        if lost != 8 or len(result.topology_changes) != 8 or not result.dropped_transfers:
            return f"{key}: the cut did not evict exactly one host"
    elif result.topology_changes or result.dropped_transfers:
        return f"{key}: an unfaulted cell lost ranks or transfers"
    if pinned is None:
        return None
    want, got = pinned[key], pin_of(result)
    if got["transfers"] != want["transfers"]:
        return f"{key}: {got['transfers']} transfers, pinned {want['transfers']}"
    if exact and got != want:
        return f"{key}: makespan or wire bytes differ from expected.json"
    return None


def pin_cells() -> dict:
    """Seed 0's makespan, wire bytes and transfers per cell, for expected.json."""
    elements, fault = make_inputs(0)
    topologies = {
        k: leaf_spine(k, oversubscription=OVERSUBSCRIPTION) for k in WORLD_SIZES
    }
    return {
        key: pin_of(result)
        for key, _, result in sweep_pass(topologies, elements, fault)
    }


def verify_schedules(elements: int) -> float:
    """Interpret every K=64 schedule of the sweep; returns the seconds.

    Raises ``ValueError`` naming the first violated allreduce property.
    """
    topology = leaf_spine(VERIFIED_WORLD_SIZE, oversubscription=OVERSUBSCRIPTION)
    nodes = tuple(topology.ranks_on(host) for host in topology.hosts)
    start = time.perf_counter()
    for scheme in SCHEMES:
        for pattern in PATTERN_NAMES:
            verify_allreduce(
                compile_collective(
                    pattern, VERIFIED_WORLD_SIZE, elements,
                    scheme=scheme, nodes=nodes,
                )
            )
    return time.perf_counter() - start


def traced_pass(elements: int, fault: LinkFault) -> tuple[int, dict]:
    """One pass over the K <= 128 cells with every layer timed alone.

    Returns (cells simulated, the ``fabric.*`` rows).
    """
    seconds = dict.fromkeys(("topology", "compile", "simulate", "ring", "fault"), 0.0)
    transfers = occupancies = cells = 0

    def timed(bucket: str, fn, *args, **kwargs):
        start = time.perf_counter()
        value = fn(*args, **kwargs)
        seconds[bucket] += time.perf_counter() - start
        return value

    for world_size in TRACED_WORLD_SIZES:
        topology = timed(
            "topology", leaf_spine, world_size, oversubscription=OVERSUBSCRIPTION
        )
        nodes = tuple(topology.ranks_on(host) for host in topology.hosts)
        for scheme in SCHEMES:
            for pattern in PATTERN_NAMES:
                schedule = timed(
                    "compile", compile_collective, pattern, world_size,
                    elements, scheme=scheme, nodes=nodes,
                )
                before = seconds["simulate"]
                result = timed("simulate", simulate_schedule, topology, schedule)
                if pattern == "ring":
                    seconds["ring"] += seconds["simulate"] - before
                transfers += result.completed_transfers
                occupancies += len(result.occupancies)
                cells += 1
        if world_size == FAULT_WORLD_SIZE:
            for pattern in PATTERN_NAMES:
                cells += 1
                timed(
                    "fault", run_collective, topology, pattern, elements,
                    scheme=FAULT_SCHEME, faults=(fault,),
                )
    return cells, {
        "fabric.topology_ms": 1e3 * seconds["topology"],
        "fabric.compile_ms": 1e3 * seconds["compile"],
        "fabric.verify_ms": 1e3 * verify_schedules(elements),
        "fabric.simulate_ms": 1e3 * seconds["simulate"],
        "fabric.ring_share": seconds["ring"] / seconds["simulate"],
        "fabric.transfers": transfers,
        "fabric.occupancies": occupancies,
        "fabric.events_per_s": occupancies / seconds["simulate"],
        "fabric.fault_rerun_ms": 1e3 * seconds["fault"],
    }


def figures_cold_ms() -> float:
    """First ``run_experiment`` over the analytic figures 6-16, output dropped."""
    figures = [
        exp_id for exp_id in EXPERIMENTS
        if exp_id.startswith("fig") and not exp_id.startswith("fig5")
    ]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()):
        for exp_id in figures:
            run_experiment(exp_id)
    return 1e3 * (time.perf_counter() - start)


def run(
    seed: int, seconds: float, mode: str, t0: float, tmp: Path,
    pinned: dict | None = None,
) -> dict:
    elements, fault = make_inputs(seed)
    topologies = {
        k: leaf_spine(k, oversubscription=OVERSUBSCRIPTION) for k in WORLD_SIZES
    }
    warm = run_collective(
        topologies[WORLD_SIZES[0]], "ring", elements, scheme=FAULT_SCHEME
    )
    out: dict = {
        "errors": [],
        "layers": {},
        "setup_s": time.monotonic() - t0,
        "warm": pin_of(warm),
    }
    if mode == "setup":
        return out
    if mode == "traced":
        try:
            out["attempted"], out["layers"] = traced_pass(elements, fault)
        except ValueError as exc:
            out["attempted"] = 1
            out["errors"].append(f"verify_allreduce: {exc}")
        out["failed"] = len(out["errors"])
        out["layers"]["simulator.figures_cold_ms"] = figures_cold_ms()
        return out
    best: dict[str, float] = {}
    transfers: dict[str, int] = {}
    bad: list[str] = []
    passes = max(MIN_PASSES, int(seconds // PASS_SECONDS))
    for _ in range(passes):
        for key, wall, result in sweep_pass(topologies, elements, fault):
            best[key] = min(wall, best.get(key, wall))
            transfers[key] = result.completed_transfers
            problem = check_cell(key, result, pinned, exact=seed == 0)
            if problem:
                bad.append(problem)
    walls = list(best.values())
    try:
        verify_schedules(elements)
    except ValueError as exc:
        bad.append(f"verify_allreduce: {exc}")
    out["errors"] += bad[:3]
    out["attempted"], out["failed"] = passes * len(walls), len(bad)
    out["e2e"] = {
        "work_per_s": sum(transfers.values()) / sum(walls),
        "op_p50_ms": 1e3 * stats.median(walls),
        "op_tail_ms": 1e3 * stats.percentile(walls, TAIL),
    }
    out["info"] = f"{len(walls)} cells x {passes} passes, op_tail = p{TAIL}"
    return out
