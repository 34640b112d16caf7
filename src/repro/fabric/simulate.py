"""Event-driven fabric simulation: per-link FIFO queueing + failures.

The single-machine simulator costs an exchange with closed-form bus
models; this module instead *runs* a compiled
:class:`~repro.fabric.schedule.CollectiveSchedule` against a
:class:`~repro.fabric.topology.FabricTopology` on a simulated clock:

* every transfer follows its routed links store-and-forward, paying
  each link's latency plus ``bytes / bandwidth``;
* links are serially-reusable FIFO resources — two transfers crossing
  the same trunk queue behind each other, which is where leaf-spine
  oversubscription and incast contention come from;
* deterministic link faults can be injected: a *flap* stalls traffic
  until its recovery time, a *permanent* failure first triggers ECMP
  rerouting around the dead trunk and, when no route survives, cuts
  the fabric — the unreachable ranks are evicted exactly like the
  resilience loop's graceful degradation (one
  :class:`~repro.runtime.resilience.TopologyChange` per lost rank) and
  the collective is re-compiled over the survivors and resumed at the
  failure time.

Everything is deterministic: same topology, schedule and faults give
the same event trace, byte for byte.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import accumulate
from math import inf
from typing import NamedTuple

from ..runtime.resilience import TopologyChange
from .schedule import CollectiveSchedule, compile_collective
from .topology import FabricTopology

__all__ = [
    "LinkFault",
    "LinkOccupancy",
    "FabricSimResult",
    "simulate_schedule",
    "run_collective",
]


@dataclass(frozen=True)
class LinkFault:
    """One deterministic link failure.

    Attributes:
        src / dst: endpoints of the failed link; the fault cuts both
            directions (a cable, not a lane).
        fail_at_s: simulation time the link goes down.
        recover_at_s: time it comes back (``None`` = permanent).
    """

    src: str
    dst: str
    fail_at_s: float = 0.0
    recover_at_s: float | None = None

    def __post_init__(self) -> None:
        # ``not >=`` rather than ``<``: a NaN time is refused too
        if not self.fail_at_s >= 0:
            raise ValueError(
                f"link fault {self.src}:{self.dst} fails at "
                f"{self.fail_at_s} s; the time must be >= 0"
            )
        if self.recover_at_s is not None and not (
            self.recover_at_s > self.fail_at_s
        ):
            raise ValueError(
                f"link fault {self.src}:{self.dst} recovers at "
                f"{self.recover_at_s} s, not after it fails at "
                f"{self.fail_at_s} s"
            )

    @property
    def permanent(self) -> bool:
        return self.recover_at_s is None

    @property
    def keys(self) -> tuple[tuple[str, str], tuple[str, str]]:
        return ((self.src, self.dst), (self.dst, self.src))


class LinkOccupancy(NamedTuple):
    """One transfer's occupancy of one link (a Chrome-trace slice).

    A tuple record: the event loop makes one per hop of every transfer.
    """

    link: tuple[str, str]
    link_class: str
    transfer: int
    op: str
    start_s: float
    end_s: float
    nbytes: int

    @property
    def busy_seconds(self) -> float:
        return self.end_s - self.start_s


@dataclass(frozen=True)
class FabricSimResult:
    """The full event trace of one simulated collective."""

    topology_name: str
    pattern: str
    scheme: str
    world_size: int
    makespan_seconds: float
    occupancies: tuple[LinkOccupancy, ...]
    completed_transfers: int
    dropped_transfers: int = 0
    topology_changes: tuple[TopologyChange, ...] = ()
    survivors: tuple[int, ...] = ()

    @property
    def total_wire_bytes(self) -> int:
        """Bytes injected into the fabric (first hop of each transfer
        counts once; store-and-forward hops repeat the payload)."""
        return sum(o.nbytes for o in self.occupancies)

    def link_busy_seconds(self) -> dict[tuple[str, str], float]:
        """Busy seconds per directed link."""
        busy: dict[tuple[str, str], float] = {}
        for occ in self.occupancies:
            busy[occ.link] = busy.get(occ.link, 0.0) + occ.busy_seconds
        return busy

    def link_utilization(self) -> dict[tuple[str, str], float]:
        """Busy fraction of the makespan per directed link."""
        if self.makespan_seconds <= 0:
            return {}
        return {
            link: busy / self.makespan_seconds
            for link, busy in self.link_busy_seconds().items()
        }

    def busiest_links(self, n: int = 5) -> list[tuple[tuple[str, str], float]]:
        """The ``n`` most utilized links, descending."""
        return sorted(
            self.link_utilization().items(),
            key=lambda item: (-item[1], item[0]),
        )[:n]


class _Partition(Exception):
    """A permanent failure cut the fabric mid-collective."""

    def __init__(self, at_s: float, dead: frozenset[tuple[str, str]],
                 completed: list[LinkOccupancy], done_count: int):
        self.at_s = at_s
        self.dead = dead
        self.completed = completed
        self.done_count = done_count
        super().__init__(f"fabric partitioned at {at_s:.6f}s")


def _check_faults(
    topology: FabricTopology, faults: tuple[LinkFault, ...]
) -> None:
    """Refuse a fault on a link the topology does not have."""
    for fault in faults:
        if not any(key in topology.links for key in fault.keys):
            # switches before GPUs: the uplink is the likely intent
            peers = sorted(
                (b for a, b in topology.links if a == fault.src),
                key=lambda node: (node.startswith("gpu"), node),
            )
            raise ValueError(
                f"no link {fault.src}:{fault.dst} in this "
                f"{topology.name} fabric to fail; "
                + (
                    f"{fault.src} connects to {', '.join(peers[:6])}"
                    + (", ..." if len(peers) > 6 else "")
                    if peers
                    else f"it has no node {fault.src!r} (nodes are "
                    "named gpu<r>, host<h>, leaf<l>, spine<s>)"
                )
            )


def simulate_schedule(
    topology: FabricTopology,
    schedule: CollectiveSchedule,
    faults: tuple[LinkFault, ...] = (),
    start_time: float = 0.0,
    rank_map: tuple[int, ...] | None = None,
) -> FabricSimResult:
    """Run one schedule through the fabric; raise on partition.

    ``rank_map`` maps schedule ranks to physical ranks (used when a
    survivor schedule re-runs on the original topology).  Raises
    :class:`_Partition` (internal) when a permanent failure leaves a
    transfer with no route; :func:`run_collective` turns that into
    topology changes plus a survivor re-run.
    """
    _check_faults(topology, faults)
    if rank_map is None:
        rank_map = tuple(range(schedule.world_size))
    transfers = schedule.transfers
    # Fault state is tabulated once: the dead set only changes at the
    # instants a permanent fault strikes, so ``dead_sets[i]`` is what
    # is dead once ``i`` of the sorted ``fail_times`` have passed (the
    # one empty set when nothing fails for good), and flaps are looked
    # up by the link they cover, in the order they were given.
    cuts = sorted(
        (f for f in faults if f.permanent), key=lambda f: f.fail_at_s
    )
    fail_times = [f.fail_at_s for f in cuts] + [inf]
    dead_sets = [frozenset()]
    for cut in cuts:
        dead_sets.append(dead_sets[-1].union(cut.keys))
    flaps_on: dict[tuple[str, str], list[LinkFault]] = {}
    for fault in faults:
        if not fault.permanent:
            for key in fault.keys:
                flaps_on.setdefault(key, []).append(fault)
    # wire seconds per (payload size, link), each computed once
    wire_seconds: dict[int, dict[tuple[str, str], float]] = {}
    free_at: dict[tuple[str, str], float] = {}
    occupancies: list[LinkOccupancy] = []
    # dependency-ordered release, indexed by transfer: a transfer is
    # ready when the last of its dependencies finishes.  Transfer i's
    # dependents are ``dependents[first[i]:first[i + 1]]`` -- flat
    # lists, because a list per transfer is a container per transfer
    # for the collector to walk
    indegree = [len(t.deps) for t in transfers]
    ready_at = [start_time] * len(transfers)
    fan_out = [0] * (len(transfers) + 1)
    for t in transfers:
        for d in t.deps:
            fan_out[d + 1] += 1
    first = list(accumulate(fan_out))
    dependents = [0] * first[-1]
    slot = first[:]
    for t in transfers:
        for d in t.deps:
            dependents[slot[d]] = t.index
            slot[d] += 1
    # (ready, index) order is the FIFO order on a contended link; equal
    # times in ascending index order are a heap as they stand
    heap = [(start_time, i) for i, n in enumerate(indegree) if n == 0]
    done = 0
    makespan = start_time
    while heap:
        cursor, index = heappop(heap)
        t = transfers[index]
        src, dst = rank_map[t.src], rank_map[t.dst]
        nbytes, op = t.nbytes, t.op
        seconds_on = wire_seconds.get(nbytes)
        if seconds_on is None:
            seconds_on = wire_seconds[nbytes] = {}
        # route around links already permanently dead at ready time;
        # restart the walk if a link dies underneath the transfer
        while True:
            epoch = bisect_right(fail_times, cursor)
            dead = dead_sets[epoch]
            route = topology.route(src, dst, t.lo, dead)
            if route is None:
                raise _Partition(cursor, dead, occupancies, done)
            next_fail = fail_times[epoch]
            hop_cursor = cursor
            pending: list[LinkOccupancy] = []
            for link in route:
                key = link.key
                hop_start = free_at.get(key, 0.0)
                if hop_start < hop_cursor:
                    hop_start = hop_cursor
                if flaps_on:
                    for flap in flaps_on.get(key, ()):
                        if flap.fail_at_s <= hop_start < flap.recover_at_s:
                            hop_start = flap.recover_at_s
                if hop_start >= next_fail and key in dead_sets[
                    bisect_right(fail_times, hop_start)
                ]:
                    break
                try:
                    seconds = seconds_on[key]
                except KeyError:
                    seconds = seconds_on[key] = link.seconds(nbytes)
                hop_end = hop_start + seconds
                pending.append(
                    LinkOccupancy(
                        key, link.cls.name, index, op, hop_start,
                        hop_end, nbytes,
                    )
                )
                hop_cursor = hop_end
            else:
                break
            cursor = hop_start
        # commit the walk: occupy the links
        for occ in pending:
            free_at[occ.link] = occ.end_s
        occupancies += pending
        done += 1
        if hop_cursor > makespan:
            makespan = hop_cursor
        for dep_index in dependents[first[index]:first[index + 1]]:
            if hop_cursor > ready_at[dep_index]:
                ready_at[dep_index] = hop_cursor
            indegree[dep_index] -= 1
            if not indegree[dep_index]:
                heappush(heap, (ready_at[dep_index], dep_index))
    return FabricSimResult(
        topology_name=topology.name,
        pattern=schedule.pattern,
        scheme=schedule.scheme,
        world_size=schedule.world_size,
        makespan_seconds=makespan - start_time,
        occupancies=tuple(occupancies),
        completed_transfers=done,
        survivors=tuple(rank_map),
    )


def run_collective(
    topology: FabricTopology,
    pattern: str,
    total_elements: int,
    scheme: str = "32bit",
    bucket_size: int | None = None,
    faults: tuple[LinkFault, ...] = (),
    step: int = 0,
) -> FabricSimResult:
    """Simulate one allreduce, degrading gracefully on link loss.

    A permanent link failure that partitions the fabric evicts the
    unreachable ranks — emitting one
    :class:`~repro.runtime.resilience.TopologyChange` per lost rank,
    the same record the live engines' recovery loop produces — then
    re-compiles the collective over the survivors (with their host
    grouping) and resumes at the failure time, exactly mirroring the
    resilience loop's reshard-and-continue semantics.
    """
    _check_faults(topology, faults)  # before compiling anything
    live = tuple(range(topology.world_size))

    def _compile(ranks: tuple[int, ...]) -> CollectiveSchedule:
        physical = set(ranks)
        nodes = tuple(
            members
            for host in topology.hosts
            if (members := tuple(
                i
                for i, r in enumerate(ranks)
                if topology.host_of[r] == host and r in physical
            ))
        )
        return compile_collective(
            pattern,
            len(ranks),
            total_elements,
            scheme=scheme,
            bucket_size=bucket_size,
            nodes=nodes,
        )

    changes: list[TopologyChange] = []
    dropped = 0
    prior_occupancies: list[LinkOccupancy] = []
    start = 0.0
    schedule = _compile(live)
    while True:
        try:
            result = simulate_schedule(
                topology,
                schedule,
                faults=faults,
                start_time=start,
                rank_map=live,
            )
        except _Partition as cut:
            reachable = set(
                topology.reachable_ranks(avoid=cut.dead)
            )
            survivors = tuple(r for r in live if r in reachable)
            lost = tuple(r for r in live if r not in reachable)
            if not lost or not survivors:  # pragma: no cover - degenerate
                raise RuntimeError(
                    f"partition at {cut.at_s:.6f}s with no evictable "
                    "rank"
                ) from None
            remaining = list(survivors)
            for rank in lost:
                changes.append(
                    TopologyChange(
                        step=step,
                        rank=rank,
                        kind="link",
                        survivors=tuple(remaining),
                    )
                )
            dropped += len(schedule.transfers) - cut.done_count
            prior_occupancies.extend(cut.completed)
            live = survivors
            start = cut.at_s
            schedule = _compile(live)
            continue
        return FabricSimResult(
            topology_name=result.topology_name,
            pattern=pattern,
            scheme=scheme,
            world_size=topology.world_size,
            makespan_seconds=start + result.makespan_seconds,
            occupancies=tuple(prior_occupancies) + result.occupancies,
            completed_transfers=result.completed_transfers,
            dropped_transfers=dropped,
            topology_changes=tuple(changes),
            survivors=live,
        )
