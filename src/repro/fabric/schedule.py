"""Collective schedules: allreduce patterns compiled to transfer DAGs.

Each pattern compiles one gradient allreduce over ``K`` ranks into a
DAG of point-to-point :class:`Transfer`\\ s whose byte counts come from
the *actual encoded* wire format of the configured quantization scheme
(via ``Quantizer.encoded_nbytes``, the same byte-exact accounting the
live exchanges and the single-machine simulator use).  The gradient is
partitioned into ``K`` contiguous chunks (:func:`partition_ranges`,
the MPI range-partitioning helper); a transfer carries a contiguous
range of chunks so every pattern shares one chunk vocabulary:

* **ring** — bandwidth-optimal reduce-scatter + allgather: chunk ``c``
  is reduced along the ring into rank ``c`` (K-1 hops) then gathered
  around the ring (K-1 hops); ``2 (K-1) / K`` of the payload crosses
  each ring link.
* **tree** — binomial reduce to rank 0 then mirrored broadcast:
  ``2 ceil(log2 K)`` rounds of whole-payload transfers; latency-
  optimal, bandwidth-hungry.
* **butterfly** — recursive halving reduce-scatter + recursive
  doubling allgather (Rabenseifner); non-power-of-two worlds fold the
  surplus ranks into the nearest power of two with a pre/post phase.
* **hierarchical** — intra-node ring allreduce per host, inter-node
  binomial tree across the node leaders, intra-node broadcast: the
  multi-node workhorse (NCCL ring inside the box, MPI tree between
  boxes) that keeps the scarce inter-node links to ``2 log2(nodes)``
  whole-payload crossings.

:func:`verify_allreduce` interprets a schedule's data flow and checks
the allreduce contract — every rank ends holding every chunk with each
rank's contribution reduced *exactly once* — which the hypothesis
property suite runs across patterns, world sizes (powers of two and
not) and schemes.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple

from ..comm.topology import partition_ranges
from ..quantization import Quantizer, make_quantizer
from .topology import FabricTopology

__all__ = [
    "Transfer",
    "CollectiveSchedule",
    "PATTERN_NAMES",
    "compile_collective",
    "encoded_chunk_bytes",
    "verify_allreduce",
]

#: collective patterns accepted by :func:`compile_collective`
PATTERN_NAMES = ("ring", "tree", "butterfly", "hierarchical")


class Transfer(NamedTuple):
    """One point-to-point message of a collective schedule.

    A tuple record: a K=1024 ring compiles two million of them.

    Attributes:
        index: position in the schedule (deps always point backwards).
        src / dst: sending / receiving rank.
        lo / hi: half-open range of payload chunks carried.
        nbytes: encoded bytes on the wire (sum of the chunk sizes).
        op: ``"reduce"`` (dst accumulates src's partial into its own)
            or ``"copy"`` (dst replaces its chunks with src's).
        deps: indices of transfers that must complete before this one
            starts (the sender's state dependencies).
        round: logical round of the pattern, for display/traces.
    """

    index: int
    src: int
    dst: int
    lo: int
    hi: int
    nbytes: int
    op: str
    deps: tuple[int, ...]
    round: int


@dataclass(frozen=True)
class CollectiveSchedule:
    """A compiled allreduce: the transfer DAG plus its chunk sizes."""

    pattern: str
    world_size: int
    total_elements: int
    scheme: str
    chunk_bytes: tuple[int, ...]
    transfers: tuple[Transfer, ...]

    @property
    def total_wire_bytes(self) -> int:
        """Bytes crossing rank boundaries over the whole collective."""
        return sum(t.nbytes for t in self.transfers)

    @property
    def rounds(self) -> int:
        return 1 + max((t.round for t in self.transfers), default=-1)

    @property
    def payload_bytes(self) -> int:
        """Encoded size of one rank's full gradient payload."""
        return sum(self.chunk_bytes)


def encoded_chunk_bytes(
    total_elements: int, n_chunks: int, codec: Quantizer
) -> tuple[int, ...]:
    """Encoded wire size of each of ``n_chunks`` contiguous chunks.

    A chunk is a flat slice of the gradient, encoded as one column
    vector — column-wise codecs (stock 1bitSGD) then pay two scalars
    per chunk, not two per element.
    """
    return tuple(
        codec.encoded_nbytes((hi - lo, 1)) if hi > lo else 0
        for lo, hi in partition_ranges(total_elements, n_chunks)
    )


class _Builder:
    """Accumulates transfers, tracking each rank's receive history."""

    def __init__(self, chunk_bytes: tuple[int, ...]):
        #: bytes of chunks [0, c): a chunk range costs one subtraction
        self.bytes_before = list(accumulate(chunk_bytes, initial=0))
        self.transfers: list[Transfer] = []
        self.received: list[list[int]] = [[] for _ in chunk_bytes]

    def add(
        self,
        src: int,
        dst: int,
        lo: int,
        hi: int,
        op: str,
        round_: int,
        deps: tuple[int, ...] | None = None,
    ) -> int:
        """Append a transfer; default deps = all of src's receives."""
        if deps is None:
            deps = tuple(self.received[src])
        index = len(self.transfers)
        nbytes = self.bytes_before[hi] - self.bytes_before[lo]
        self.transfers.append(
            Transfer(index, src, dst, lo, hi, nbytes, op, deps, round_)
        )
        self.received[dst].append(index)
        return index


def _ring(
    builder: _Builder,
    members: tuple[int, ...],
    groups: list[tuple[int, int]],
    round_base: int = 0,
) -> int:
    """Ring allreduce over ``members``; group ``j`` lands on member ``j``.

    Returns the number of logical rounds consumed.
    """
    m = len(members)
    if m < 2:
        return 0
    for j, (lo, hi) in enumerate(groups):
        if hi <= lo:
            continue
        # reduce-scatter: (j+1) -> (j+2) -> ... -> j, accumulating.
        # The first hop ships the sender's own initial contribution,
        # so it has no dependencies — chunks pipeline freely.
        prev = None
        for step in range(m - 1):
            src = members[(j + 1 + step) % m]
            dst = members[(j + 2 + step) % m]
            deps: tuple[int, ...] = () if prev is None else (prev,)
            prev = builder.add(
                src, dst, lo, hi, "reduce", round_base + step, deps
            )
        # allgather: j -> (j+1) -> ... -> (j-1), copying the result
        for step in range(m - 1):
            src = members[(j + step) % m]
            dst = members[(j + 1 + step) % m]
            prev = builder.add(
                src, dst, lo, hi, "copy", round_base + m - 1 + step,
                (prev,) if prev is not None else (),
            )
    return 2 * (m - 1)


def _tree(
    builder: _Builder,
    members: tuple[int, ...],
    lo: int,
    hi: int,
    round_base: int = 0,
) -> int:
    """Binomial-tree reduce to ``members[0]`` + mirrored broadcast."""
    m = len(members)
    if m < 2 or hi <= lo:
        return 0
    rounds = (m - 1).bit_length()
    round_ = round_base
    for r in range(rounds):
        stride = 1 << r
        for i in range(stride, m, 2 * stride):
            builder.add(members[i], members[i - stride], lo, hi,
                        "reduce", round_)
        round_ += 1
    for r in reversed(range(rounds)):
        stride = 1 << r
        for i in range(stride, m, 2 * stride):
            builder.add(members[i - stride], members[i], lo, hi,
                        "copy", round_)
        round_ += 1
    return 2 * rounds


def _butterfly(builder: _Builder, world_size: int) -> None:
    """Recursive halving/doubling; non-powers of two fold surplus ranks."""
    k = world_size
    p2 = 1 << (k.bit_length() - 1)
    if p2 == k and k > 1:
        survivors = list(range(k))
        extra = 0
    else:
        extra = k - p2
        survivors = list(range(p2))
    round_ = 0
    if extra:
        # pre-phase: surplus ranks fold their whole payload into the
        # matching survivor
        for j in range(extra):
            builder.add(p2 + j, j, 0, k, "reduce", round_)
        round_ += 1

    # recursive halving reduce-scatter over (group, chunk range)
    def halve(group: list[int], lo: int, hi: int, round_: int) -> int:
        if len(group) < 2:
            return round_
        half = len(group) // 2
        low, high = group[:half], group[half:]
        mid = lo + (hi - lo + 1) // 2
        for a, b in zip(low, high):
            builder.add(a, b, mid, hi, "reduce", round_)
            builder.add(b, a, lo, mid, "reduce", round_)
        r1 = halve(low, lo, mid, round_ + 1)
        r2 = halve(high, mid, hi, round_ + 1)
        return max(r1, r2)

    def double(group: list[int], lo: int, hi: int, round_: int) -> int:
        if len(group) < 2:
            return round_
        half = len(group) // 2
        low, high = group[:half], group[half:]
        mid = lo + (hi - lo + 1) // 2
        round_ = double(low, lo, mid, round_)
        round_ = max(round_, double(high, mid, hi, round_))
        for a, b in zip(low, high):
            builder.add(a, b, lo, mid, "copy", round_)
            builder.add(b, a, mid, hi, "copy", round_)
        return round_ + 1

    round_ = halve(survivors, 0, k, round_)
    round_ = double(survivors, 0, k, round_)
    if extra:
        # post-phase: survivors return the finished payload
        for j in range(extra):
            builder.add(j, p2 + j, 0, k, "copy", round_)


def _hierarchical(
    builder: _Builder,
    world_size: int,
    nodes: tuple[tuple[int, ...], ...],
) -> None:
    """Intra-node ring + inter-node tree + intra-node broadcast."""
    round_ = 0
    for members in nodes:
        if len(members) > 1:
            groups = partition_ranges(world_size, len(members))
            rounds = _ring(builder, members, groups, round_)
            round_ = max(round_, rounds)
    leaders = tuple(members[0] for members in nodes)
    round_ += _tree(builder, leaders, 0, world_size, round_)
    for members in nodes:
        for follower in members[1:]:
            builder.add(members[0], follower, 0, world_size, "copy",
                        round_)


def compile_collective(
    pattern: str,
    world_size: int,
    total_elements: int,
    scheme: str = "32bit",
    bucket_size: int | None = None,
    nodes: tuple[tuple[int, ...], ...] | None = None,
) -> CollectiveSchedule:
    """Compile one allreduce into a transfer DAG.

    Args:
        pattern: one of :data:`PATTERN_NAMES`.
        world_size: number of participating ranks.
        total_elements: gradient elements being allreduced.
        scheme: quantization scheme whose encoded wire format sizes
            the transfers (byte-exact, headers included).
        bucket_size: scheme bucket-size override.
        nodes: rank grouping per host, required by ``hierarchical``
            (build it from a topology via :func:`schedule_for`).
    """
    if pattern not in PATTERN_NAMES:
        raise ValueError(
            f"unknown pattern {pattern!r}; expected one of {PATTERN_NAMES}"
        )
    if world_size < 1:
        raise ValueError(f"world_size must be >= 1, got {world_size}")
    if total_elements < 1:
        raise ValueError(
            f"total_elements must be >= 1, got {total_elements}"
        )
    codec = make_quantizer(scheme, bucket_size=bucket_size)
    chunk_bytes = encoded_chunk_bytes(total_elements, world_size, codec)
    builder = _Builder(chunk_bytes)
    if world_size > 1:
        if pattern == "ring":
            groups = [(c, c + 1) for c in range(world_size)]
            _ring(builder, tuple(range(world_size)), groups)
        elif pattern == "tree":
            _tree(builder, tuple(range(world_size)), 0, world_size)
        elif pattern == "butterfly":
            _butterfly(builder, world_size)
        else:  # hierarchical
            if nodes is None:
                nodes = (tuple(range(world_size)),)
            _hierarchical(builder, world_size, nodes)
    return CollectiveSchedule(
        pattern=pattern,
        world_size=world_size,
        total_elements=total_elements,
        scheme=scheme,
        chunk_bytes=chunk_bytes,
        transfers=tuple(builder.transfers),
    )


def schedule_for(
    pattern: str,
    topology: FabricTopology,
    total_elements: int,
    scheme: str = "32bit",
    bucket_size: int | None = None,
) -> CollectiveSchedule:
    """Compile a pattern against a topology's rank placement."""
    nodes = tuple(
        topology.ranks_on(host) for host in topology.hosts
    )
    return compile_collective(
        pattern,
        topology.world_size,
        total_elements,
        scheme=scheme,
        bucket_size=bucket_size,
        nodes=nodes,
    )


def verify_allreduce(schedule: CollectiveSchedule) -> None:
    """Check the allreduce contract by interpreting the data flow.

    Each rank starts holding its own contribution for every chunk.
    Transfers are interpreted in index order (the builders emit a
    topological order; deps always point backwards, which is also
    asserted).  At the end, every rank must hold, for every chunk,
    every rank's contribution *exactly once* — the defining property
    of a correct allreduce.  Raises ``ValueError`` with the first
    violation found.

    It is a counting argument, not a multiset: per (rank, chunk) one
    int whose bit ``r`` says rank ``r``'s contribution is held, and
    one whose bit ``r`` says it was folded in more than once — a
    reduce doubles exactly the contributions both sides already hold.
    """
    k = schedule.world_size
    held = [[1 << rank] * k for rank in range(k)]
    twice = [[0] * k for _ in range(k)]
    bytes_before = list(accumulate(schedule.chunk_bytes, initial=0))
    for index, src, dst, lo, hi, nbytes, op, deps, _ in schedule.transfers:
        if deps and max(deps) >= index:
            raise ValueError(
                f"transfer {index} depends forward on {deps}"
            )
        if not (0 <= lo < hi <= k):
            raise ValueError(
                f"transfer {index} carries bad chunk range "
                f"[{lo}, {hi}) for {k} chunks"
            )
        expected = bytes_before[hi] - bytes_before[lo]
        if nbytes != expected:
            raise ValueError(
                f"transfer {index} claims {nbytes} bytes but its "
                f"chunks encode to {expected}"
            )
        src_held, src_twice = held[src], twice[src]
        dst_held, dst_twice = held[dst], twice[dst]
        if op == "reduce":
            for chunk in range(lo, hi):
                dst_twice[chunk] |= src_twice[chunk] | (
                    dst_held[chunk] & src_held[chunk]
                )
                dst_held[chunk] |= src_held[chunk]
        elif op == "copy":
            dst_held[lo:hi] = src_held[lo:hi]
            dst_twice[lo:hi] = src_twice[lo:hi]
        else:
            raise ValueError(f"transfer {index} has unknown op {op!r}")
    everyone = (1 << k) - 1
    for rank in range(k):
        for chunk in range(k):
            if held[rank][chunk] != everyone or twice[rank][chunk]:
                over = [
                    r for r in range(k) if twice[rank][chunk] >> r & 1
                ]
                missing = [
                    r for r in range(k) if not held[rank][chunk] >> r & 1
                ]
                raise ValueError(
                    f"rank {rank} chunk {chunk}: contributions "
                    f"reduced more than once from {over}, missing "
                    f"{missing}"
                )
