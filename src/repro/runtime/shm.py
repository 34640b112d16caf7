"""Shared-memory gradient arenas for the process engine.

One :class:`GradientArena` is a single ``multiprocessing.shared_memory``
block holding ``world_size + 1`` regions: one per-rank gradient slot
plus one slot for the aggregated means.  Every region lays its
parameters out in the engine's bucket-plan order, so the coordinator's
bucket walk reads each rank's contribution as one contiguous sweep.
Both sides of the exchange map the block as zero-copy ``numpy`` views —
a worker's backward writes land in its slot, the coordinator's
decode-accumulate reads them without a pickle round-trip, and the
aggregated mean travels back through the mean slot the same way.

Lifetime: the coordinator creates and eventually unlinks the block;
workers attach by name and only close their mapping.  Attaching
processes deregister the segment from their ``resource_tracker`` so the
tracker does not unlink (or warn about) a segment the coordinator still
owns — the documented workaround for the tracker's one-owner
assumption on Python <= 3.12.
"""

from __future__ import annotations

from multiprocessing import resource_tracker, shared_memory

import numpy as np

from .buckets import GradientBucket

__all__ = ["GradientArena", "arena_slots"]

#: region stride alignment, so no rank's slot shares a cache line
_ALIGN = 64


def arena_slots(
    buckets: list[GradientBucket],
    shapes: dict[str, tuple[int, ...]],
) -> list[tuple[str, tuple[int, ...]]]:
    """Per-parameter ``(name, shape)`` layout in bucket-plan order."""
    return [
        (name, tuple(shapes[name]))
        for bucket in buckets
        for name in bucket.names
    ]


class GradientArena:
    """A ``world_size + 1``-region float32 shared-memory block.

    Regions ``0..world_size-1`` are the per-rank gradient slots;
    region ``world_size`` holds the aggregated means.
    """

    def __init__(
        self,
        shm: shared_memory.SharedMemory,
        slots: list[tuple[str, tuple[int, ...]]],
        world_size: int,
        owner: bool,
    ):
        self._shm = shm
        self.slots = slots
        self.world_size = world_size
        self._owner = owner
        self._closed = False
        offsets: dict[str, int] = {}
        cursor = 0
        for name, shape in slots:
            offsets[name] = cursor
            cursor += int(np.prod(shape, dtype=np.int64)) * 4
        self._offsets = offsets
        self.region_nbytes = -(-cursor // _ALIGN) * _ALIGN

    @property
    def name(self) -> str:
        """OS-level segment name workers attach by."""
        return self._shm.name

    @property
    def total_nbytes(self) -> int:
        return self.region_nbytes * (self.world_size + 1)

    @classmethod
    def create(
        cls,
        slots: list[tuple[str, tuple[int, ...]]],
        world_size: int,
    ) -> "GradientArena":
        """Allocate a zero-filled arena (coordinator side)."""
        probe = cls(_NullShm(), slots, world_size, owner=False)
        shm = shared_memory.SharedMemory(
            create=True, size=max(probe.total_nbytes, 1)
        )
        arena = cls(shm, slots, world_size, owner=True)
        np.frombuffer(shm.buf, dtype=np.uint8)[:] = 0
        return arena

    @classmethod
    def attach(
        cls,
        name: str,
        slots: list[tuple[str, tuple[int, ...]]],
        world_size: int,
    ) -> "GradientArena":  # pragma: no cover - runs in worker processes
        """Map an existing arena by name (worker side).

        Registration with the (shared) resource tracker is suppressed
        for the attach: the tracker keys segments by name, so a
        borrower registering and later unregistering would erase the
        coordinator's sole entry and make the eventual unlink whine.
        """
        original_register = resource_tracker.register
        resource_tracker.register = lambda *args, **kwargs: None
        try:
            shm = shared_memory.SharedMemory(name=name)
        finally:
            resource_tracker.register = original_register
        return cls(shm, slots, world_size, owner=False)

    def _region_views(self, region: int) -> dict[str, np.ndarray]:
        base = region * self.region_nbytes
        views: dict[str, np.ndarray] = {}
        for name, shape in self.slots:
            count = int(np.prod(shape, dtype=np.int64))
            views[name] = np.frombuffer(
                self._shm.buf,
                dtype=np.float32,
                count=count,
                offset=base + self._offsets[name],
            ).reshape(shape)
        return views

    def rank_views(self, rank: int) -> dict[str, np.ndarray]:
        """Zero-copy per-parameter views of one rank's gradient slot."""
        if not 0 <= rank < self.world_size:
            raise ValueError(
                f"rank must be in [0, {self.world_size}), got {rank}"
            )
        return self._region_views(rank)

    def mean_views(self) -> dict[str, np.ndarray]:
        """Zero-copy per-parameter views of the aggregated-mean slot."""
        return self._region_views(self.world_size)

    def close(self) -> None:
        """Drop this process's mapping (owner also unlinks the block)."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        finally:
            # a view that outlived the arena makes close() raise; the
            # segment must still not outlive its owner
            if self._owner:
                try:
                    self._shm.unlink()
                except FileNotFoundError:  # pragma: no cover - already gone
                    pass

    def __del__(self) -> None:  # pragma: no cover - GC best effort
        try:
            self.close()
        except Exception:
            pass


class _NullShm:
    """Size-probe stand-in so layout math can run before allocation."""

    buf = b""
    name = ""

    def close(self) -> None:
        pass
