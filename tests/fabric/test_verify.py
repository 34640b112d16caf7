"""``verify_allreduce`` is a counting argument; the multiset is its oracle.

The verifier keeps one bitmask of contributing ranks per (rank, chunk)
instead of a ``Counter``.  ``oracle.counter_verify_allreduce`` is the
interpreter it replaced, kept for these tests: on every schedule, good
or mutated, the two must accept together or refuse with the same words.
"""

import time
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    PATTERN_NAMES,
    compile_collective,
    leaf_spine,
    schedule_for,
    verify_allreduce,
)

from .oracle import counter_verify_allreduce


def verdict(verify, schedule) -> str:
    try:
        verify(schedule)
    except ValueError as exc:
        return str(exc)
    return "ok"


def mutate(schedule, kind: str, at: int):
    """One corrupted copy of ``schedule`` (``at`` picks the transfer)."""
    transfers = list(schedule.transfers)
    at %= len(transfers)
    t = transfers[at]
    if kind == "dropped leg":
        del transfers[at]
    elif kind == "duplicated reduce":
        transfers.append(
            t._replace(index=len(transfers), op="reduce", deps=())
        )
    elif kind == "lying nbytes":
        transfers[at] = t._replace(nbytes=t.nbytes + 1)
    elif kind == "swapped op":
        swapped = "copy" if t.op == "reduce" else "reduce"
        transfers[at] = t._replace(op=swapped)
    elif kind == "forward dep":
        transfers[at] = t._replace(deps=(t.index,))
    elif kind == "bad chunk range":
        transfers[at] = t._replace(hi=schedule.world_size + 1)
    elif kind == "unknown op":
        transfers[at] = t._replace(op="scatter")
    return replace(schedule, transfers=tuple(transfers))


MUTATIONS = (
    "dropped leg", "duplicated reduce", "lying nbytes", "swapped op",
    "forward dep", "bad chunk range", "unknown op",
)


class TestAgreesWithTheCounterOracle:
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    @pytest.mark.parametrize("world_size", range(1, 13))
    def test_good_schedules(self, pattern, world_size):
        schedule = compile_collective(pattern, world_size, 3_000, "qsgd4")
        assert verdict(verify_allreduce, schedule) == "ok"
        assert verdict(counter_verify_allreduce, schedule) == "ok"

    @settings(max_examples=200, deadline=None)
    @given(
        pattern=st.sampled_from(PATTERN_NAMES),
        world_size=st.integers(min_value=2, max_value=12),
        kind=st.sampled_from(MUTATIONS),
        at=st.integers(min_value=0, max_value=10_000),
    )
    def test_mutated_schedules(self, pattern, world_size, kind, at):
        bad = mutate(
            compile_collective(pattern, world_size, 3_000, "1bit"), kind, at
        )
        got = verdict(verify_allreduce, bad)
        assert got == verdict(counter_verify_allreduce, bad)
        # a dropped or op-swapped leg can leave a schedule that still
        # allreduces (a redundant broadcast); the rest never do
        if kind not in ("dropped leg", "swapped op"):
            assert got != "ok"

    @pytest.mark.parametrize(
        "kind, family",
        [
            ("dropped leg", "missing"),
            ("duplicated reduce", "more than once"),
            ("lying nbytes", "bytes"),
            ("forward dep", "depends forward"),
            ("bad chunk range", "bad chunk range"),
            ("unknown op", "unknown op"),
        ],
    )
    def test_message_families(self, kind, family):
        bad = mutate(compile_collective("tree", 4, 1_000), kind, 0)
        with pytest.raises(ValueError, match=family):
            verify_allreduce(bad)


class TestLargeWorlds:
    @pytest.mark.parametrize("pattern", PATTERN_NAMES)
    @pytest.mark.parametrize("world_size", [128, 256])
    def test_sweep_sized_schedules_verify(self, pattern, world_size):
        topology = leaf_spine(world_size, oversubscription=3.0)
        schedule = schedule_for(pattern, topology, 2_000_000, "qsgd4")
        start = time.perf_counter()
        verify_allreduce(schedule)
        # the Counter interpreter took 9 s on the K=256 ring
        assert time.perf_counter() - start < 3.0

    def test_a_dropped_hop_is_found_at_k128(self):
        good = compile_collective("ring", 128, 2_000_000, "qsgd4")
        bad = mutate(good, "dropped leg", len(good.transfers) - 1)
        with pytest.raises(ValueError, match="missing"):
            verify_allreduce(bad)
