"""Property-based tests for collective schedules and their simulation.

Randomized patterns, world sizes (powers of two and not), payloads,
and codecs; the allreduce invariants must hold for all of them.
"""

from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fabric import (
    PATTERN_NAMES,
    compile_collective,
    leaf_spine,
    simulate_schedule,
    verify_allreduce,
)

SCHEMES = st.sampled_from(["32bit", "qsgd4", "qsgd8", "1bit"])
PATTERNS = st.sampled_from(PATTERN_NAMES)
# the verifier is a counting argument (bitmasks), so worlds can be wide
WORLDS = st.integers(min_value=1, max_value=64)
NON_POWERS = st.sampled_from(
    [3, 5, 6, 7, 9, 10, 11, 12, 24, 33, 48, 63]
)
ELEMENTS = st.integers(min_value=1, max_value=5_000)


class TestScheduleProperties:
    @settings(max_examples=60, deadline=None)
    @given(
        pattern=PATTERNS,
        world_size=WORLDS,
        elements=ELEMENTS,
        scheme=SCHEMES,
    )
    def test_every_rank_reduced_exactly_once(
        self, pattern, world_size, elements, scheme
    ):
        schedule = compile_collective(
            pattern, world_size, elements, scheme
        )
        # the verifier replays the transfer multiset and raises unless
        # every rank ends holding each contribution exactly once
        verify_allreduce(schedule)

    @settings(max_examples=40, deadline=None)
    @given(pattern=PATTERNS, world_size=NON_POWERS, elements=ELEMENTS)
    def test_valid_for_non_power_of_two_worlds(
        self, pattern, world_size, elements
    ):
        schedule = compile_collective(pattern, world_size, elements)
        verify_allreduce(schedule)
        assert schedule.world_size == world_size

    @settings(max_examples=40, deadline=None)
    @given(
        pattern=PATTERNS,
        world_size=WORLDS,
        elements=ELEMENTS,
        scheme=SCHEMES,
    )
    def test_transfer_bytes_match_chunk_table(
        self, pattern, world_size, elements, scheme
    ):
        schedule = compile_collective(
            pattern, world_size, elements, scheme
        )
        for t in schedule.transfers:
            assert t.nbytes == sum(schedule.chunk_bytes[t.lo:t.hi])


class TestSimulationProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        pattern=PATTERNS,
        world_size=st.integers(min_value=2, max_value=16),
        elements=st.integers(min_value=1, max_value=50_000),
        scheme=SCHEMES,
    )
    def test_bytes_conserved_at_every_switch(
        self, pattern, world_size, elements, scheme
    ):
        # store-and-forward must neither drop nor duplicate bytes: for
        # each transfer, every hop carries the full encoded size, and
        # at each intermediate switch the inbound hop is matched by
        # exactly one outbound hop
        topo = leaf_spine(
            16, gpus_per_host=4, hosts_per_leaf=2, spines=2
        )
        schedule = compile_collective(
            pattern, world_size, elements, scheme
        )
        result = simulate_schedule(
            topo, schedule, rank_map=tuple(range(world_size))
        )
        hops_by_transfer = {}
        for occ in result.occupancies:
            hops_by_transfer.setdefault(occ.transfer, []).append(occ)
        assert set(hops_by_transfer) == {
            t.index for t in schedule.transfers
        }
        for t in schedule.transfers:
            hops = hops_by_transfer[t.index]
            assert all(h.nbytes == t.nbytes for h in hops)
            inbound = Counter(h.link[1] for h in hops)
            outbound = Counter(h.link[0] for h in hops)
            endpoints = {f"gpu{rank}" for rank in range(16)}
            for node in set(inbound) | set(outbound):
                if node in endpoints:
                    continue
                assert inbound[node] == outbound[node]

    @settings(max_examples=25, deadline=None)
    @given(
        pattern=PATTERNS,
        world_size=st.integers(min_value=1, max_value=16),
        elements=st.integers(min_value=1, max_value=50_000),
    )
    def test_simulation_completes_the_whole_schedule(
        self, pattern, world_size, elements
    ):
        topo = leaf_spine(
            16, gpus_per_host=4, hosts_per_leaf=2, spines=2
        )
        schedule = compile_collective(pattern, world_size, elements)
        result = simulate_schedule(
            topo, schedule, rank_map=tuple(range(world_size))
        )
        assert result.completed_transfers == len(schedule.transfers)
        assert result.dropped_transfers == 0
        assert result.makespan_seconds >= 0.0
