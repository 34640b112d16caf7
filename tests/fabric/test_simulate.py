"""Event-driven fabric simulation: queueing, faults, degradation."""

import pytest

from repro.fabric import (
    LinkFault,
    compile_collective,
    fabric_chrome_trace,
    leaf_spine,
    run_collective,
    select_collective,
    simulate_schedule,
    single_node,
)
from repro.runtime.resilience import TopologyChange


class TestBasicSimulation:
    def test_every_transfer_completes(self):
        topo = single_node(4)
        result = run_collective(topo, "ring", 50_000, "qsgd4")
        schedule = compile_collective(
            "ring", 4, 50_000, "qsgd4",
            nodes=(tuple(range(4)),),
        )
        assert result.completed_transfers == len(schedule.transfers)
        assert result.makespan_seconds > 0
        assert result.dropped_transfers == 0
        assert result.topology_changes == ()

    def test_deterministic(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        a = run_collective(topo, "butterfly", 40_000, "qsgd8")
        b = run_collective(topo, "butterfly", 40_000, "qsgd8")
        assert a.occupancies == b.occupancies
        assert a.makespan_seconds == b.makespan_seconds

    def test_store_and_forward_occupies_every_hop(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        result = run_collective(topo, "tree", 10_000)
        # cross-leaf transfers occupy gpu/host/leaf/spine links
        kinds = {occ.link_class for occ in result.occupancies}
        assert "nvlink" in kinds and "nic" in kinds
        assert any(k.startswith("trunk") for k in kinds)

    def test_fifo_contention_serializes_shared_links(self):
        topo = single_node(4)
        result = run_collective(topo, "ring", 1_000_000, "32bit")
        by_link = {}
        for occ in result.occupancies:
            by_link.setdefault(occ.link, []).append(occ)
        # the ring pushes many transfers through each star link...
        assert max(len(occs) for occs in by_link.values()) > 1
        # ...and a FIFO link never carries two at once
        for occs in by_link.values():
            occs.sort(key=lambda o: o.start_s)
            for first, second in zip(occs, occs[1:]):
                assert second.start_s >= first.end_s - 1e-12

    def test_quantization_speeds_up_the_collective(self):
        topo = leaf_spine(64, oversubscription=4.0)
        full = run_collective(topo, "ring", 5_000_000, "32bit")
        q4 = run_collective(topo, "ring", 5_000_000, "qsgd4")
        assert q4.makespan_seconds < full.makespan_seconds / 2

    def test_oversubscription_slows_cross_leaf_traffic(self):
        fast = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2, oversubscription=1.0)
        slow = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2, oversubscription=8.0)
        a = run_collective(fast, "tree", 2_000_000)
        b = run_collective(slow, "tree", 2_000_000)
        assert b.makespan_seconds > a.makespan_seconds

    def test_utilization_bounded_by_one(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        result = run_collective(topo, "ring", 100_000, "qsgd2")
        for utilization in result.link_utilization().values():
            assert 0.0 <= utilization <= 1.0 + 1e-9


class TestFaults:
    def topo(self):
        return leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)

    def test_flap_delays_completion(self):
        topo = self.topo()
        base = run_collective(topo, "tree", 1_000_000, "qsgd4")
        # leaf0<->leaf1 rides spine1 under the ECMP hash; flap it
        flap = LinkFault("leaf0", "spine1", fail_at_s=0.0,
                         recover_at_s=0.01)
        flapped = run_collective(topo, "tree", 1_000_000, "qsgd4",
                                 faults=(flap,))
        assert flapped.makespan_seconds >= 0.01
        assert flapped.makespan_seconds > base.makespan_seconds
        assert flapped.topology_changes == ()

    def test_permanent_spine_failure_reroutes(self):
        topo = self.topo()
        fault = LinkFault("leaf0", "spine1", fail_at_s=0.0)
        result = run_collective(topo, "tree", 1_000_000, "qsgd4",
                                faults=(fault,))
        # no partition: the other spine carries the traffic
        assert result.topology_changes == ()
        assert result.survivors == tuple(range(16))
        dead = {("leaf0", "spine1"), ("spine1", "leaf0")}
        assert all(
            occ.link not in dead for occ in result.occupancies
        )

    def test_partition_emits_topology_changes(self):
        topo = self.topo()
        fault = LinkFault("host2", "leaf1", fail_at_s=1e-4)
        result = run_collective(topo, "ring", 1_000_000, "qsgd4",
                                faults=(fault,), step=11)
        lost = {8, 9, 10, 11}
        assert {c.rank for c in result.topology_changes} == lost
        assert result.survivors == (0, 1, 2, 3, 4, 5, 6, 7, 12, 13,
                                    14, 15)
        for change in result.topology_changes:
            assert isinstance(change, TopologyChange)
            assert change.kind == "link"
            assert change.step == 11
            assert change.survivors == result.survivors
            # the record is the resilience loop's own type: it must
            # serialize through its History round-trip format
            assert TopologyChange.from_dict(change.to_dict()) == change
        assert result.dropped_transfers > 0
        # the collective still completes over the survivors
        survivor_schedule = compile_collective(
            "ring", 12, 1_000_000, "qsgd4"
        )
        assert result.completed_transfers == len(
            survivor_schedule.transfers
        )

    def test_partitioned_collective_consumed_by_history(self):
        from repro.core.metrics import History

        topo = self.topo()
        fault = LinkFault("host2", "leaf1", fail_at_s=1e-4)
        result = run_collective(topo, "ring", 1_000_000, "qsgd4",
                                faults=(fault,), step=3)
        history = History(label="fabric/qsgd4")
        history.topology_changes.extend(result.topology_changes)
        record = history.to_dict()
        restored = History.from_dict(record)
        assert restored.topology_changes == list(result.topology_changes)

    def test_fault_after_completion_changes_nothing(self):
        topo = self.topo()
        base = run_collective(topo, "tree", 10_000, "qsgd4")
        late = LinkFault("host0", "leaf0",
                         fail_at_s=base.makespan_seconds + 1.0)
        result = run_collective(topo, "tree", 10_000, "qsgd4",
                                faults=(late,))
        assert result.topology_changes == ()
        assert result.makespan_seconds == base.makespan_seconds


class TestFaultValidation:
    """A fault that cannot happen is refused where it enters."""

    def topo(self):
        return leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)

    def test_negative_fail_time_refused(self):
        with pytest.raises(ValueError, match=">= 0"):
            LinkFault("host0", "leaf0", fail_at_s=-1.0)

    @pytest.mark.parametrize("recover_at_s", [1.0, 2.0])
    def test_recovery_not_after_failure_refused(self, recover_at_s):
        with pytest.raises(ValueError, match="not after it fails"):
            LinkFault("host0", "leaf0", fail_at_s=2.0,
                      recover_at_s=recover_at_s)

    def test_unknown_link_refused_naming_neighbours(self):
        fault = LinkFault("host0", "leaf9")
        with pytest.raises(ValueError) as err:
            run_collective(self.topo(), "ring", 10_000, faults=(fault,))
        message = str(err.value)
        assert "host0:leaf9" in message
        assert "host0 connects to leaf0, gpu0, gpu1, gpu2, gpu3" in message
        schedule = compile_collective("ring", 16, 10_000)
        with pytest.raises(ValueError, match="host0:leaf9"):
            simulate_schedule(self.topo(), schedule, faults=(fault,))

    def test_unknown_node_refused(self):
        fault = LinkFault("nosuch", "leaf9")
        with pytest.raises(ValueError, match="no node 'nosuch'"):
            run_collective(self.topo(), "ring", 10_000, faults=(fault,))

    def test_either_direction_names_the_cable(self):
        up = run_collective(self.topo(), "ring", 10_000,
                            faults=(LinkFault("host1", "leaf0"),))
        down = run_collective(self.topo(), "ring", 10_000,
                              faults=(LinkFault("leaf0", "host1"),))
        assert up.occupancies == down.occupancies
        assert up.survivors == down.survivors != tuple(range(16))


class TestEventLoopState:
    def test_records_are_tuples_with_named_fields(self):
        result = run_collective(single_node(4), "ring", 10_000)
        occ = result.occupancies[0]
        assert isinstance(occ, tuple)
        assert occ._fields == (
            "link", "link_class", "transfer", "op", "start_s", "end_s",
            "nbytes",
        )
        assert occ.busy_seconds == occ.end_s - occ.start_s

    def test_re_rated_copy_sees_its_own_wire_times(self):
        # crossval re-rates a topology with dataclasses.replace: the
        # copy must not inherit routes that hold the old links
        from dataclasses import replace

        from repro.fabric import Link, LinkClass

        base = single_node(4)
        slow = run_collective(base, "ring", 100_000)
        fast_cls = LinkClass("fast", 1280.0, 2.0e-6)
        fast = replace(
            base,
            links={
                key: Link(link.src, link.dst, fast_cls)
                for key, link in base.links.items()
            },
        )
        quick = run_collective(fast, "ring", 100_000)
        assert {o.link_class for o in quick.occupancies} == {"fast"}
        assert quick.makespan_seconds < slow.makespan_seconds
        # and the original still answers with its own links
        assert run_collective(base, "ring", 100_000) == slow

    def test_survivor_rerun_starts_from_idle_links(self):
        # the re-run after a partition resumes at the failure time on
        # fresh links: it is exactly the survivor schedule simulated
        # alone from that instant
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        fault = LinkFault("host2", "leaf1", fail_at_s=1e-4)
        result = run_collective(topo, "ring", 1_000_000, "qsgd4",
                                faults=(fault,))
        survivor = compile_collective("ring", 12, 1_000_000, "qsgd4")
        hops = sum(
            len(topo.route(result.survivors[t.src],
                           result.survivors[t.dst], flow=t.lo))
            for t in survivor.transfers
        )
        rerun = result.occupancies[-hops:]
        resumed_at = rerun[0].start_s
        assert resumed_at >= 1e-4
        alone = simulate_schedule(
            topo, survivor, faults=(fault,), start_time=resumed_at,
            rank_map=result.survivors,
        )
        assert alone.occupancies == rerun
        assert result.makespan_seconds == (
            resumed_at + alone.makespan_seconds
        )


class TestSelector:
    def test_small_payload_prefers_low_latency_pattern(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        choice = select_collective(topo, 1_000, "qsgd4")
        assert choice.pattern in ("tree", "hierarchical")

    def test_large_payload_prefers_ring(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        choice = select_collective(topo, 1_000_000, "qsgd4")
        assert choice.pattern == "ring"
        assert choice.makespan_seconds == min(choice.candidates.values())
        assert choice.speedup_over("tree") >= 1.0

    def test_single_node_skips_hierarchical(self):
        choice = select_collective(single_node(4), 10_000)
        assert "hierarchical" not in choice.candidates


class TestTraceExport:
    def test_trace_document_shape(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        fault = LinkFault("host2", "leaf1", fail_at_s=1e-4)
        result = run_collective(topo, "tree", 500_000, "qsgd4",
                                faults=(fault,))
        doc = fabric_chrome_trace(result)
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(result.occupancies)
        # one named track per distinct link
        links = {occ.link for occ in result.occupancies}
        assert len(meta) == len(links)
        names = {m["args"]["name"] for m in meta}
        assert any("[nic]" in n for n in names)
        for event in slices:
            assert event["dur"] >= 0
            assert event["args"]["nbytes"] > 0
        other = doc["otherData"]
        assert other["pattern"] == "tree"
        assert other["topology_changes"] == [
            c.to_dict() for c in result.topology_changes
        ]
        assert other["link_busy_seconds"]

    def test_write_fabric_trace_round_trips(self, tmp_path):
        import json

        from repro.fabric import write_fabric_trace

        topo = single_node(4)
        result = run_collective(topo, "ring", 10_000)
        path = tmp_path / "fabric.json"
        write_fabric_trace(result, str(path))
        loaded = json.loads(path.read_text())
        assert loaded["otherData"]["pattern"] == "ring"
        assert len(loaded["traceEvents"]) > 0


class TestRescheduleMapping:
    def test_simulate_schedule_with_rank_map(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        schedule = compile_collective("tree", 4, 10_000)
        # run the 4-rank schedule on physical ranks 12..15
        result = simulate_schedule(
            topo, schedule, rank_map=(12, 13, 14, 15)
        )
        used = {occ.link[0] for occ in result.occupancies} | {
            occ.link[1] for occ in result.occupancies
        }
        gpus = {n for n in used if n.startswith("gpu")}
        assert gpus == {"gpu12", "gpu13", "gpu14", "gpu15"}
