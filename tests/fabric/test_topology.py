"""Fabric topology construction, routing, and failure reachability."""

import pytest

from repro.fabric import (
    LINK_CLASSES,
    TOPOLOGY_NAMES,
    LinkClass,
    fat_tree,
    leaf_spine,
    make_topology,
    single_node,
)


class TestLinkClass:
    def test_defaults_are_ordered_sanely(self):
        # intra-node links must be faster than the NIC, as in real boxes
        assert LINK_CLASSES["nvlink"].gbps > LINK_CLASSES["nic"].gbps
        assert LINK_CLASSES["pcie"].gbps > LINK_CLASSES["nic"].gbps

    def test_validation(self):
        with pytest.raises(ValueError):
            LinkClass("bad", 0.0, 1e-6)
        with pytest.raises(ValueError):
            LinkClass("bad", 10.0, -1.0)

    def test_link_seconds_includes_latency(self):
        topo = single_node(2)
        link = topo.links[("gpu0", "host0")]
        assert link.seconds(0) == pytest.approx(link.cls.latency_s)
        assert link.seconds(1000) > link.cls.latency_s


class TestSingleNode:
    def test_star_shape(self):
        topo = single_node(4)
        assert topo.world_size == 4
        assert not topo.multi_node
        assert topo.hosts == ("host0",)
        # 4 GPUs x 2 directions
        assert len(topo.links) == 8

    def test_route_goes_through_host(self):
        topo = single_node(4)
        route = topo.route(1, 3)
        assert [link.key for link in route] == [
            ("gpu1", "host0"),
            ("host0", "gpu3"),
        ]

    def test_self_route_is_empty(self):
        assert single_node(2).route(0, 0) == ()

    def test_rank_bounds_checked(self):
        with pytest.raises(ValueError):
            single_node(2).route(0, 5)


class TestLeafSpine:
    def test_placement(self):
        topo = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        assert topo.multi_node
        assert len(topo.hosts) == 8
        assert topo.host_of[0] == "host0"
        assert topo.host_of[31] == "host7"
        assert topo.ranks_on("host1") == (4, 5, 6, 7)
        assert topo.same_host(0, 3) and not topo.same_host(0, 4)

    def test_cross_leaf_route_crosses_a_spine(self):
        topo = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        route = topo.route(0, 31)
        nodes = [route[0].src] + [link.dst for link in route]
        assert nodes[0] == "gpu0" and nodes[-1] == "gpu31"
        assert any(n.startswith("spine") for n in nodes)

    def test_same_leaf_route_skips_spines(self):
        topo = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        route = topo.route(0, 4)  # host0 -> host1, both under leaf0
        nodes = [link.dst for link in route]
        assert not any(n.startswith("spine") for n in nodes)

    def test_ecmp_spreads_flows_deterministically(self):
        topo = leaf_spine(64, gpus_per_host=8, hosts_per_leaf=2,
                          spines=4)
        spines_hit = {
            next(
                link.dst
                for link in topo.route(0, 63, flow=flow)
                if link.dst.startswith("spine")
            )
            for flow in range(8)
        }
        assert len(spines_hit) == 4
        # and the choice is stable run to run
        assert topo.route(0, 63, flow=3) == topo.route(0, 63, flow=3)

    def test_oversubscription_divides_trunk_bandwidth(self):
        full = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2, oversubscription=1.0)
        thin = leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2, oversubscription=4.0)
        full_trunk = full.links[("leaf0", "spine0")].cls
        thin_trunk = thin.links[("leaf0", "spine0")].cls
        assert thin_trunk.gbps == pytest.approx(full_trunk.gbps / 4.0)

    def test_oversubscription_below_one_rejected(self):
        with pytest.raises(ValueError):
            leaf_spine(8, oversubscription=0.5)

    def test_fat_tree_is_full_bisection(self):
        topo = fat_tree(32, gpus_per_host=4, hosts_per_leaf=2, spines=2)
        assert topo.name == "fat-tree"
        assert topo.links[("leaf0", "spine0")].cls.gbps == (
            pytest.approx(LINK_CLASSES["trunk"].gbps)
        )


class TestFailureRouting:
    def test_route_avoids_dead_spine(self):
        topo = leaf_spine(64, gpus_per_host=8, hosts_per_leaf=2,
                          spines=2)
        baseline = topo.route(0, 63, flow=0)
        spine = next(
            link.dst for link in baseline if link.dst.startswith("spine")
        )
        avoid = frozenset({("leaf0", spine), (spine, "leaf0")})
        rerouted = topo.route(0, 63, flow=0, avoid=avoid)
        assert rerouted is not None
        new_spine = next(
            link.dst for link in rerouted if link.dst.startswith("spine")
        )
        assert new_spine != spine

    def test_route_none_when_host_uplink_cut(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        avoid = frozenset({("host0", "leaf0"), ("leaf0", "host0")})
        assert topo.route(0, 15, avoid=avoid) is None

    def test_reachable_ranks_anchor_at_rank_zero(self):
        topo = leaf_spine(16, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)
        assert topo.reachable_ranks() == tuple(range(16))
        avoid = frozenset({("host1", "leaf0")})
        assert topo.reachable_ranks(avoid) == (
            0, 1, 2, 3, 8, 9, 10, 11, 12, 13, 14, 15
        )


class TestRouteMemo:
    def topo(self):
        return leaf_spine(32, gpus_per_host=4, hosts_per_leaf=2,
                          spines=2)

    def test_memoised_routes_equal_fresh_ones(self):
        warm, cold = self.topo(), self.topo()
        dead = frozenset({("leaf0", "spine1"), ("spine1", "leaf0")})
        for avoid in (frozenset(), dead):
            for flow in range(5):
                for dst in (1, 5, 9, 31):
                    first = warm.route(0, dst, flow=flow, avoid=avoid)
                    again = warm.route(0, dst, flow=flow, avoid=avoid)
                    assert again is first
                    assert first == self.topo().route(
                        0, dst, flow=flow, avoid=avoid
                    )
        # one entry per (pair, avoid), whatever the flow
        assert len(warm._routes) == 8
        assert cold._routes == {}

    def test_flow_picks_among_the_live_spines(self):
        topo = self.topo()
        spines = {
            topo.route(0, 31, flow=flow)[2].dst for flow in range(4)
        }
        assert spines == {"spine0", "spine1"}
        dead = frozenset({("leaf0", "spine0")})
        assert {
            topo.route(0, 31, flow=flow, avoid=dead)[2].dst
            for flow in range(4)
        } == {"spine1"}

    def test_unroutable_pair_is_memoised_as_none(self):
        topo = self.topo()
        avoid = frozenset({("host0", "leaf0"), ("leaf0", "host0")})
        assert topo.route(0, 31, avoid=avoid) is None
        assert topo._routes[0, 31, avoid] == (3, ())
        assert topo.route(0, 31, flow=2, avoid=avoid) is None

    def test_bad_rank_raises_every_time(self):
        topo = self.topo()
        for _ in range(2):
            with pytest.raises(ValueError, match="outside world"):
                topo.route(0, 32)
        assert topo._routes == {}

    def test_link_key_is_stored(self):
        link = self.topo().links[("host0", "leaf0")]
        assert link.key == ("host0", "leaf0")
        assert "key" in vars(link)


class TestMakeTopology:
    def test_every_family_constructs(self):
        for name in TOPOLOGY_NAMES:
            topo = make_topology(name, 8)
            assert topo.world_size == 8

    def test_unknown_name_raises_value_error_listing_choices(self):
        with pytest.raises(ValueError) as err:
            make_topology("torus", 8)
        for name in TOPOLOGY_NAMES:
            assert name in str(err.value)
