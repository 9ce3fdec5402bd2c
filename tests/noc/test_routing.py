"""XY routing and XY-tree multicast partitioning."""

import pytest
from hypothesis import given, strategies as st

from repro import Simulator, proposed_network
from repro.noc.ports import EAST, LOCAL, NORTH, SOUTH, WEST
from repro.noc.routing import (
    coords,
    next_router,
    node_at,
    route_xy_tree,
    tree_hop_counts,
    xy_distance,
)
from repro.traffic import BernoulliTraffic
from repro.traffic.mix import MIXED_TRAFFIC


class TestCoords:
    def test_row_major_ids(self):
        assert coords(0, 4) == (0, 0)
        assert coords(5, 4) == (1, 1)
        assert coords(15, 4) == (3, 3)

    def test_node_at_roundtrip(self):
        for n in range(16):
            x, y = coords(n, 4)
            assert node_at(x, y, 4) == n

    def test_node_at_rejects_outside(self):
        with pytest.raises(ValueError):
            node_at(4, 0, 4)
        with pytest.raises(ValueError):
            node_at(0, -1, 4)

    def test_distance(self):
        assert xy_distance(0, 15, 4) == 6
        assert xy_distance(5, 5, 4) == 0
        assert xy_distance(0, 3, 4) == 3


class TestUnicastRouting:
    def test_local_delivery(self):
        assert route_xy_tree(5, frozenset([5]), 4) == {LOCAL: frozenset([5])}

    def test_x_first(self):
        # node 0 -> node 15 must head EAST first
        assert set(route_xy_tree(0, frozenset([15]), 4)) == {EAST}

    def test_y_after_x_aligned(self):
        # node 3 (3,0) -> node 15 (3,3): same column, go NORTH
        assert set(route_xy_tree(3, frozenset([15]), 4)) == {NORTH}

    def test_west_and_south(self):
        # node 15 -> node 0: WEST first
        assert set(route_xy_tree(15, frozenset([0]), 4)) == {WEST}
        assert set(route_xy_tree(12, frozenset([0]), 4)) == {SOUTH}

    def test_empty_destinations_rejected(self):
        with pytest.raises(ValueError):
            route_xy_tree(0, frozenset(), 4)

    @given(st.integers(0, 15), st.integers(0, 15))
    def test_unicast_progress(self, src, dst):
        """Following the route always reaches the destination in
        exactly the Manhattan distance."""
        here = src
        hops = 0
        while True:
            route = route_xy_tree(here, frozenset([dst]), 4)
            assert len(route) == 1
            port, subset = next(iter(route.items()))
            assert subset == frozenset([dst])
            if port == LOCAL:
                break
            here = next_router(here, port, 4)
            hops += 1
            assert hops <= 6
        assert hops == xy_distance(src, dst, 4)


class TestMulticastTree:
    def test_partition_is_disjoint_and_complete(self):
        dests = frozenset(range(16))
        route = route_xy_tree(5, dests, 4)
        union = frozenset().union(*route.values())
        assert union == dests
        total = sum(len(s) for s in route.values())
        assert total == len(dests)

    def test_broadcast_from_corner_uses_three_ports(self):
        route = route_xy_tree(0, frozenset(range(16)), 4)
        assert set(route) == {LOCAL, NORTH, EAST}

    def test_broadcast_from_center(self):
        route = route_xy_tree(5, frozenset(range(16)), 4)
        assert set(route) == {LOCAL, NORTH, EAST, SOUTH, WEST}

    def test_x_dimension_keeps_off_column_dests(self):
        # from node 5 (1,1): node 11 (3,2) must go EAST, not NORTH
        route = route_xy_tree(5, frozenset([11]), 4)
        assert set(route) == {EAST}

    @given(
        st.integers(0, 15),
        st.sets(st.integers(0, 15), min_size=1, max_size=16),
    )
    def test_partition_properties(self, router, dests):
        route = route_xy_tree(router, frozenset(dests), 4)
        union = set()
        for port, subset in route.items():
            assert subset  # no empty branches
            assert not (union & subset)  # disjoint
            union |= subset
        assert union == dests

    @given(
        st.integers(0, 15),
        st.sets(st.integers(0, 15), min_size=1, max_size=16),
    )
    def test_tree_delivers_everyone_without_u_turns(self, src, dests):
        """Walk the whole tree; every destination must eject exactly
        once and no branch may revisit a router."""
        delivered = []
        frontier = [(src, frozenset(dests), None)]
        steps = 0
        while frontier:
            router, subset, came_from = frontier.pop()
            steps += 1
            assert steps < 200
            route = route_xy_tree(router, subset, 4)
            for port, branch in route.items():
                if port == LOCAL:
                    delivered.extend(branch)
                else:
                    assert port != came_from, "U-turn in the XY tree"
                    from repro.noc.ports import OPPOSITE

                    frontier.append(
                        (next_router(router, port, 4), branch, OPPOSITE[port])
                    )
        assert sorted(delivered) == sorted(dests)

    def test_broadcast_tree_link_count(self):
        """A full broadcast spanning tree uses exactly k^2 - 1 links."""
        for src in range(16):
            assert tree_hop_counts(src, frozenset(range(16)), 4) == 15

    @given(st.integers(0, 8), st.sets(st.integers(0, 8), min_size=1, max_size=9))
    def test_tree_hop_counts_3x3(self, src, dests):
        """Tree links are bounded by the sum of unicast distances and
        at least the distance to the furthest destination."""
        links = tree_hop_counts(src, frozenset(dests), 3)
        far = max(xy_distance(src, d, 3) for d in dests)
        total = sum(xy_distance(src, d, 3) for d in dests)
        assert far <= links <= total if dests != {src} else links == 0

    def test_next_router_rejects_local(self):
        with pytest.raises(ValueError):
            next_router(0, LOCAL, 4)


class TestRouteMemo:
    """The per-network RouteState memo that replaced the module-global
    lru_cache: shared within a simulation, dropped with it."""

    def test_memoized_route_is_shared_within_a_network(self):
        rs = Simulator(proposed_network()).network.route_state
        a = rs.route(0, frozenset([5, 10]), None)
        b = rs.route(0, frozenset([10, 5]), None)
        assert a is b  # same key -> cached object

    def test_memo_is_per_network_instance(self):
        dests = frozenset([1, 4, 11])
        rs1 = Simulator(proposed_network()).network.route_state
        rs2 = Simulator(proposed_network()).network.route_state
        a, b = rs1.route(6, dests, None), rs2.route(6, dests, None)
        assert a == b
        assert a is not b  # no process-wide sharing across simulations

    def test_cache_stats_hook(self):
        rs = Simulator(proposed_network()).network.route_state
        dests = frozenset([7])
        rs.route(0, dests, None)
        rs.route(0, dests, None)
        info = rs.cache_info()
        assert info["misses"] == 1 and info["hits"] == 1
        assert info["size"] == 1 and info["capacity"] >= 1

    def test_memo_matches_uncached_helper(self):
        rs = Simulator(proposed_network()).network.route_state
        dests = frozenset([1, 4, 11])
        assert rs.route(6, dests, None) == route_xy_tree(6, dests, 4)

    def test_empty_destinations_still_rejected(self):
        with pytest.raises(ValueError):
            route_xy_tree(0, frozenset(), 4)
        # the router hot path goes through the memo; it must raise the
        # same diagnostic, not cache or return {}
        rs = Simulator(proposed_network()).network.route_state
        with pytest.raises(ValueError):
            rs.route(0, frozenset(), None)
        assert rs.cache_info()["size"] == 0

    def test_normalizes_unhashed_iterables(self):
        assert route_xy_tree(0, {15}, 4) == route_xy_tree(0, frozenset([15]), 4)

    def test_simulation_routes_through_the_shared_memo(self):
        sim = Simulator(
            proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.05, seed=7)
        )
        sim.run(300)
        info = sim.network.route_state.cache_info()
        assert info["hits"] > info["misses"] > 0
