"""NIC injection/ejection, mesh wiring and simulator harness."""

import hashlib
import json

import pytest

from repro import (
    NocConfig,
    Simulator,
    baseline_network,
    proposed_network,
)
from repro.noc.flit import MessageClass
from repro.noc.mesh import MeshNetwork
from repro.noc.metrics import ActivityCounters, aggregate, message_kind
from repro.noc.ports import EAST, LOCAL, NORTH, SOUTH, WEST
from repro.noc.simulator import WATCHDOG_CYCLES
from repro.traffic import (
    BernoulliTraffic,
    MessageSpec,
    SyntheticBurst,
    SyntheticTraffic,
)
from repro.traffic.mix import BROADCAST_ONLY, MIXED_TRAFFIC
from repro.traffic.processes import OnOffProcess


class TestMeshWiring:
    def test_edge_ports_unconnected(self):
        net = MeshNetwork(NocConfig())
        corner = net.routers[0]  # (0, 0)
        assert corner.in_ports[NORTH].connected
        assert corner.in_ports[EAST].connected
        assert not corner.in_ports[SOUTH].connected
        assert not corner.in_ports[WEST].connected

    def test_all_local_ports_connected(self):
        net = MeshNetwork(NocConfig())
        for router, nic in zip(net.routers, net.nics):
            assert router.in_ports[LOCAL].connected
            assert router.out_ports[LOCAL].connected
            assert nic.link_out is not None and nic.link_in is not None

    def test_interior_router_fully_connected(self):
        net = MeshNetwork(NocConfig())
        router = net.routers[5]  # (1, 1)
        assert all(p.connected for p in router.in_ports)
        assert all(p.connected for p in router.out_ports)

    def test_link_count(self):
        net = MeshNetwork(NocConfig())
        mesh_links = sum(
            1
            for r in net.routers
            for p in (NORTH, EAST, SOUTH, WEST)
            if r.out_ports[p].connected
        )
        # 2 * k * (k-1) bidirectional pairs = 48 directed links for k=4
        assert mesh_links == 48

    def test_k2_mesh(self):
        net = MeshNetwork(NocConfig(k=2))
        assert len(net.routers) == 4

    def test_k8_mesh(self):
        net = MeshNetwork(NocConfig(k=8))
        assert len(net.routers) == 64
        assert all(p.connected for p in net.routers[9 * 8 // 2].in_ports)


class TestNic:
    def test_broadcast_expansion_without_multicast(self):
        cfg = baseline_network()
        net = MeshNetwork(cfg)
        spec = MessageSpec(frozenset(range(16)), MessageClass.REQUEST, 1)
        message = net.nics[0].submit(spec, cycle=0)
        assert len(message._pending) == 16
        assert net.nics[0].backlog() == 16

    def test_no_expansion_with_multicast(self):
        cfg = proposed_network()
        net = MeshNetwork(cfg)
        spec = MessageSpec(frozenset(range(16)), MessageClass.REQUEST, 1)
        message = net.nics[0].submit(spec, cycle=0)
        assert len(message._pending) == 16  # 16 deliveries, one packet
        assert net.nics[0].backlog() == 1

    def test_injection_rate_one_flit_per_cycle(self):
        cfg = proposed_network()
        sim = Simulator(cfg)
        spec = MessageSpec(frozenset([1]), MessageClass.REQUEST, 1)
        burst = SyntheticBurst({(0, 0): [spec] * 5})
        burst.bind(cfg)
        sim.network.nics[0].source = burst
        sim.run(3)
        # one decision per cycle at most
        assert sim.network.nic_stats[0].injections <= 3

    def test_mc_round_robin_interleaves(self):
        cfg = proposed_network()
        sim = Simulator(cfg)
        req = MessageSpec(frozenset([1]), MessageClass.REQUEST, 1)
        resp = MessageSpec(frozenset([2]), MessageClass.RESPONSE, 5)
        burst = SyntheticBurst({(0, 0): [resp, req]})
        burst.bind(cfg)
        sim.network.nics[0].source = burst
        sim.run(30)
        msgs = sim.network.messages
        assert all(m.complete for m in msgs)
        req_msg = next(m for m in msgs if m.mclass == MessageClass.REQUEST)
        # the request must not wait behind all five response flits
        assert req_msg.latency <= 8


class TestSimulator:
    def test_determinism_same_seed(self):
        results = []
        for _ in range(2):
            sim = Simulator(
                proposed_network(),
                BernoulliTraffic(MIXED_TRAFFIC, 0.05, seed=3),
            )
            stats = sim.run_experiment(warmup=200, measure=800, drain=800)
            results.append((stats.avg_latency, stats.received_flits))
        assert results[0] == results[1]

    def test_different_seeds_differ(self):
        outcomes = set()
        for seed in (1, 2):
            sim = Simulator(
                proposed_network(),
                BernoulliTraffic(MIXED_TRAFFIC, 0.05, seed=seed),
            )
            stats = sim.run_experiment(warmup=200, measure=800, drain=800)
            outcomes.add(stats.received_flits)
        assert len(outcomes) == 2

    def test_flit_conservation(self):
        sim = Simulator(
            proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.04, seed=5)
        )
        sim.run(1500)
        # drain completely
        for nic in sim.network.nics:
            nic.source = None
        guard = 0
        while not sim.network.idle() and guard < 3000:
            sim.step()
            guard += 1
        assert sim.network.idle()
        assert all(m.complete for m in sim.network.messages)

    def test_run_experiment_reports_rate(self):
        sim = Simulator(
            proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.05, seed=1)
        )
        stats = sim.run_experiment(warmup=100, measure=500, drain=500)
        assert stats.injection_rate == 0.05
        assert stats.cycles == 500
        assert stats.throughput_gbps == pytest.approx(
            stats.throughput_flits_per_cycle * 64
        )

    def test_named_simulator(self):
        sim = Simulator(baseline_network(), name="base")
        assert sim.name == "base"
        assert Simulator(proposed_network()).name == "proposed"
        assert Simulator(baseline_network()).name == "baseline"

    def test_long_idle_does_not_trip_watchdog(self):
        # the O(1) watchdog consults the idle predicate only on its
        # slow path; a legitimately quiet network must never trip it
        sim = Simulator(proposed_network())
        sim.run(WATCHDOG_CYCLES + 500)
        assert sim.cycle == WATCHDOG_CYCLES + 500

    def test_burst_near_watchdog_boundary_does_not_trip(self):
        # traffic injected just before the sparse idle probe fires:
        # the probe sees a busy network with no recent ejection, which
        # must arm the grace window, not abort a healthy run
        inject_at = 2 * WATCHDOG_CYCLES + 1
        spec = MessageSpec(frozenset([15]), MessageClass.REQUEST, 1)
        sim = Simulator(
            proposed_network(), SyntheticBurst({(inject_at, 0): [spec]})
        )
        sim.run(inject_at + 100)
        assert sim.network.messages[0].complete

    def test_direct_submit_completes(self):
        sim = Simulator(proposed_network())
        sim.run(50)
        spec = MessageSpec(frozenset([3]), MessageClass.REQUEST, 1)
        sim.network.nics[0].submit(spec, sim.cycle)
        sim.run(60)
        assert sim.network.messages[0].complete
        assert sim.network.idle()

    def test_source_attach_mid_run_completes(self):
        sim = Simulator(proposed_network())
        sim.run(50)
        spec = MessageSpec(frozenset([9]), MessageClass.REQUEST, 1)
        burst = SyntheticBurst({(55, 2): [spec]})
        burst.bind(sim.cfg)
        sim.network.nics[2].source = burst
        sim.run(80)
        assert sim.network.messages[0].complete

    def test_cycles_folded_into_activity_snapshots(self):
        sim = Simulator(proposed_network())
        sim.run(123)
        n = sim.cfg.num_nodes
        assert sim.network.total_router_activity().cycles == 123 * n
        assert sim.network.total_nic_activity().cycles == 123 * n
        assert sim.activity().cycles == 123 * n

    @pytest.mark.parametrize("backend", ["object", "array"])
    def test_gated_keyword_is_gone(self, backend):
        # the loop steps every component every cycle; no backend keeps
        # an activity-gating switch
        with pytest.raises(TypeError, match="gated"):
            Simulator(proposed_network(), backend=backend, gated=True)


class TestIdleNetwork:
    """Stepping every router and NIC every cycle must be a no-op on a
    quiet mesh: no counter moves unless a flit does."""

    def test_idle_mesh_records_no_events(self):
        sim = Simulator(proposed_network())
        sim.run(500)
        net = sim.network
        assert net.idle() and not net.messages
        for stats in (*net.router_stats, *net.nic_stats):
            assert not any(stats.as_dict().values())

    def test_single_unicast_touches_only_its_xy_path(self):
        spec = MessageSpec(frozenset([15]), MessageClass.REQUEST, 1)
        sim = Simulator(proposed_network(), SyntheticBurst({(5, 0): [spec]}))
        sim.run(120)
        net = sim.network
        assert net.messages[0].complete and net.idle()
        # X first along the bottom row, then Y up the east column
        busy = {
            i for i, s in enumerate(net.router_stats)
            if any(s.as_dict().values())
        }
        assert busy == {0, 1, 2, 3, 7, 11, 15}
        # an uncontended single flit bypasses every router on the way
        assert all(net.router_stats[i].bypasses == 1 for i in busy)
        assert net.nic_stats[0].injections == 1
        assert net.nic_stats[15].ejected_flits == 1

    def test_idle_tracks_outstanding_messages(self):
        sim = Simulator(
            proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.05, seed=3)
        )
        net = sim.network
        for _ in range(300):
            sim.step()
            if not all(m.complete for m in net.messages):
                assert not net.idle()
        for nic in net.nics:
            nic.source = None
        for _ in range(400):
            if net.idle():
                break
            sim.step()
        assert net.idle() and all(m.complete for m in net.messages)
        # once drained, further cycles change no event count
        before = [s.as_dict() for s in (*net.router_stats, *net.nic_stats)]
        sim.run(200)
        after = [s.as_dict() for s in (*net.router_stats, *net.nic_stats)]
        assert net.idle() and after == before

    def test_drain_ends_as_soon_as_the_mesh_is_idle(self):
        sim = Simulator(
            proposed_network(), BernoulliTraffic(MIXED_TRAFFIC, 0.02, seed=7)
        )
        stats = sim.run_experiment(warmup=100, measure=300, drain=400)
        assert stats.stop_reason == "completed"
        assert stats.incomplete_messages == 0
        assert sim.network.idle()
        # a light load drains in a few dozen cycles, not the full cap
        assert 100 + 300 < sim.cycle < 100 + 300 + 400


def _sha256(blob):
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


class TestPinnedWindowStats:
    """Golden SHA-256 digests of the canonical WindowStats of the fig5
    (MIXED) and fig13 (BROADCAST_ONLY) driver points on both presets.

    The baseline-network broadcast points are pinned nowhere else, and
    the array backend cannot run them, so these digests are the only
    oracle for those bytes.
    """

    FAST = dict(warmup=100, measure=300, drain=400)

    @pytest.mark.parametrize(
        "preset,mix,rate,digest",
        [
            (proposed_network, MIXED_TRAFFIC, 0.02,
             "1e4d415b6b0ef57067b31f1aabaff1e949154f9f93377b000b08ae70eded19c8"),
            (proposed_network, MIXED_TRAFFIC, 0.14,
             "df79fd3dedcab89c9d0a3611a9cf33dbb0438410c43e270b723204a8e3746d17"),
            (proposed_network, BROADCAST_ONLY, 0.005,
             "a76232e42669a40688451d8fbf33242c749b8fb4a3fc909d34c213861d6427b3"),
            (proposed_network, BROADCAST_ONLY, 0.045,
             "2aef1a8669a241c104ef67dca8864fe341147bc3614b1e4670c89c26fc2102c9"),
            (baseline_network, MIXED_TRAFFIC, 0.02,
             "0ebcd03c04aecc2df337be208781405a4d2456f0d774ce5d5648131bd956838a"),
            (baseline_network, MIXED_TRAFFIC, 0.14,
             "f78a926a161b22e11f747365933ab657f4f905641713a97ebb6df7e92e74504a"),
            (baseline_network, BROADCAST_ONLY, 0.005,
             "2ad25ebdce8a3d4824bd1ae2fa49697dd9a55ed89ca4e464e8efaea278183284"),
            (baseline_network, BROADCAST_ONLY, 0.045,
             "db0bfcbab604bcd2c24a5651efef78639ab83e6cf840facb53fcacd71082c051"),
        ],
    )
    def test_driver_points(self, preset, mix, rate, digest):
        sim = Simulator(preset(), BernoulliTraffic(mix, rate, seed=7))
        assert _sha256(sim.run_experiment(**self.FAST).to_dict()) == digest

    @pytest.mark.parametrize(
        "bursty,mix,rate,digest",
        [
            (False, MIXED_TRAFFIC, 0.05,
             "fd9c161f8b7cc8de2fb7a7ec0cb6690b6d74b5518e3cec589d0b44f59c6b96fb"),
            (False, BROADCAST_ONLY, 0.02,
             "667193350cb38339e9b10e96be0e7f0cb064c87e8be989c55cddd834150b76dd"),
            (True, MIXED_TRAFFIC, 0.05,
             "348187f35abd6dd840798184aa346df5c5a701ef2d8962374482336eb3ec2b8d"),
            (True, BROADCAST_ONLY, 0.02,
             "8536409780367429b21d03016ede2a156f3ccab9554cbc2adbbca3cb1c5102e4"),
        ],
    )
    def test_injection_processes(self, bursty, mix, rate, digest):
        # long OFF gaps idle whole regions of the mesh mid-run
        process = OnOffProcess(burst_length=32.0) if bursty else None
        traffic = SyntheticTraffic(mix, rate, seed=7, process=process)
        sim = Simulator(proposed_network(), traffic)
        assert _sha256(sim.run_experiment(**self.FAST).to_dict()) == digest

    def test_identical_generators_chip_artifact(self):
        traffic = BernoulliTraffic(
            BROADCAST_ONLY, 0.01, seed=7, identical_generators=True
        )
        sim = Simulator(proposed_network(), traffic)
        assert _sha256(sim.run_experiment(**self.FAST).to_dict()) == (
            "e7de1135976edbd611a16cfff5b06436b01fb1c9d8422250c29ba3176c9fcdd4"
        )

    def test_activity_counters(self):
        # stronger than WindowStats: every per-router and per-NIC event
        # count, so a skipped or doubled phase shows even off-window
        traffic = BernoulliTraffic(MIXED_TRAFFIC, 0.08, seed=11)
        sim = Simulator(proposed_network(), traffic)
        sim.run(800)
        net = sim.network
        counters = [
            [s.as_dict() for s in net.router_stats],
            [s.as_dict() for s in net.nic_stats],
        ]
        assert _sha256(counters) == (
            "c80f2683199a10e1d8aed674f28a891b87da3a3093f7e32c552fdb62e02f96b0"
        )


class TestMetrics:
    def test_counters_arithmetic(self):
        a = ActivityCounters(buffer_writes=5, ejections=2)
        b = ActivityCounters(buffer_writes=2, ejections=1)
        assert (a - b).buffer_writes == 3
        assert (a + b).ejections == 3

    def test_snapshot_is_independent(self):
        a = ActivityCounters(buffer_writes=5)
        snap = a.snapshot()
        a.buffer_writes = 9
        assert snap.buffer_writes == 5

    def test_aggregate(self):
        total = aggregate(
            [ActivityCounters(ejections=1), ActivityCounters(ejections=2)]
        )
        assert total.ejections == 3

    def test_message_kind(self):
        from repro.noc.flit import Message

        bcast = Message(0, 0, frozenset(range(16)), MessageClass.REQUEST, 1, 0,
                        is_multicast=True)
        uni = Message(1, 0, frozenset([2]), MessageClass.REQUEST, 1, 0)
        resp = Message(2, 0, frozenset([2]), MessageClass.RESPONSE, 5, 0)
        assert message_kind(bcast) == "broadcast"
        assert message_kind(uni) == "unicast_request"
        assert message_kind(resp) == "unicast_response"
