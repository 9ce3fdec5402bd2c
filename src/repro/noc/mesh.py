"""Mesh assembly: routers, NICs and the channels wiring them together.

Channel delays implement the timing contract of DESIGN.md: flit links
are one cycle (two with the textbook split ST/LT pipeline), lookahead
wires are one cycle, and credit wires are two cycles (one cycle of wire
plus one cycle of credit processing at the upstream node), which yields
the paper's 3-cycle buffer/VC turnaround for the bypassed pipeline.
"""

from __future__ import annotations

import itertools

from repro.noc.channel import Channel, MultiChannel
from repro.noc.metrics import ActivityCounters, aggregate
from repro.noc.nic import Nic
from repro.noc.ports import EAST, LOCAL, NORTH, OPPOSITE, SOUTH, WEST
from repro.noc.router import Router
from repro.noc.routing import RouteState, coords, node_at

CREDIT_DELAY = 2
LOOKAHEAD_DELAY = 1


class MeshNetwork:
    """A k x k mesh of routers, each with an attached NIC."""

    def __init__(self, config):
        self.cfg = config
        if config.bypass and config.separate_st_lt:
            raise ValueError(
                "virtual bypassing requires the single-cycle ST+LT datapath"
            )
        self.router_stats = [ActivityCounters() for _ in range(config.num_nodes)]
        self.nic_stats = [ActivityCounters() for _ in range(config.num_nodes)]
        self.messages = []
        #: per-simulation message/packet id counters, shared by all the
        #: NICs of this network so ids are network-unique yet every
        #: fresh network numbers from 0 (process-global counters would
        #: leak state across back-to-back simulations in one worker)
        self.message_ids = itertools.count()
        self.packet_ids = itertools.count()
        #: cycles stepped so far; the single network-level cycle counter
        #: that replaces per-component ``stats.cycles`` ticking (folded
        #: back into the aggregates by :meth:`total_router_activity`).
        self.cycles = 0
        #: monotonic network-wide ejection count (O(1) watchdog probe).
        self.ejections = 0
        #: per-network routing runtime: one shared route memo (dropped
        #: with the network) plus the per-node header-draw streams;
        #: reseeded from the traffic seed by ``Simulator.attach_traffic``
        self.route_state = RouteState(config.routing, config.k)
        self.routers = [
            Router(config, n, self.router_stats[n], self.route_state)
            for n in range(config.num_nodes)
        ]
        self.nics = [
            Nic(config, n, self.nic_stats[n], self.messages)
            for n in range(config.num_nodes)
        ]
        for component in (*self.routers, *self.nics):
            component.network = self
        self._channels = []
        self._wire_local_ports()
        self._wire_mesh_links()

    def _channel(self, cls, delay, name):
        channel = cls(delay, name)
        self._channels.append(channel)
        return channel

    def seed_routing(self, seed):
        """Reseed the routing header streams (no-op for ``None``)."""
        if seed is not None:
            self.route_state.reseed(seed)

    # ------------------------------------------------------------------
    # wiring
    # ------------------------------------------------------------------

    def _wire_local_ports(self):
        link_delay = self.cfg.link_delay
        for node, (router, nic) in enumerate(zip(self.routers, self.nics)):
            inject = self._channel(Channel, 1, f"nic{node}->r{node}")
            nic.link_out = inject
            router.in_ports[LOCAL].link_in = inject

            inj_credit = self._channel(
                MultiChannel, CREDIT_DELAY, f"r{node}->nic{node}.credit"
            )
            router.in_ports[LOCAL].credit_out = inj_credit
            nic.credit_in = inj_credit

            la = self._channel(
                Channel, LOOKAHEAD_DELAY, f"nic{node}->r{node}.la"
            )
            nic.la_out = la
            router.in_ports[LOCAL].la_in = la

            eject = self._channel(Channel, link_delay, f"r{node}->nic{node}")
            router.out_ports[LOCAL].link_out = eject
            nic.link_in = eject

            ej_credit = self._channel(
                MultiChannel, CREDIT_DELAY, f"nic{node}->r{node}.credit"
            )
            nic.credit_out = ej_credit
            router.out_ports[LOCAL].credit_in = ej_credit

    def _wire_mesh_links(self):
        k = self.cfg.k
        link_delay = self.cfg.link_delay
        for node in range(self.cfg.num_nodes):
            x, y = coords(node, k)
            for port, (nx, ny) in (
                (NORTH, (x, y + 1)),
                (EAST, (x + 1, y)),
                (SOUTH, (x, y - 1)),
                (WEST, (x - 1, y)),
            ):
                if not (0 <= nx < k and 0 <= ny < k):
                    continue
                neighbour = node_at(nx, ny, k)
                src = self.routers[node]
                dst = self.routers[neighbour]
                back_port = OPPOSITE[port]

                link = self._channel(
                    Channel, link_delay, f"r{node}->r{neighbour}"
                )
                src.out_ports[port].link_out = link
                dst.in_ports[back_port].link_in = link

                credit = self._channel(
                    MultiChannel, CREDIT_DELAY, f"r{neighbour}->r{node}.credit"
                )
                dst.in_ports[back_port].credit_out = credit
                src.out_ports[port].credit_in = credit

                la = self._channel(
                    Channel, LOOKAHEAD_DELAY, f"r{node}->r{neighbour}.la"
                )
                src.out_ports[port].la_out = la
                dst.in_ports[back_port].la_in = la

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def flit_links(self):
        """The directed router-to-router flit links, in a deterministic
        order, as ``(((x, y), (nx, ny)), channel)`` pairs.

        The coordinate-pair keys match the channel-load maps of
        :mod:`repro.analysis.pattern_limits`, so a measured link-flit
        count is directly comparable with the analytic prediction for
        the same link.  Local injection/ejection links are excluded —
        they are observed at the NIC (inject/eject events) instead.
        """
        k = self.cfg.k
        links = []
        for node in range(self.cfg.num_nodes):
            x, y = coords(node, k)
            for port, (nx, ny) in (
                (NORTH, (x, y + 1)),
                (EAST, (x + 1, y)),
                (SOUTH, (x, y - 1)),
                (WEST, (x - 1, y)),
            ):
                if not (0 <= nx < k and 0 <= ny < k):
                    continue
                channel = self.routers[node].out_ports[port].link_out
                links.append((((x, y), (nx, ny)), channel))
        return links

    def occupancy(self):
        return sum(r.occupancy() for r in self.routers)

    def idle(self):
        """Nothing buffered, latched, scheduled, queued or in flight.

        The drain and watchdog predicate of the cycle loop.
        """
        return (
            all(r.idle() for r in self.routers)
            and all(nic.idle() for nic in self.nics)
            and all(ch.in_flight == 0 for ch in self._channels)
        )

    def total_router_activity(self):
        """Aggregate router counters with elapsed cycles folded in."""
        agg = aggregate(self.router_stats)
        agg.cycles += self.cycles * len(self.router_stats)
        return agg

    def total_nic_activity(self):
        """Aggregate NIC counters with elapsed cycles folded in."""
        agg = aggregate(self.nic_stats)
        agg.cycles += self.cycles * len(self.nic_stats)
        return agg
