"""Network interface controller.

The NIC connects a core to its router: it segments core messages into
packets and flits, performs VC allocation / credit flow control toward
the router's local input port (it is the "upstream node" of that port),
sends lookaheads one cycle ahead of each injected flit when bypassing
is enabled, and sinks ejected flits.

When the network has no router-level multicast support (the baseline),
the NIC expands a k**2-destination broadcast message into one unicast
packet per destination — the TILE64/Teraflops behaviour the paper
analyses: channel load inflates by k**2 and the source injection link
serialises the copies.
"""

from __future__ import annotations

import itertools
from collections import deque

from repro.noc.flit import Message, MessageClass, Packet
from repro.noc.lookahead import Lookahead
from repro.noc.routing import RouteState
from repro.noc.vc import CreditMsg, OutputVCTracker


class Nic:
    """One network interface: injection pipeline plus ejection sink."""

    def __init__(self, config, node, stats, message_log):
        self.cfg = config
        self.node = node
        self.stats = stats
        self.message_log = message_log
        self.tracker = OutputVCTracker(config.vcs, config.vc_phases)
        self.queues = {mc: deque() for mc in MessageClass}
        self._mc_rr = deque(MessageClass)
        self._pending = None
        #: observability hook (DESIGN.md §7): an attached observer
        #: (``on_inject``/``on_eject`` methods), ``None`` by default.
        self.probe = None
        #: owning :class:`~repro.noc.mesh.MeshNetwork` (``None`` standalone),
        #: whose id counters and routing runtime this NIC shares
        self.network = None
        # wires, connected by MeshNetwork
        self.link_out = None
        self.la_out = None
        self.credit_in = None
        self.link_in = None
        self.credit_out = None
        #: the attached traffic source (``None`` for a silent NIC)
        self.source = None
        # standalone fallback id counters; a NIC inside a MeshNetwork
        # shares the network's per-simulation counters instead, so ids
        # are network-unique and every simulation starts from 0
        self._local_message_ids = None
        self._local_packet_ids = None
        # standalone fallback routing runtime (shared network instance
        # otherwise, so header draws and route memos stay per-network)
        self._local_route_state = None

    # ------------------------------------------------------------------
    # message admission
    # ------------------------------------------------------------------

    def _id_counters(self):
        """The (message, packet) id counters: the owning network's, or
        lazily-created local ones for a standalone NIC."""
        net = self.network
        if net is not None:
            return net.message_ids, net.packet_ids
        if self._local_message_ids is None:
            self._local_message_ids = itertools.count()
            self._local_packet_ids = itertools.count()
        return self._local_message_ids, self._local_packet_ids

    def _routing(self):
        """The routing runtime: the owning network's, or a lazily
        created local one for a standalone NIC."""
        net = self.network
        if net is not None:
            return net.route_state
        if self._local_route_state is None:
            self._local_route_state = RouteState(self.cfg.routing, self.cfg.k)
        return self._local_route_state

    def submit(self, spec, cycle):
        """Accept a core message and enqueue its flits for injection."""
        message_ids, packet_ids = self._id_counters()
        routing = self._routing()
        destinations = frozenset(spec.destinations)
        if (
            len(destinations) > 1
            and self.cfg.multicast
            and not routing.algorithm.supports_multicast
        ):
            # multicast trees are XY-only (DESIGN.md §5): an algorithm
            # whose single VC partition would mix non-XY turns with the
            # tree cannot carry router-level multicast deadlock free
            raise RuntimeError(
                f"{routing.algorithm.name} routing cannot carry "
                f"router-level multicast (XY-tree restriction); use xy "
                f"routing or a multicast=False config"
            )
        message = Message(
            mid=next(message_ids),
            src=self.node,
            destinations=destinations,
            mclass=spec.mclass,
            flits_per_packet=spec.num_flits,
            creation_cycle=cycle,
            is_multicast=len(destinations) > 1,
        )
        if len(destinations) > 1 and not self.cfg.multicast:
            packet_dests = [frozenset([d]) for d in sorted(destinations)]
        else:
            packet_dests = [destinations]
        for dests in packet_dests:
            rheader, rphase = routing.packet_header(self.node, dests)
            packet = Packet(
                pid=next(packet_ids),
                message=message,
                src=self.node,
                destinations=dests,
                mclass=spec.mclass,
                num_flits=spec.num_flits,
                rheader=rheader,
                rphase=rphase,
            )
            message.register_packet(packet)
            for flit in packet.make_flits():
                self.queues[spec.mclass].append(flit)
        self.message_log.append(message)
        self.stats.messages_submitted += 1
        return message

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------

    def receive(self, cycle):
        """Sink ejected flits and absorb returned credits."""
        if self.link_in is not None:
            for flit in self.link_in.receive(cycle):
                if self.node not in flit.destinations:
                    raise RuntimeError(
                        f"NIC {self.node} received a misrouted flit {flit}"
                    )
                self.stats.ejected_flits += 1
                if self.probe is not None:
                    self.probe.on_eject(cycle, self.node, flit)
                if flit.is_tail:
                    # reception convention: a flit sent during cycle c is
                    # visible at c+1 but was received at the end of c
                    flit.packet.message.record_delivery(
                        self.node, flit.packet, cycle - 1
                    )
                self.credit_out.send(cycle, CreditMsg(flit.vc, flit.is_tail))
        if self.credit_in is not None:
            for msg in self.credit_in.receive(cycle):
                self.tracker.credit_return(msg)

    def step(self, cycle):
        """Send last cycle's decision, generate traffic, decide the next flit."""
        if self._pending is not None:
            self.link_out.send(cycle, self._pending)
            self._pending = None
        source = self.source
        if source is not None:
            for spec in source.generate(cycle, self.node):
                self.submit(spec, cycle)
        self._decide(cycle)

    def _decide(self, cycle):
        """VC-allocate at most one flit; its link traversal is next cycle."""
        # nothing queued: skipping the round-robin scan is exact (a full
        # fruitless scan rotates the deque back to its start position)
        if not any(self.queues.values()):
            return
        for _ in range(len(self._mc_rr)):
            mclass = self._mc_rr[0]
            self._mc_rr.rotate(-1)
            queue = self.queues[mclass]
            if not queue:
                continue
            flit = queue[0]
            if flit.is_head:
                if self.tracker.peek_free(mclass, flit.phase) is None:
                    continue
                out_vc = self.tracker.alloc_head(mclass, flit.pid, flit.phase)
            else:
                if self.tracker.body_vc(flit.pid) is None:
                    continue
                out_vc = self.tracker.consume_body(flit.pid)
            queue.popleft()
            flit.vc = out_vc
            flit.injection_cycle = cycle
            if self.cfg.bypass:
                self.la_out.send(
                    cycle,
                    Lookahead(
                        vc=out_vc,
                        mclass=flit.mclass,
                        pid=flit.pid,
                        seq=flit.seq,
                        is_head=flit.is_head,
                        is_tail=flit.is_tail,
                        destinations=flit.destinations,
                        rheader=flit.rheader,
                        phase=flit.phase,
                    ),
                )
                self.stats.la_sent += 1
            self._pending = flit
            self.stats.injections += 1
            if self.probe is not None:
                self.probe.on_inject(cycle, self.node, flit)
            return

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def backlog(self):
        """Flits generated but not yet injected."""
        pending = 1 if self._pending is not None else 0
        return pending + sum(len(q) for q in self.queues.values())

    def idle(self):
        return self.backlog() == 0
