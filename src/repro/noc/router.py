"""The five-port virtual-channel router.

One class implements every design point of the paper through the
feature flags of :class:`repro.noc.config.NocConfig`:

* flags off — the *baseline* router: 3-stage pipeline (BW | NRC+VA+SA |
  single-cycle ST+LT), no multicast, no bypassing.  With
  ``separate_st_lt`` it becomes the textbook 4-stage router of Fig. 1.
* ``multicast`` — the *strawman* router (Section 3.1): mSA-I requests
  are port vectors, mSA-II can grant several output ports at once and
  the crossbar replicates flits along the XY tree.
* ``multicast + bypass`` — the *proposed* router: lookaheads
  pre-allocate the crossbar one cycle ahead, collapsing the pipeline to
  a single ST+LT cycle per hop for flits that win pre-allocation.

Pipeline contract (see DESIGN.md): in a given cycle the router executes,
in order, ``receive`` (link/credit/lookahead arrivals), ``st_stage``
(traversals scheduled last cycle), ``msa2_stage`` (lookahead pass with
priority, then buffered pass; winners schedule next cycle's ST and send
their own lookaheads downstream), and ``msa1_stage`` (per-input-port
round-robin promoting one VC into the port's outport-request register).
"""

from __future__ import annotations

from repro.noc.arbiters import MatrixArbiter, RoundRobinArbiter
from repro.noc.lookahead import Lookahead, STOp
from repro.noc.ports import LOCAL, NUM_PORTS, port_name
from repro.noc.routing import RouteState
from repro.noc.vc import CreditMsg, InputVC, OutputVCTracker


class InputPort:
    """Buffers, lookahead latch and ST schedule of one input port."""

    def __init__(self, config, port):
        self.port = port
        self.vcs = [InputVC(i, spec) for i, spec in enumerate(config.vcs)]
        self.link_in = None
        self.credit_out = None
        self.la_in = None
        #: VC currently holding this port's single outport-request register.
        self.s2_vc = None
        #: lookahead delivered this cycle (at most one per port per cycle)
        self.la_now = None
        #: cycle -> STOp; at most one crossbar traversal per port per cycle
        self.st_ops = {}
        #: pipeline latch holding an in-flight flit that won pre-allocation
        self.latch = None

    @property
    def connected(self):
        return self.link_in is not None

    def occupancy(self):
        return sum(vc.occupancy for vc in self.vcs)


class OutputPort:
    """Credit tracker, matrix arbiter and outgoing wires of one port."""

    def __init__(self, config, port):
        self.port = port
        self.tracker = OutputVCTracker(config.vcs, config.vc_phases)
        self.arbiter = MatrixArbiter(NUM_PORTS)
        self.link_out = None
        self.credit_in = None
        self.la_out = None

    @property
    def connected(self):
        return self.link_out is not None


class Router:
    """One node of the mesh: 5 input ports, 5 output ports, a crossbar."""

    def __init__(self, config, node, stats, route_state=None):
        self.cfg = config
        self.node = node
        self.stats = stats
        #: the owning network's shared routing runtime (memo + header
        #: streams); a standalone router gets a private instance
        self.route_state = (
            route_state
            if route_state is not None
            else RouteState(config.routing, config.k)
        )
        self.in_ports = [InputPort(config, p) for p in range(NUM_PORTS)]
        self.out_ports = [OutputPort(config, p) for p in range(NUM_PORTS)]
        self.msa1 = [RoundRobinArbiter(config.num_vcs) for _ in range(NUM_PORTS)]
        #: owning :class:`~repro.noc.mesh.MeshNetwork` (``None`` standalone);
        #: carries the network-wide monotonic ejection counter.
        self.network = None
        #: observability hook (DESIGN.md §7): an attached observer
        #: (``on_route``/``on_vc_alloc``/``on_sa_grant`` methods).
        #: ``None`` by default — probe sites cost one identity test.
        self.probe = None
        # mSA-II scratch containers, reused across cycles so the hot
        # allocation path performs no per-call dict/set construction
        self._candidates = {}
        self._requests = {}
        self._winners = {}
        self._used_out = set()

    # ------------------------------------------------------------------
    # cycle phases
    # ------------------------------------------------------------------

    def receive(self, cycle):
        """Drain link, credit and lookahead arrivals for this cycle."""
        rs = self.route_state
        lookup = rs.route
        advancing = rs.advancing
        node = self.node
        for ip in self.in_ports:
            if not ip.connected:
                continue
            for flit in ip.link_in.receive(cycle):
                # the routing header advances (Valiant consumes its
                # intermediate node here) before the route is derived,
                # so route and VC phase always reflect the new state
                if advancing:
                    flit.rheader, flit.phase = rs.advance(
                        node, flit.destinations, flit.rheader
                    )
                flit.route = lookup(node, flit.destinations, flit.rheader)
                if self.probe is not None:
                    self.probe.on_route(cycle, node, flit)
                op = ip.st_ops.get(cycle)
                if op is not None and op.kind == "bypass":
                    if ip.latch is not None:
                        raise RuntimeError(
                            f"router {self.node} port {port_name(ip.port)}: "
                            "bypass latch collision"
                        )
                    ip.latch = flit
                else:
                    ip.vcs[flit.vc].write(flit)
                    self.stats.buffer_writes += 1
            ip.la_now = None
            if ip.la_in is not None:
                lookaheads = ip.la_in.receive(cycle)
                if lookaheads:
                    ip.la_now = lookaheads[-1]
                    self.stats.la_received += len(lookaheads)
        for op_ in self.out_ports:
            if op_.credit_in is None:
                continue
            for msg in op_.credit_in.receive(cycle):
                op_.tracker.credit_return(msg)

    def st_stage(self, cycle):
        """Execute the crossbar/link traversals scheduled for this cycle."""
        for ip in self.in_ports:
            op = ip.st_ops.pop(cycle, None)
            if op is None:
                continue
            if op.kind == "bypass":
                flit = ip.latch
                if flit is None:
                    raise RuntimeError(
                        f"router {self.node}: bypass reservation at "
                        f"{port_name(ip.port)} but no flit arrived"
                    )
                ip.latch = None
                self.stats.bypasses += 1
                ip.credit_out.send(cycle, CreditMsg(flit.vc, flit.is_tail))
                self.stats.credits_sent += 1
            else:
                flit = op.flit
                if op.pop:
                    ip.vcs[op.vc].pop(flit)
                    self.stats.buffer_reads += 1
                    ip.credit_out.send(cycle, CreditMsg(flit.vc, flit.is_tail))
                    self.stats.credits_sent += 1
            self.stats.xbar_input_traversals += 1
            self.stats.xbar_output_traversals += len(op.grants)
            bypassed = op.kind == "bypass"
            for port, (out_vc, subset) in op.grants.items():
                copy = flit.fork(subset)
                copy.vc = out_vc
                copy.hops = flit.hops + 1
                copy.bypassed_hops = flit.bypassed_hops + (1 if bypassed else 0)
                self.out_ports[port].link_out.send(cycle, copy)
                if port == LOCAL:
                    self.stats.ejections += 1
                    if self.network is not None:
                        self.network.ejections += 1
                else:
                    self.stats.link_traversals += 1

    def msa2_stage(self, cycle):
        """Second allocation stage: lookahead pass, then buffered pass."""
        used_out = self._used_out
        used_out.clear()
        if self.cfg.bypass:
            self._lookahead_pass(cycle, used_out)
        self._buffered_pass(cycle, used_out)

    def msa1_stage(self, cycle):
        """First allocation stage: one winner VC per input port."""
        for ip in self.in_ports:
            if not ip.connected or ip.s2_vc is not None:
                continue
            eligible = None
            for vc in ip.vcs:
                if vc.buffer and vc.oldest_unrequested() is not None:
                    if eligible is None:
                        eligible = [vc.index]
                    else:
                        eligible.append(vc.index)
            if eligible is None:
                continue
            winner = self.msa1[ip.port].grant(eligible)
            ip.vcs[winner].oldest_unrequested().stage = "S2"
            ip.s2_vc = winner
            self.stats.msa1_grants += 1

    # ------------------------------------------------------------------
    # allocation internals
    # ------------------------------------------------------------------

    def _la_eligible(self, ip, la, cycle):
        """Whether a lookahead may attempt bypass at this input port.

        Bypass must preserve flit order within a VC: if any older flit
        of the same VC is still buffered here, the in-flight flit must
        be buffered too.  The crossbar input must also be free next
        cycle (a partially served multicast may still own it).
        """
        if ip.vcs[la.vc].occupancy > 0:
            return False
        if (cycle + 1) in ip.st_ops:
            return False
        return ip.latch is None

    def _port_resources_ok(self, port, mclass, pid, is_head, phase):
        """VA/credit check folded into mSA-II (see DESIGN.md)."""
        out = self.out_ports[port]
        if not out.connected:
            raise RuntimeError(
                f"router {self.node}: route through unconnected port "
                f"{port_name(port)}"
            )
        tracker = out.tracker
        if is_head:
            return tracker.peek_free(mclass, phase) is not None
        return tracker.body_vc(pid) is not None

    def _allocate(self, cycle, port, la_or_flit, phase):
        """Allocate the downstream VC for one granted output branch."""
        tracker = self.out_ports[port].tracker
        if la_or_flit.is_head:
            out_vc = tracker.alloc_head(la_or_flit.mclass, la_or_flit.pid, phase)
        else:
            out_vc = tracker.consume_body(la_or_flit.pid)
        if out_vc is None:
            raise RuntimeError("allocation after a passing resource check failed")
        if self.probe is not None:
            self.probe.on_vc_alloc(cycle, self.node, port, out_vc, la_or_flit)
        return out_vc

    def _forward_lookahead(self, cycle, port, out_vc, subset, source,
                           rheader, phase):
        """NRC + lookahead generation for a granted non-local branch."""
        if port == LOCAL or not self.cfg.bypass:
            return
        self.out_ports[port].la_out.send(
            cycle,
            Lookahead(
                vc=out_vc,
                mclass=source.mclass,
                pid=source.pid,
                seq=source.seq,
                is_head=source.is_head,
                is_tail=source.is_tail,
                destinations=subset,
                rheader=rheader,
                phase=phase,
            ),
        )
        self.stats.la_sent += 1

    def _lookahead_pass(self, cycle, used_out):
        """Arbitrate lookaheads; adds output ports consumed by winners
        to ``used_out``."""
        candidates = self._candidates
        candidates.clear()
        requests = self._requests
        requests.clear()
        rs = self.route_state
        advancing = rs.advancing
        for ip in self.in_ports:
            la = ip.la_now
            if la is None or not self._la_eligible(ip, la, cycle):
                continue
            # mirror the header advance the flit itself will perform on
            # arrival, so the pre-allocated route matches it exactly
            if advancing:
                rheader, phase = rs.advance(self.node, la.destinations, la.rheader)
            else:
                rheader, phase = la.rheader, la.phase
            route = rs.route(self.node, la.destinations, rheader)
            if not all(
                self._port_resources_ok(p, la.mclass, la.pid, la.is_head, phase)
                for p in route
            ):
                continue
            candidates[ip.port] = (la, route, rheader, phase)
            for p in route:
                reqs = requests.get(p)
                if reqs is None:
                    requests[p] = [ip.port]
                else:
                    reqs.append(ip.port)
        if not candidates:
            return
        winners = self._winners
        winners.clear()
        for p, reqs in requests.items():
            winners[p] = self.out_ports[p].arbiter.grant(reqs)
        for in_port, (la, route, rheader, phase) in candidates.items():
            # multicast bypass is all-or-nothing: a flit cannot both
            # traverse and be buffered, so any lost branch buffers it
            if not all(winners[p] == in_port for p in route):
                continue
            grants = {}
            for port, subset in route.items():
                out_vc = self._allocate(cycle, port, la, phase)
                grants[port] = (out_vc, subset)
                used_out.add(port)
                self._forward_lookahead(
                    cycle, port, out_vc, subset, la, rheader, phase
                )
            ip = self.in_ports[in_port]
            ip.st_ops[cycle + 1] = STOp(
                kind="bypass", in_port=in_port, vc=la.vc, flit=None, grants=grants
            )
            self.stats.msa2_grants += 1
            if self.probe is not None:
                self.probe.on_sa_grant(cycle, self.node, la, "bypass")

    def _buffered_pass(self, cycle, used_out):
        """mSA-II among the buffered flits holding S2 registers."""
        candidates = self._candidates
        candidates.clear()
        requests = self._requests
        requests.clear()
        for ip in self.in_ports:
            if self.cfg.bypass and ip.la_now is not None:
                continue  # the port's mSA-II mux selected the lookahead
            if ip.s2_vc is None or (cycle + 1) in ip.st_ops:
                continue
            flit = ip.vcs[ip.s2_vc].s2_flit()
            if flit is None:
                raise RuntimeError(
                    f"router {self.node}: S2 register points at VC "
                    f"{ip.s2_vc} with no S2 flit"
                )
            askable = {
                p: s
                for p, s in flit.route.items()
                if p not in flit.granted_ports
                and p not in used_out
                and self._port_resources_ok(
                    p, flit.mclass, flit.pid, flit.is_head, flit.phase
                )
            }
            if not askable:
                # Nothing this flit needs is available this cycle.  Release
                # the port's outport-request register so mSA-I can pick a
                # different VC next cycle — hardware re-arbitrates every
                # cycle, and letting a credit-blocked flit squat on the S2
                # register would head-of-line block the whole input port.
                flit.stage = None
                ip.s2_vc = None
                continue
            candidates[ip.port] = (flit, askable)
            for p in askable:
                reqs = requests.get(p)
                if reqs is None:
                    requests[p] = [ip.port]
                else:
                    reqs.append(ip.port)
        if not candidates:
            return
        winners = self._winners
        winners.clear()
        for p, reqs in requests.items():
            winners[p] = self.out_ports[p].arbiter.grant(reqs)
        for in_port, (flit, askable) in candidates.items():
            grants = {}
            for port, subset in askable.items():
                if winners.get(port) != in_port:
                    continue
                out_vc = self._allocate(cycle, port, flit, flit.phase)
                grants[port] = (out_vc, subset)
                flit.granted_ports.add(port)
                self._forward_lookahead(
                    cycle, port, out_vc, subset, flit, flit.rheader, flit.phase
                )
            if not grants:
                continue
            ip = self.in_ports[in_port]
            fully = flit.granted_ports >= set(flit.route)
            if fully:
                flit.stage = "GRANTED"
                ip.s2_vc = None
            ip.st_ops[cycle + 1] = STOp(
                kind="buffer",
                in_port=in_port,
                vc=flit.vc,
                flit=flit,
                grants=grants,
                pop=fully,
            )
            self.stats.msa2_grants += 1
            if self.probe is not None:
                self.probe.on_sa_grant(cycle, self.node, flit, "buffer")

    # ------------------------------------------------------------------
    # introspection
    # ------------------------------------------------------------------

    def occupancy(self):
        """Total buffered flits (drain/deadlock checks)."""
        return sum(ip.occupancy() for ip in self.in_ports)

    def idle(self):
        """No buffered flits, pending traversals or latched flits."""
        return all(
            ip.occupancy() == 0 and not ip.st_ops and ip.latch is None
            for ip in self.in_ports
        )
