"""The attachable observability bundle.

An :class:`Observer` owns up to three instruments — a
:class:`~repro.obs.tracer.Tracer`, a
:class:`~repro.obs.sampler.MetricsSampler` and a
:class:`~repro.obs.profiler.PhaseProfiler` — and wires them into a
:class:`~repro.noc.simulator.Simulator` through the probe slots every
instrumentable component carries (``Router.probe``, ``Nic.probe``,
``InputVC.probe``, ``Channel.probe``; all ``None`` by default).

The zero-overhead-off contract (DESIGN.md §7) has two halves:

* **off**: every probe slot defaults to ``None`` and each probe site is
  a single ``is not None`` test on a component the hot loop already
  holds; the simulator's cycle hooks sit behind one ``obs is not None``
  test per cycle.
* **on**: probes only *read* simulation state — they never touch PRBS
  streams, arbiters, credits or flit fields — so an observed run is
  byte-identical to a bare one (asserted by ``tests/obs``).

``detach`` restores every probe slot to ``None``, returning the
simulator to the pristine fast path.
"""

from __future__ import annotations

from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.profiler import PhaseProfiler
from repro.obs.sampler import DEFAULT_INTERVAL, MetricsSampler
from repro.obs.tracer import DEFAULT_CAPACITY, Tracer


class _VCProbe:
    """Per-router probe shared by that router's input VCs.

    ``InputVC`` carries no node or cycle context of its own (its write
    and pop paths are deliberately minimal), so the probe contributes
    the node and reads the current cycle off the owning observer.
    """

    __slots__ = ("obs", "node")

    def __init__(self, obs, node):
        self.obs = obs
        self.node = node

    def buf_write(self, vc, flit):
        obs = self.obs
        obs.tracer.record(
            obs.cycle, "buf_write", self.node,
            flit.pid, flit.seq, vc.index, vc.occupancy,
        )

    def buf_read(self, vc, flit):
        obs = self.obs
        obs.tracer.record(
            obs.cycle, "buf_read", self.node,
            flit.pid, flit.seq, vc.index, vc.occupancy,
        )


class Observer:
    """Tracing, sampling and profiling for one simulator, as a unit."""

    def __init__(
        self,
        trace=True,
        capacity=DEFAULT_CAPACITY,
        sample=None,
        profile=False,
    ):
        """``trace`` enables event tracing (ring of ``capacity``),
        ``sample`` is a metrics-sampling interval in cycles (``None``
        disables sampling; ``True`` selects the default interval) and
        ``profile`` enables the wall-clock phase profiler."""
        self.tracer = Tracer(capacity) if trace else None
        if sample is True:
            sample = DEFAULT_INTERVAL
        self.sampler = MetricsSampler(sample) if sample else None
        self.profiler = PhaseProfiler() if profile else None
        if self.tracer is None and self.sampler is None and self.profiler is None:
            raise ValueError("observer with nothing to observe")
        self.sim = None
        self._k = None  # mesh radix, remembered past detach for exports
        #: current simulation cycle (maintained by begin_cycle; read by
        #: probes whose call sites carry no cycle argument)
        self.cycle = 0
        self._links = []        # [(key, channel)] in channel-index order
        self._link_src = []     # cid -> upstream node (trace payload)
        self._link_dst = []     # cid -> downstream node (trace payload)

    # ------------------------------------------------------------ wiring

    def attach(self, sim):
        """Install probes into ``sim``; returns self for chaining."""
        if getattr(sim, "backend", "object") != "object":
            raise ValueError(
                f'observability probes are object-only: backend='
                f'{sim.backend!r} has no probe slots (see the support '
                f'matrix in repro.noc.array_backend)'
            )
        if self.sim is not None:
            raise RuntimeError("observer is already attached")
        if sim.obs is not None:
            raise RuntimeError("simulator already has an observer attached")
        net = sim.network
        self.sim = sim
        self._k = sim.cfg.k
        self.cycle = sim.cycle
        if self.tracer is not None:
            for router in net.routers:
                router.probe = self
                vc_probe = _VCProbe(self, router.node)
                for ip in router.in_ports:
                    for vc in ip.vcs:
                        vc.probe = vc_probe
            for nic in net.nics:
                nic.probe = self
        if self.tracer is not None or self.sampler is not None:
            from repro.noc.routing import node_at

            self._links = net.flit_links()
            k = sim.cfg.k
            self._link_src = [
                node_at(*src, k) for ((src, _dst), _ch) in self._links
            ]
            self._link_dst = [
                node_at(*dst, k) for ((_src, dst), _ch) in self._links
            ]
            for cid, (_key, channel) in enumerate(self._links):
                channel.cid = cid
                channel.probe = self.on_link
        if self.sampler is not None:
            self.sampler.bind(net, self._links)
        sim.obs = self
        return self

    def detach(self):
        """Remove every probe, restoring the uninstrumented fast path."""
        sim = self.sim
        if sim is None:
            return
        net = sim.network
        for router in net.routers:
            router.probe = None
            for ip in router.in_ports:
                for vc in ip.vcs:
                    vc.probe = None
        for nic in net.nics:
            nic.probe = None
        for _key, channel in self._links:
            channel.probe = None
            channel.cid = None
        sim.obs = None
        self.sim = None

    # ------------------------------------------------------- cycle hooks

    def begin_cycle(self, cycle):
        self.cycle = cycle
        if self.profiler is not None:
            self.profiler.begin_cycle()

    def end_cycle(self, cycle):
        if self.sampler is not None:
            self.sampler.tick(cycle)
        if self.profiler is not None:
            self.profiler.end_cycle()

    # ------------------------------------------------------ probe sites

    def on_route(self, cycle, node, flit):
        self.tracer.record(
            cycle, "route", node,
            flit.pid, flit.seq, flit.vc, tuple(sorted(flit.route)),
        )

    def on_vc_alloc(self, cycle, node, port, out_vc, source):
        self.tracer.record(
            cycle, "vc_alloc", node, source.pid, source.seq, out_vc, port
        )

    def on_sa_grant(self, cycle, node, source, path):
        self.tracer.record(
            cycle, "sa_grant", node, source.pid, source.seq, source.vc, path
        )

    def on_inject(self, cycle, node, flit):
        self.tracer.record(cycle, "inject", node, flit.pid, flit.seq, flit.vc)

    def on_eject(self, cycle, node, flit):
        self.tracer.record(cycle, "eject", node, flit.pid, flit.seq, flit.vc)

    # Fault-engine probe sites (repro.noc.faults).  Unlike the router
    # and NIC sites — whose callers hold a per-component probe slot —
    # these are reached through ``sim.obs`` and may fire while only a
    # sampler or profiler is attached, so they guard the tracer
    # themselves.

    def on_drop(self, cycle, node, flit, reason):
        if self.tracer is not None:
            self.tracer.record(
                cycle, "drop", node, flit.pid, flit.seq, flit.vc, reason
            )

    def on_retransmit(self, cycle, node, pid, mid):
        if self.tracer is not None:
            self.tracer.record(cycle, "retransmit", node, pid, None, None, mid)

    def on_fault(self, cycle, node, detail):
        if self.tracer is not None:
            self.tracer.record(cycle, "fault", node, None, None, None, detail)

    def on_link(self, channel, cycle, flit):
        cid = channel.cid
        if self.tracer is not None:
            self.tracer.record(
                cycle, "link", self._link_src[cid],
                flit.pid, flit.seq, flit.vc, self._link_dst[cid],
            )
        if self.sampler is not None:
            self.sampler.count_link(cid)

    # ----------------------------------------------------------- results

    @property
    def events(self):
        return self.tracer.events if self.tracer is not None else ()

    def export_jsonl(self, path):
        return write_jsonl(self.events, path)

    def export_chrome_trace(self, path):
        if self._k is None:
            raise RuntimeError("observer was never attached to a simulator")
        return write_chrome_trace(self.events, self._k, path)

    def report(self):
        """Run-telemetry dict combining whichever instruments are on."""
        out = {}
        if self.tracer is not None:
            out["trace"] = {
                "recorded": self.tracer.recorded,
                "buffered": len(self.tracer),
                "dropped": self.tracer.dropped,
                "capacity": self.tracer.capacity,
                "by_kind": self.tracer.counts(),
            }
        if self.sampler is not None:
            out["metrics"] = self.sampler.summary()
        if self.profiler is not None:
            events = self.tracer.recorded if self.tracer is not None else 0
            out["profile"] = self.profiler.report(events)
        return out
