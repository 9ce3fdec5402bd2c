"""The observability contract: observation never changes the physics.

An observed run — tracing, sampling and profiling all on — must produce
WindowStats *and* per-router ActivityCounters byte-identical to a bare
run of the same job, across injection processes, routing algorithms and
traffic mixes.  These tests are the teeth of DESIGN.md §7.
"""

import json

import pytest

from repro import Simulator, proposed_network
from repro.noc.metrics import aggregate
from repro.noc.routing import make_routing
from repro.obs import Observer
from repro.traffic import SyntheticTraffic
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST
from repro.traffic.processes import make_process

FAST = dict(warmup=100, measure=300, drain=400)


def canonical(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


def _simulator(process_name="bernoulli", routing_name="xy",
               mix=UNIFORM_UNICAST, rate=0.08):
    config = proposed_network()
    if routing_name != "xy":
        config = config.with_(routing=make_routing(routing_name))
    process = None if process_name == "bernoulli" else make_process(process_name)
    traffic = SyntheticTraffic(mix, rate, seed=7, process=process)
    return Simulator(config, traffic)


def _run(observe, **kwargs):
    sim = _simulator(**kwargs)
    obs = None
    if observe:
        obs = Observer(trace=True, sample=16, profile=True).attach(sim)
    stats = sim.run_experiment(**FAST)
    counters = aggregate(sim.network.router_stats).as_dict()
    if obs is not None:
        obs.detach()
    return stats, counters, obs


class TestObservedEqualsBare:
    @pytest.mark.parametrize("routing_name", ["xy", "o1turn"])
    @pytest.mark.parametrize("process_name", ["bernoulli", "onoff"])
    def test_observed_equals_bare(self, process_name, routing_name):
        kwargs = dict(process_name=process_name, routing_name=routing_name)
        bare, bare_counters, _ = _run(False, **kwargs)
        seen, seen_counters, obs = _run(True, **kwargs)
        assert canonical(seen) == canonical(bare)
        assert seen_counters == bare_counters
        assert obs.tracer.recorded > 0  # the probes really fired

    def test_multicast_mix_with_tracing(self):
        bare, bare_counters, _ = _run(False, mix=MIXED_TRAFFIC, rate=0.06)
        seen, seen_counters, _ = _run(True, mix=MIXED_TRAFFIC, rate=0.06)
        assert canonical(seen) == canonical(bare)
        assert seen_counters == bare_counters


class TestAttachDetach:
    def test_detach_restores_every_probe_slot(self):
        sim = _simulator()
        obs = Observer(trace=True, sample=16, profile=True).attach(sim)
        obs.detach()
        net = sim.network
        assert sim.obs is None
        assert all(r.probe is None for r in net.routers)
        assert all(nic.probe is None for nic in net.nics)
        assert all(
            vc.probe is None
            for r in net.routers for ip in r.in_ports for vc in ip.vcs
        )
        assert all(ch.probe is None for _key, ch in net.flit_links())

    def test_double_attach_rejected(self):
        sim = _simulator()
        obs = Observer(trace=True).attach(sim)
        with pytest.raises(RuntimeError):
            Observer(trace=True).attach(sim)
        with pytest.raises(RuntimeError):
            obs.attach(_simulator())
        obs.detach()
        Observer(trace=True).attach(sim)  # reattachable after detach

    def test_observer_with_nothing_enabled_rejected(self):
        with pytest.raises(ValueError):
            Observer(trace=False, sample=None, profile=False)

    def test_tiny_ring_drops_oldest_but_stats_unchanged(self):
        bare, _, _ = _run(False)
        sim = _simulator()
        obs = Observer(trace=True, capacity=64).attach(sim)
        stats = sim.run_experiment(**FAST)
        obs.detach()
        assert canonical(stats) == canonical(bare)
        assert obs.tracer.dropped > 0
        assert len(obs.tracer) == 64
