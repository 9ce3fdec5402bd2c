"""Fault injection, recovery and the zero-overhead-off contract."""

import json
import math

import pytest

from repro import proposed_network
from repro.engine.jobspec import JobSpec
from repro.noc.faults import (
    BitErrorFaults,
    LinkFaults,
    RandomFaults,
    SwingFaults,
    fault_from_dict,
    fault_names,
    make_fault,
)
from repro.noc.routing import make_routing
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST
from repro.traffic.processes import OnOffProcess


class TestRegistry:
    def test_all_models_registered(self):
        assert fault_names() == ["biterror", "links", "random", "swing"]

    def test_make_fault_unknown_name(self):
        with pytest.raises(ValueError, match="unknown fault model"):
            make_fault("cosmic-rays")

    @pytest.mark.parametrize(
        "model",
        [
            BitErrorFaults(rate=2e-3),
            SwingFaults(swing_mv=200.0, sigma_mv=30.0),
            LinkFaults(links=((1, 2, 500),), routers=((5, 900),), rate=1e-4),
            RandomFaults(count=3, at=250, rate=1e-3),
        ],
        ids=lambda m: m.name,
    )
    def test_round_trip_through_json(self, model):
        # JSON turns the tuples into lists; fault_from_dict restores them
        data = json.loads(json.dumps(model.to_dict()))
        assert fault_from_dict(data) == model

    def test_fault_from_dict_rejects_garbage(self):
        with pytest.raises(ValueError, match="not a serialized fault model"):
            fault_from_dict({"rate": 0.1})


class TestValidation:
    def test_bit_error_rate_must_be_probability(self):
        with pytest.raises(ValueError, match="probability"):
            BitErrorFaults(rate=1.5).validate(proposed_network())

    def test_nan_swing_is_rejected(self):
        # NaN compares false both ways, so a bare ``<= 0`` test let it
        # through as a silently fault-free run
        nan = float("nan")
        with pytest.raises(ValueError, match="swing"):
            SwingFaults(swing_mv=nan).validate(proposed_network())
        with pytest.raises(ValueError, match="sigma"):
            SwingFaults(sigma_mv=nan).validate(proposed_network())

    def test_nan_bit_error_rate_is_rejected(self):
        nan = float("nan")
        with pytest.raises(ValueError, match="probability"):
            BitErrorFaults(rate=nan).validate(proposed_network())
        with pytest.raises(ValueError, match="probability"):
            RandomFaults(rate=nan).validate(proposed_network())

    def test_link_death_must_be_a_mesh_link(self):
        # nodes 0 and 5 are diagonal neighbours in the k=4 mesh
        with pytest.raises(ValueError, match="not a mesh link"):
            LinkFaults(links=((0, 5, 0),)).validate(proposed_network())

    def test_random_count_bounded_by_mesh_links(self):
        with pytest.raises(ValueError, match="undirected links"):
            RandomFaults(count=999).validate(proposed_network())

    def test_recovery_parameters_validated(self):
        with pytest.raises(ValueError, match="retry_timeout"):
            BitErrorFaults(retry_timeout=0).validate(proposed_network())
        with pytest.raises(ValueError, match="backoff"):
            BitErrorFaults(backoff_base=16, backoff_cap=8).validate(
                proposed_network()
            )


class TestModels:
    def test_swing_error_rate_monotone_in_swing(self):
        cfg = proposed_network()
        low = SwingFaults(swing_mv=180.0).error_rate(cfg)
        high = SwingFaults(swing_mv=340.0).error_rate(cfg)
        assert 0.0 < high < low < 1.0

    def test_random_fault_sets_are_nested_across_counts(self):
        # the monotone reliability curve depends on count=2's dead
        # links being a subset of count=6's for a fixed seed
        cfg = proposed_network()
        small, _ = RandomFaults(count=2).hard_schedule(cfg, seed=7)
        large, _ = RandomFaults(count=6).hard_schedule(cfg, seed=7)
        assert set(small) <= set(large)
        assert len(large) == 6

    def test_random_count_zero_schedules_nothing(self):
        assert RandomFaults(count=0).hard_schedule(proposed_network(), 7) == (
            (),
            (),
        )
        assert not RandomFaults(count=0).is_hard

    def test_hard_flags(self):
        assert not BitErrorFaults().is_hard
        assert not SwingFaults().is_hard
        assert not LinkFaults().is_hard
        assert LinkFaults(links=((1, 2, 0),)).is_hard
        assert LinkFaults(routers=((5, 0),)).is_hard
        assert RandomFaults(count=1).is_hard


def _job(faults, mix=UNIFORM_UNICAST, rate=0.05, **overrides):
    kwargs = dict(
        config=proposed_network(),
        mix=mix,
        rate=rate,
        seed=7,
        warmup=100,
        measure=500,
        drain=1200,
        faults=faults,
    )
    kwargs.update(overrides)
    return JobSpec(**kwargs)


class TestRecovery:
    def test_soft_faults_recovered_by_retransmission(self):
        stats = _job(BitErrorFaults(rate=0.01), mix=MIXED_TRAFFIC).run()
        assert stats.dropped_flits > 0
        assert stats.retransmissions > 0
        assert stats.stop_reason == "completed"
        assert 0.9 < stats.delivered_fraction <= 1.0

    def test_link_death_rerouted_without_loss(self):
        stats = _job(LinkFaults(links=((5, 6, 300),))).run()
        assert stats.stop_reason == "completed"
        assert stats.delivered_fraction == 1.0
        assert stats.messages_measured > 0

    def test_router_death_partitions_the_run(self):
        stats = _job(LinkFaults(routers=((5, 300),))).run()
        assert stats.stop_reason == "partitioned"
        assert stats.delivered_fraction < 1.0

    def test_hard_faults_reject_multicast_mixes(self):
        with pytest.raises(ValueError, match="multicast"):
            _job(LinkFaults(links=((5, 6, 300),)), mix=MIXED_TRAFFIC).run()


class TestZeroOverheadOff:
    """``faults=None`` and a zero-rate soft model must agree exactly.

    A fault engine with nothing to do may not perturb the simulation:
    the reliability layer's "off" position is byte-identical to the
    pre-fault simulator across injection processes and routing
    algorithms (DESIGN.md §7).
    """

    @pytest.mark.parametrize("routing", ["xy", "o1turn"])
    @pytest.mark.parametrize(
        "injection",
        [None, OnOffProcess()],
        ids=["bernoulli", "onoff"],
    )
    def test_zero_rate_faults_are_byte_identical(self, routing, injection):
        config = proposed_network(routing=make_routing(routing))
        base = _job(
            None, mix=MIXED_TRAFFIC, config=config, injection=injection
        ).run()
        gated = _job(
            BitErrorFaults(rate=0.0),
            mix=MIXED_TRAFFIC,
            config=config,
            injection=injection,
        ).run()
        assert gated == base
        assert not math.isnan(base.avg_latency)
