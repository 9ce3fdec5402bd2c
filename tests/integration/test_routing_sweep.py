"""Routing-algorithm sweeps, end to end.

Covers the acceptance criteria of the routing subsystem:

* conservation — every injected message ejects exactly once at its
  destination (no drops, no duplicates) for every algorithm x pattern
  combination on 4x4 and 8x8 meshes;
* byte-compatibility — the XY default reproduces the pre-routing
  golden WindowStats and cache keys;
* the headline physics — with VC provisioning that does not bind
  (:func:`repro.noc.config.routed_vc_config`), O1TURN saturates
  transpose far above XY's 1/3 wall, and the measured saturation
  ordering matches the per-algorithm bounds of
  :mod:`repro.analysis.pattern_limits` (which invert XY's ordering:
  o1turn-transpose 2/3 > o1turn-tornado 1/2, vs xy 1/3 < 1/2);
* every algorithm runs end to end through ``python -m repro sweep
  --routing ...``.
"""

import hashlib
import json

import pytest

from repro.analysis.pattern_limits import pattern_saturation_rate
from repro.analysis.saturation import find_saturation
from repro.core.presets import proposed_network
from repro.engine import cli
from repro.engine.jobspec import JobSpec
from repro.noc.config import routed_vc_config
from repro.noc.routing import make_routing
from repro.noc.simulator import Simulator
from repro.traffic.generators import BernoulliTraffic
from repro.traffic.mix import UNIFORM_UNICAST
from repro.traffic.patterns import HotspotPattern, make_pattern

ALGORITHMS = ("xy", "yx", "o1turn", "valiant")


def pattern_for(name, k):
    if name == "uniform":
        return None
    if name == "hotspot":
        return HotspotPattern((0, k + 1), 0.5)
    return make_pattern(name)


class TestConservation:
    """Inject under load, drain fully, account for every flit."""

    @pytest.mark.parametrize("k", (4, 8))
    @pytest.mark.parametrize(
        "pattern", ("uniform", "transpose", "tornado", "hotspot")
    )
    @pytest.mark.parametrize("routing", ALGORITHMS)
    def test_every_message_ejects_exactly_once(self, routing, pattern, k):
        cfg = proposed_network(k=k, routing=make_routing(routing))
        traffic = BernoulliTraffic(
            UNIFORM_UNICAST, 0.15, seed=7, pattern=pattern_for(pattern, k)
        )
        sim = Simulator(cfg, traffic)
        sim.run(150)
        net = sim.network
        for nic in net.nics:
            nic.source = None
        for _ in range(4000):
            if net.idle():
                break
            sim.step()
        assert net.idle(), f"{routing}/{pattern} {k}x{k} failed to drain"
        messages = net.messages
        assert messages, "no traffic was generated"
        assert all(m.complete for m in messages)
        # UNIFORM_UNICAST is single-flit unicast: one ejection per
        # message, so any duplicate or drop breaks this equality
        ejected = sum(s.ejected_flits for s in net.nic_stats)
        assert ejected == len(messages)


class TestPinnedRouting:
    """Golden SHA-256 digests of each algorithm's canonical WindowStats
    on transpose, the pattern where the four routes differ most."""

    FAST = dict(warmup=100, measure=300, drain=400)

    @pytest.mark.parametrize(
        "routing,digest",
        [
            ("xy",
             "a6fafdfcc4015237b8aa05372f49208fdc10385211c12098b972c8fe1c34a89e"),
            ("yx",
             "23d4a19aa68ebefbafc77b975137e777fbe841173d5fc464b64479a88d5ad576"),
            ("o1turn",
             "a878f1f9bea7a30ab93d013861503bce7ec6912b9f238f571cf749a0be9deabc"),
            ("valiant",
             "3a9a69be474924e9a73bfba772d1fbc2e099a844711049eb4d63f56b0dde067f"),
        ],
    )
    def test_transpose_window_stats(self, routing, digest):
        traffic = BernoulliTraffic(
            UNIFORM_UNICAST, 0.2, seed=7, pattern=make_pattern("transpose")
        )
        sim = Simulator(proposed_network(routing=make_routing(routing)), traffic)
        stats = sim.run_experiment(**self.FAST).to_dict()
        blob = json.dumps(stats, sort_keys=True).encode()
        assert hashlib.sha256(blob).hexdigest() == digest


class TestXYByteCompatibility:
    def test_explicit_xy_config_matches_the_golden_run(self):
        from tests.integration.test_pattern_sweep import (
            GOLDEN_FIG5_MIXED_011,
            golden_job,
        )

        default = golden_job()
        explicit = JobSpec(
            config=proposed_network(routing=make_routing("xy")),
            mix=default.mix,
            rate=default.rate,
            seed=default.seed,
            warmup=default.warmup,
            measure=default.measure,
            drain=default.drain,
            name=default.name,
        )
        assert explicit == default
        assert explicit.cache_key == default.cache_key
        assert explicit.run().to_dict() == GOLDEN_FIG5_MIXED_011


class TestO1TurnLiftsThePatternWalls:
    """The integration claim: with non-binding VC provisioning, O1TURN
    saturates transpose above the XY wall, in the order the
    per-algorithm bounds predict."""

    RATES = (0.30, 0.45, 0.60, 0.75)
    WINDOW = dict(seed=7, warmup=200, measure=800, drain=800)

    def sweep(self, routing, pattern):
        cfg = proposed_network(
            vcs=routed_vc_config(), routing=make_routing(routing)
        )
        return [
            JobSpec(
                config=cfg,
                mix=UNIFORM_UNICAST,
                rate=rate,
                pattern=make_pattern(pattern),
                **self.WINDOW,
            ).run()
            for rate in self.RATES
        ]

    def test_measured_walls_follow_the_per_algorithm_bounds(self):
        sat = {
            (routing, pattern): find_saturation(self.sweep(routing, pattern))
            for routing in ("xy", "o1turn")
            for pattern in ("transpose", "tornado")
        }
        bound = {
            (routing, pattern): pattern_saturation_rate(
                UNIFORM_UNICAST, 4, make_pattern(pattern), routing
            )
            for routing in ("xy", "o1turn")
            for pattern in ("transpose", "tornado")
        }
        # the analytic picture: o1turn halves transpose's channel load
        # (disjoint XY/YX hot links) but cannot move tornado's (they
        # coincide), inverting the XY ordering
        assert bound[("xy", "transpose")] == pytest.approx(1 / 3)
        assert bound[("o1turn", "transpose")] == pytest.approx(2 / 3)
        assert bound[("xy", "tornado")] == bound[("o1turn", "tornado")] == (
            pytest.approx(1 / 2)
        )
        # measured: o1turn saturates transpose far above the XY wall...
        assert sat[("xy", "transpose")] == pytest.approx(1 / 3, rel=0.2)
        assert sat[("o1turn", "transpose")] > 1.5 * sat[("xy", "transpose")]
        assert sat[("o1turn", "transpose")] == pytest.approx(2 / 3, rel=0.25)
        # ...leaves tornado at its shared wall...
        assert sat[("o1turn", "tornado")] == pytest.approx(
            sat[("xy", "tornado")], rel=0.2
        )
        # ...and the measured orderings match the analytic ones, which
        # invert between the algorithms
        assert sat[("xy", "transpose")] < sat[("xy", "tornado")]
        assert sat[("o1turn", "tornado")] < sat[("o1turn", "transpose")]

    def test_valiant_is_pattern_independent(self):
        # both adversarial permutations share Valiant's 2x-uniform
        # bound; at a rate above XY's transpose wall both still deliver
        bound_t = pattern_saturation_rate(
            UNIFORM_UNICAST, 4, make_pattern("transpose"), "valiant"
        )
        bound_n = pattern_saturation_rate(
            UNIFORM_UNICAST, 4, make_pattern("tornado"), "valiant"
        )
        assert bound_t == bound_n == pytest.approx(1 / 2)
        lat = {}
        for pattern in ("transpose", "tornado"):
            stats = JobSpec(
                config=proposed_network(
                    vcs=routed_vc_config(), routing=make_routing("valiant")
                ),
                mix=UNIFORM_UNICAST,
                rate=0.3,
                pattern=make_pattern(pattern),
                seed=7,
                warmup=200,
                measure=600,
                drain=1200,
            ).run()
            lat[pattern] = stats.avg_latency
        assert lat["transpose"] == pytest.approx(lat["tornado"], rel=0.25)


class TestCliRoutingSweeps:
    FAST = (
        "--rates",
        "0.05",
        "--warmup",
        "50",
        "--measure",
        "200",
        "--drain",
        "200",
        "--no-cache",
    )

    @pytest.mark.parametrize("name", ALGORITHMS)
    def test_algorithms_run_end_to_end(self, name, capsys):
        rc = cli.main(
            [
                "sweep",
                "--config",
                "proposed",
                "--mix",
                "uniform_unicast",
                "--pattern",
                "transpose",
                "--routing",
                name,
                *self.FAST,
            ]
        )
        assert rc == 0
        captured = capsys.readouterr()
        assert name in captured.out
        assert "executed=1" in captured.err

    def test_unknown_routing_is_an_argparse_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["sweep", "--routing", "zigzag", *self.FAST])
        assert exc.value.code == 2
        assert "--routing" in capsys.readouterr().err

    def test_yx_with_multicast_mix_is_a_clean_cli_error(self, capsys):
        rc = cli.main(
            ["sweep", "--config", "proposed", "--mix", "mixed",
             "--routing", "yx", *self.FAST]
        )
        assert rc == 2
        assert "multicast" in capsys.readouterr().err

    def test_auto_grid_uses_the_routing_aware_ceiling(self, capsys):
        # o1turn doubles the transpose ceiling: the grid top must be
        # 2/3 * headroom, not the XY 1/3 * headroom
        rc = cli.main(
            [
                "sweep",
                "--config",
                "proposed",
                "--mix",
                "uniform_unicast",
                "--pattern",
                "transpose",
                "--routing",
                "o1turn",
                "--points",
                "2",
                "--warmup",
                "50",
                "--measure",
                "100",
                "--drain",
                "100",
                "--no-cache",
            ]
        )
        assert rc == 0
        out = capsys.readouterr().out
        top = 2 / 3 * 1.15
        assert f"{top:.3f}" in out  # 0.767, not the XY 0.383 top

    def test_figure_fig5_accepts_routing(self, capsys):
        rc = cli.main(
            [
                "figure",
                "fig5",
                "--routing",
                "o1turn",
                "--rates",
                "0.02",
                "--warmup",
                "50",
                "--measure",
                "200",
                "--drain",
                "200",
                "--no-cache",
            ]
        )
        assert rc == 0
        assert "fig5" in capsys.readouterr().out
