"""Time-series congestion metrics: capture, analysis and display."""

import pytest

from repro import Simulator, proposed_network
from repro.analysis.pattern_limits import channel_load_map
from repro.obs import Observer
from repro.traffic import SyntheticTraffic
from repro.traffic.mix import UNIFORM_UNICAST
from repro.traffic.patterns import make_pattern


def _observed_run(pattern=None, rate=0.05, interval=32, measure=2000):
    traffic = SyntheticTraffic(
        UNIFORM_UNICAST, rate, seed=7,
        pattern=make_pattern(pattern) if pattern else None,
    )
    sim = Simulator(proposed_network(), traffic)
    obs = Observer(trace=False, sample=interval).attach(sim)
    sim.run_experiment(warmup=200, measure=measure, drain=500)
    obs.detach()
    return sim, obs.sampler


class TestCapture:
    def test_columns_are_numpy_with_consistent_shapes(self):
        sim, sampler = _observed_run(measure=640)
        cols = sampler.columns()
        n = sampler.samples
        assert n > 0
        assert cols["cycle"].shape == (n,)
        assert cols["link_flits"].shape == (n, len(sampler.links))
        assert cols["occupancy"].shape == (n, sim.cfg.num_nodes)
        assert cols["backlog"].shape == (n, sim.cfg.num_nodes)

    def test_summary_has_congestion_figures(self):
        _sim, sampler = _observed_run(measure=640)
        summary = sampler.summary()
        assert summary["samples"] == sampler.samples
        assert 0.0 < summary["max_link_utilization"] <= 1.0
        assert summary["ejected_flits"] > 0


class TestAnalyticAgreement:
    """Measured heatmaps line up with analysis.pattern_limits.

    The sampler keys links ``((x, y), (nx, ny))`` exactly like
    ``channel_load_map``, so for a deterministic pattern under XY the
    busiest *measured* links must be the links the closed-form load map
    predicts — the acceptance check of the observability layer.
    """

    def test_link_keys_match_channel_load_map_keys(self):
        _sim, sampler = _observed_run(pattern="transpose", measure=640)
        k = proposed_network().k
        predicted = set(channel_load_map(make_pattern("transpose"), k))
        assert predicted <= set(sampler.links)

    def test_transpose_hottest_links_match_prediction(self):
        sim, sampler = _observed_run(pattern="transpose")
        loads = channel_load_map(make_pattern("transpose"), sim.cfg.k)
        peak = max(loads.values())
        predicted_hot = {link for link, c in loads.items() if c == peak}
        measured = sampler.hottest_links(len(predicted_hot))
        assert {(src, dst) for _u, src, dst in measured} == predicted_hot

    def test_unused_links_measure_zero(self):
        sim, sampler = _observed_run(pattern="transpose")
        loads = channel_load_map(make_pattern("transpose"), sim.cfg.k)
        util = sampler.link_utilization()
        for link, u in util.items():
            if loads.get(link, 0) == 0:
                assert u == 0.0, f"link {link} off every transpose route"


class TestDisplay:
    def test_heatmap_text_renders_all_directions(self):
        sim, sampler = _observed_run(measure=640)
        text = sampler.heatmap_text(sim.cfg.k)
        for direction in ("east:", "west:", "north:", "south:"):
            assert direction in text
        # boundary cells (no outgoing link) render as ".."
        assert ".." in text
        # one row per y per direction
        assert text.count("y=0") == 4

    def test_heatmap_figure_is_gated_on_matplotlib(self, tmp_path):
        sim, sampler = _observed_run(measure=320)
        path = tmp_path / "heat.png"
        try:
            import matplotlib  # noqa: F401
        except ImportError:
            with pytest.raises(RuntimeError, match="matplotlib"):
                sampler.heatmap_figure(sim.cfg.k, path)
        else:
            sampler.heatmap_figure(sim.cfg.k, path)
            assert path.stat().st_size > 0

    def test_interval_must_be_positive(self):
        from repro.obs.sampler import MetricsSampler

        with pytest.raises(ValueError):
            MetricsSampler(interval=0)
