"""Fast self-tests of the benchmark's own code.

Run with ``PYTHONPATH=src python -m pytest perfbench -q``.
"""

from __future__ import annotations

import json

import pytest

from perfbench import inputs
from perfbench.ledger import Instrumentation
from perfbench.spans import (
    Span,
    SpanRecorder,
    children_index,
    chrome_trace,
    covered,
    self_time,
)
from perfbench.stats import percentile, reported, stats_digest, supported


def _span(span_id, start, end, parent=None):
    span = Span(span_id, parent, f"s{span_id}", None, start, 0)
    span.end = end
    return span


def _tiny_job(seed=3, rate=0.05):
    from repro.core.presets import proposed_network
    from repro.engine import JobSpec
    from repro.traffic.mix import MIXED_TRAFFIC

    return JobSpec(config=proposed_network(), mix=MIXED_TRAFFIC, rate=rate,
                   seed=seed, warmup=10, measure=40, drain=40)


# ------------------------------------------------------------ spans


def test_self_time_subtracts_the_union_of_children():
    parent = _span(1, 0.0, 10.0)
    kids = [_span(2, 1.0, 3.0, 1), _span(3, 2.0, 5.0, 1),
            _span(4, 8.0, 12.0, 1)]
    # children cover [1, 5] and [8, 10] of the parent: 4 + 2 seconds
    assert self_time(parent, kids) == pytest.approx(4.0)
    assert self_time(parent, []) == pytest.approx(10.0)
    assert covered([(0, 1), (0.5, 2), (3, 4)]) == pytest.approx(3.0)


def test_nested_self_times_add_up_to_the_root():
    root = _span(1, 0.0, 10.0)
    mid = _span(2, 2.0, 8.0, 1)
    leaf = _span(3, 3.0, 4.0, 2)
    spans = [root, mid, leaf]
    index = children_index(spans)
    total = sum(self_time(s, index.get(s.span_id, [])) for s in spans)
    assert total == pytest.approx(root.duration)
    assert self_time(mid, index[2]) == pytest.approx(5.0)


def test_recorder_tracks_parents_and_inherits_groups():
    rec = SpanRecorder()
    with rec.span("outer", "sweep-1") as outer:
        with rec.span("inner") as inner:
            pass
    assert inner.parent == outer.span_id
    assert inner.group == "sweep-1"
    assert outer.parent is None
    events = chrome_trace(rec.spans)["traceEvents"]
    assert [e["name"] for e in events] == ["outer", "inner"]
    assert all(e["ph"] == "X" and e["dur"] >= 0 for e in events)
    json.dumps(events)


# ------------------------------------------------------- percentiles


def test_percentile_needs_ten_samples_beyond_it():
    assert supported(100, 90) and not supported(99, 90)
    assert supported(1000, 99) and not supported(999, 99)
    assert supported(20, 50) and not supported(19, 50)
    # a tail percentile without ten samples beyond it falls back
    assert reported(list(range(1000)), 99) == (99, 989)
    assert reported(list(range(100)), 99) == (90, 89)
    assert reported(list(range(50)), 99) == (50, 24)
    assert reported(list(range(5)), 90) == (50, 2)
    assert percentile([5, 1, 3], 50) == 3
    assert percentile([], 99) == 0.0


# ------------------------------------------------------------- probe


def test_probe_scale_maps_reference_speed_to_one():
    from perfbench.probe import REFERENCE_S, probe, scale

    assert scale(REFERENCE_S, REFERENCE_S) == pytest.approx(1.0)
    # a host twice as slow on both sides halves the round's time
    assert scale(2 * REFERENCE_S, 2 * REFERENCE_S) == pytest.approx(0.5)
    assert scale(REFERENCE_S, 3 * REFERENCE_S) == pytest.approx(0.5)
    assert probe() > 0


# ------------------------------------------------------------ digest


def test_digest_is_stable_across_two_tiny_runs():
    first = stats_digest([_tiny_job().run(), _tiny_job(rate=0.1).run()])
    again = stats_digest([_tiny_job().run(), _tiny_job(rate=0.1).run()])
    assert first == again
    assert stats_digest([_tiny_job(seed=4).run()]) != \
        stats_digest([_tiny_job().run()])


def test_traced_run_matches_plain_and_uninstall_restores():
    from repro.engine.jobspec import JobSpec

    plain = stats_digest([_tiny_job().run()])
    original = JobSpec.__dict__["run"]
    rec = SpanRecorder()
    instr = Instrumentation(rec).install()
    try:
        traced = stats_digest([_tiny_job().run()])
    finally:
        instr.uninstall()
    assert traced == plain
    assert JobSpec.__dict__["run"] is original
    names = {s.name for s in rec.spans}
    assert {"engine.job", "noc.construct", "noc.object.experiment",
            "noc.object.run", "noc.summarize"} <= names


# ------------------------------------------------------------ inputs


def _plain(value):
    if isinstance(value, dict):
        return {k: _plain(v) for k, v in value.items()}
    if isinstance(value, list):
        return [_plain(v) for v in value]
    return value.to_dict() if hasattr(value, "to_dict") else value


@pytest.mark.parametrize("workload", sorted(inputs.INPUTS))
def test_inputs_are_a_pure_function_of_the_seed(workload):
    make = inputs.INPUTS[workload]
    assert _plain(make(11)) == _plain(make(11))
    assert json.dumps(_plain(make(11)), sort_keys=True)


def test_seeds_change_the_generated_work():
    assert inputs.mesh16_inputs(1)["base_seed"] != \
        inputs.mesh16_inputs(2)["base_seed"]
    one, two = inputs.service_inputs(1), inputs.service_inputs(2)
    assert [m.seed for m in one["misses"]] != [m.seed for m in two["misses"]]
    assert len({m.seed for m in one["misses"]}) == len(one["misses"])
    hot_seeds = {j.seed for j in one["hot"]}
    assert not hot_seeds & {m.seed for m in one["misses"]}
