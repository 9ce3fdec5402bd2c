"""Ring-buffer semantics of the event tracer."""

import pytest

from repro.obs.tracer import EVENT_KINDS, EXTRA_FIELD, Tracer


class TestRing:
    def test_records_in_order_below_capacity(self):
        tracer = Tracer(capacity=16)
        for cycle in range(10):
            tracer.record(cycle, "inject", node=cycle % 4)
        assert len(tracer) == 10
        assert tracer.recorded == 10
        assert tracer.dropped == 0
        assert [e[0] for e in tracer.events] == list(range(10))

    def test_wraparound_drops_oldest_first(self):
        tracer = Tracer(capacity=8)
        for cycle in range(20):
            tracer.record(cycle, "link", node=0, extra=1)
        assert len(tracer) == 8
        assert tracer.recorded == 20
        assert tracer.dropped == 12
        # the ring keeps the *most recent* window
        assert [e[0] for e in tracer.events] == list(range(12, 20))

    def test_capacity_one_keeps_only_the_last_event(self):
        tracer = Tracer(capacity=1)
        tracer.record(1, "inject", 3)
        tracer.record(2, "eject", 3)
        assert list(tracer.events) == [(2, "eject", 3, None, None, None, None)]
        assert tracer.dropped == 1

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            Tracer(capacity=0)


class TestBookkeeping:
    def test_counts_reflect_buffered_events_only(self):
        tracer = Tracer(capacity=4)
        for cycle in range(6):
            tracer.record(cycle, "inject", 0)
        tracer.record(6, "eject", 0)
        counts = tracer.counts()
        assert counts["inject"] == 3  # three of six survived the ring
        assert counts["eject"] == 1
        assert sum(counts.values()) == len(tracer) == 4

    def test_clear_resets_everything(self):
        tracer = Tracer(capacity=4)
        tracer.record(0, "inject", 1)
        tracer.clear()
        assert len(tracer) == 0
        assert tracer.recorded == 0
        assert tracer.dropped == 0

    def test_every_kind_has_a_documented_extra(self):
        assert set(EXTRA_FIELD) == set(EVENT_KINDS)
