"""Golden serializations of the JSONL and Chrome trace exporters.

The event fixtures are hand-written records in the tracer's tuple
layout; the expected outputs are pinned byte for byte so an exporter
change that would break downstream consumers (``chrome://tracing``,
Perfetto, ``jq`` pipelines over the JSONL) fails loudly here.
"""

import json

from repro.obs.export import (
    chrome_trace,
    event_dicts,
    write_chrome_trace,
    write_jsonl,
)

#: One flit's life on a 2x2 mesh: injected at NIC 0, routed and granted
#: at router 0, traversed the link to router 1, ejected at NIC 1 — plus
#: a component-level fault record with no flit identity.
EVENTS = [
    (5, "inject", 0, 7, 0, 1, None),
    (6, "route", 0, 7, 0, 1, (2,)),
    (6, "sa_grant", 0, 7, 0, 1, "bypass"),
    (7, "link", 0, 7, 0, 1, 1),
    (8, "eject", 1, 7, 0, 1, None),
    (6, "fault", 1, None, None, None, "router-dead"),
]

GOLDEN_JSONL = [
    '{"cycle": 5, "extra": null, "kind": "inject", "node": 0, "pid": 7, '
    '"seq": 0, "vc": 1}',
    '{"cycle": 6, "extra": [2], "kind": "route", "node": 0, "pid": 7, '
    '"seq": 0, "vc": 1}',
    '{"cycle": 6, "extra": "bypass", "kind": "sa_grant", "node": 0, '
    '"pid": 7, "seq": 0, "vc": 1}',
    '{"cycle": 7, "extra": 1, "kind": "link", "node": 0, "pid": 7, '
    '"seq": 0, "vc": 1}',
    '{"cycle": 8, "extra": null, "kind": "eject", "node": 1, "pid": 7, '
    '"seq": 0, "vc": 1}',
    '{"cycle": 6, "extra": "router-dead", "kind": "fault", "node": 1, '
    '"pid": null, "seq": null, "vc": null}',
]


class TestJsonl:
    def test_event_dicts_keep_order_and_listify_tuples(self):
        dicts = event_dicts(EVENTS)
        assert [d["kind"] for d in dicts] == [e[1] for e in EVENTS]
        assert dicts[1]["extra"] == [2]

    def test_golden_lines(self, tmp_path):
        path = tmp_path / "events.jsonl"
        assert write_jsonl(EVENTS, path) == len(EVENTS)
        assert path.read_text().splitlines() == GOLDEN_JSONL


class TestChromeTrace:
    def test_golden_structure(self):
        trace = chrome_trace(EVENTS, k=2)
        assert trace["displayTimeUnit"] == "ms"
        events = trace["traceEvents"]
        # four tracks: router 0, router 1 (fault), NIC 0, NIC 1
        meta = [e for e in events if e["ph"] == "M"]
        assert {m["args"]["name"] for m in meta} == {
            "router 0 (0,0)",
            "router 1 (1,0)",
            "nic 0 (0,0)",
            "nic 1 (1,0)",
        }
        slices = [e for e in events if e["ph"] == "X"]
        assert len(slices) == len(EVENTS)
        assert all(e["dur"] == 1 for e in slices)

    def test_nic_tracks_are_offset_from_router_tracks(self):
        events = chrome_trace(EVENTS, k=2)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["inject p7.0"]["pid"] == 1000  # NIC 0
        assert by_name["eject p7.0"]["pid"] == 1001   # NIC 1
        assert by_name["route p7.0"]["pid"] == 0      # router 0
        assert by_name["fault"]["pid"] == 1           # router 1, tid 0
        assert by_name["fault"]["tid"] == 0

    def test_extras_use_kind_specific_arg_names(self):
        events = chrome_trace(EVENTS, k=2)["traceEvents"]
        by_name = {e["name"]: e for e in events if e["ph"] == "X"}
        assert by_name["route p7.0"]["args"] == {"ports": [2], "vc": 1}
        assert by_name["sa_grant p7.0"]["args"] == {"path": "bypass", "vc": 1}
        assert by_name["link p7.0"]["args"] == {"dst": 1, "vc": 1}

    def test_written_file_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(EVENTS, 2, path)
        data = json.loads(path.read_text())
        assert len(data["traceEvents"]) == count
