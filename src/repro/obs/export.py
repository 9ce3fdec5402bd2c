"""Trace exporters: JSONL and Chrome trace-event JSON.

Both exporters are pure functions of the tracer's ring buffer, so the
same capture can be written in either format (or both).  The Chrome
format targets ``chrome://tracing`` and Perfetto: each router (and each
NIC) becomes a *process* track named after its mesh coordinates, events
become 1-cycle complete slices (``ph: "X"``) named after the flit they
concern, and timestamps are simulation cycles, so a flit's life —
inject, per-hop route/allocation/traversal, eject — reads left to
right across the router tracks it visited.
"""

from __future__ import annotations

import json

from repro.noc.routing import coords

#: JSONL column names, matching the record layout of repro.obs.tracer.
FIELDS = ("cycle", "kind", "node", "pid", "seq", "vc", "extra")


def event_dicts(events):
    """The ring buffer as JSON-safe dicts (one per event, in order)."""
    out = []
    for record in events:
        entry = dict(zip(FIELDS, record))
        extra = entry["extra"]
        if isinstance(extra, tuple):
            entry["extra"] = list(extra)
        out.append(entry)
    return out


def write_jsonl(events, path):
    """Write one JSON object per line; returns the number written."""
    dicts = event_dicts(events)
    with open(path, "w") as fh:
        for entry in dicts:
            fh.write(json.dumps(entry, sort_keys=True))
            fh.write("\n")
    return len(dicts)


def _track_name(node, k, nic):
    x, y = coords(node, k)
    return f"{'nic' if nic else 'router'} {node} ({x},{y})"


def chrome_trace(events, k):
    """The ring buffer as a Chrome trace-event JSON object.

    Layout: one *process* per router (pid = node) and one per NIC
    (pid = 1000 + node, so NIC tracks sort after router tracks); the
    *thread* of a slice is the flit's VC (component-level events such
    as ``fault`` sit on thread 0).  ``ts`` is the simulation cycle and
    every event is a 1-cycle ``"X"`` slice, which chrome://tracing and
    Perfetto render without any further options.
    """
    trace = []
    seen_tracks = set()
    nic_kinds = ("inject", "eject")
    for cycle, kind, node, pid, seq, vc, extra in events:
        nic = kind in nic_kinds
        track = 1000 + node if nic else node
        if track not in seen_tracks:
            seen_tracks.add(track)
            trace.append(
                {
                    "ph": "M",
                    "name": "process_name",
                    "pid": track,
                    "tid": 0,
                    "args": {"name": _track_name(node, k, nic)},
                }
            )
        if pid is None:
            name = kind
        else:
            name = f"{kind} p{pid}.{seq}"
        args = {}
        if extra is not None:
            field = "extra" if kind not in _EXTRA_NAMES else _EXTRA_NAMES[kind]
            args[field] = list(extra) if isinstance(extra, tuple) else extra
        if vc is not None:
            args["vc"] = vc
        trace.append(
            {
                "ph": "X",
                "name": name,
                "cat": kind,
                "ts": cycle,
                "dur": 1,
                "pid": track,
                "tid": vc if vc is not None else 0,
                "args": args,
            }
        )
    return {"traceEvents": trace, "displayTimeUnit": "ms"}


_EXTRA_NAMES = {
    "route": "ports",
    "vc_alloc": "port",
    "sa_grant": "path",
    "link": "dst",
    "buf_write": "occupancy",
    "buf_read": "occupancy",
}


def write_chrome_trace(events, k, path):
    """Write the Chrome trace JSON; returns the number of trace events."""
    trace = chrome_trace(events, k)
    with open(path, "w") as fh:
        json.dump(trace, fh, sort_keys=True)
        fh.write("\n")
    return len(trace["traceEvents"])
