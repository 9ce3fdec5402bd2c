"""Typed event tracing with a bounded ring buffer.

Every probe site in the simulator reduces to one flat record::

    (cycle, kind, node, pid, seq, vc, extra)

where ``kind`` is one of :data:`EVENT_KINDS`, ``node`` is the router or
NIC the event happened at (for ``link`` events, the *upstream* router),
``pid``/``seq`` identify the flit (``None`` for component-level events
like a fault firing) and ``extra`` carries the kind-specific payload listed
in :data:`EXTRA_FIELD`.  Records are plain tuples of ints/strings so
recording is a single ``deque.append`` and the trace is deterministic:
no object ids, no wall-clock timestamps, nothing that varies from run
to run of the same seed.

The buffer is a bounded ring (``collections.deque(maxlen=...)``): when
full, the *oldest* events are dropped and counted in :attr:`Tracer.
dropped`, so a long run keeps its most recent window instead of
growing without bound.  Export helpers live in :mod:`repro.obs.export`.
"""

from __future__ import annotations

from collections import deque

#: The event vocabulary (DESIGN.md §7).  One entry per probe site.
EVENT_KINDS = (
    "inject",     # NIC VC-allocated a flit; link traversal is next cycle
    "route",      # router derived the flit's output-port set on arrival
    "vc_alloc",   # a downstream VC was allocated for a granted branch
    "sa_grant",   # mSA-II scheduled a crossbar traversal (bypass/buffer)
    "link",       # flit entered a router-to-router link
    "eject",      # NIC sank the flit
    "buf_write",  # flit written into an input-VC buffer
    "buf_read",   # flit popped from an input-VC buffer
    "drop",       # fault engine discarded a flit (repro.noc.faults)
    "retransmit", # recovery stack re-injected a packet
    "fault",      # a scheduled hard fault fired (link/router death)
)

#: What the ``extra`` slot of each record holds.
EXTRA_FIELD = {
    "inject": "node",        # destination-bearing NIC == node; extra unused
    "route": "ports",        # sorted tuple of granted-output-port numbers
    "vc_alloc": "port",      # output port whose downstream VC was taken
    "sa_grant": "path",      # "bypass" (lookahead pass) or "buffer"
    "link": "dst",           # downstream router of the link
    "eject": None,
    "buf_write": "occupancy",  # buffer depth after the write
    "buf_read": "occupancy",   # buffer depth after the read
    "drop": "reason",      # unreachable/corrupt/dead-link/squash/eject/...
    "retransmit": "mid",   # message whose packet was re-injected
    "fault": "detail",     # "link-dead:a-b" or "router-dead"
}

DEFAULT_CAPACITY = 65_536


class Tracer:
    """Bounded ring buffer of typed simulation events."""

    def __init__(self, capacity=DEFAULT_CAPACITY):
        if capacity < 1:
            raise ValueError("tracer capacity must be at least one event")
        self.capacity = capacity
        self.events = deque(maxlen=capacity)
        #: events ever recorded (monotonic; ``recorded - len(events)``
        #: of them were dropped by the ring)
        self.recorded = 0

    # The hot path: one bound-method call + one append per event.
    def record(self, cycle, kind, node, pid=None, seq=None, vc=None, extra=None):
        self.events.append((cycle, kind, node, pid, seq, vc, extra))
        self.recorded += 1

    @property
    def dropped(self):
        """Events pushed out of the ring by newer ones."""
        return self.recorded - len(self.events)

    def counts(self):
        """Events currently buffered, by kind."""
        by_kind = dict.fromkeys(EVENT_KINDS, 0)
        for event in self.events:
            by_kind[event[1]] += 1
        return by_kind

    def clear(self):
        self.events.clear()
        self.recorded = 0

    def __len__(self):
        return len(self.events)
