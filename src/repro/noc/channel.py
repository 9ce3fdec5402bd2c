"""Synchronous wires between network components.

Everything that crosses a clocked boundary in the chip — flit links,
credit/free-VC return wires and lookahead signals — is modelled as a
:class:`Channel` with an integer delay in cycles.  A payload sent
during cycle ``t`` becomes visible to the receiver at ``t + delay``.
Because all cross-component communication goes through channels, the
per-cycle evaluation order of routers cannot leak combinational state
across the network, which keeps the simulation deterministic and
faithful to synchronous hardware.
"""

from __future__ import annotations

from collections import deque

#: Shared result of draining an empty channel.  Callers only iterate or
#: compare it; they must never mutate it.
_NO_PAYLOADS = []


class Channel:
    """A fixed-delay, in-order pipe carrying at most one payload per cycle."""

    __slots__ = (
        "delay", "name", "probe", "cid", "_queue", "_last_send_cycle"
    )

    def __init__(self, delay=1, name=""):
        if delay < 1:
            raise ValueError("channel delay must be at least one cycle")
        self.delay = delay
        self.name = name
        #: observability hook (DESIGN.md §7): called as ``probe(channel,
        #: cycle, payload)`` on every accepted send.  ``None`` (the
        #: default) keeps the fast path at a single identity test; an
        #: attached observer sets it on flit links only, together with
        #: ``cid`` (its index into the observer's link table).
        self.probe = None
        self.cid = None
        self._queue = deque()
        self._last_send_cycle = None

    def send(self, cycle, payload):
        """Transmit ``payload`` during ``cycle``; visible at ``cycle+delay``."""
        if self._last_send_cycle == cycle:
            raise RuntimeError(
                f"channel {self.name or id(self)} driven twice in cycle {cycle}"
            )
        self._last_send_cycle = cycle
        self._queue.append((cycle + self.delay, payload))
        if self.probe is not None:
            self.probe(self, cycle, payload)

    def receive(self, cycle):
        """Pop every payload whose arrival cycle is ``<= cycle``."""
        queue = self._queue
        # earliest-arrival fast path: empty/idle wires cost one compare
        if not queue or queue[0][0] > cycle:
            return _NO_PAYLOADS
        out = []
        while queue and queue[0][0] <= cycle:
            out.append(queue.popleft()[1])
        return out

    def peek_arrivals(self, cycle):
        """Payloads that would be delivered at ``cycle`` (non-destructive)."""
        return [p for (when, p) in self._queue if when <= cycle]

    @property
    def in_flight(self):
        return len(self._queue)


class MultiChannel(Channel):
    """A channel allowed to carry several payloads in the same cycle.

    Credit wires are physically separate per-VC signals, so more than
    one credit can return in a cycle; modelling them as one logical
    channel with multi-send keeps the wiring simple.
    """

    __slots__ = ()

    def send(self, cycle, payload):
        self._queue.append((cycle + self.delay, payload))
        # keep FIFO order even with multiple sends per cycle
        if len(self._queue) > 1 and self._queue[-1][0] < self._queue[-2][0]:
            raise RuntimeError("multichannel send cycles went backwards")
