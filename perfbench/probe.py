"""Host-speed probe: a fixed piece of work timed next to every round.

A shared host changes speed by tens of percent for seconds at a time,
and a round's wall time moves with it.  The probe is frozen benchmark
code that does the two kinds of work the simulators do — Python object
churn (the object loop) and many small numpy passes over a few
thousand elements (the array kernel) — so it slows down with them.
Each round's time is scaled by ``REFERENCE_S`` over the probe time
measured on either side of it: the result is the round's time on a
host whose probe takes ``REFERENCE_S``.  The probe does not change with
the program, so a change to the program shows in full.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

#: probe seconds on the host the benchmark was written on (x86_64 Xeon,
#: 2 vCPU); only sets the scale of the reported times
REFERENCE_S = 0.12

_NODES = 256
_STEPS = 140_000
_ELEMS = 4096
_PASSES = 1200


class _Node:
    __slots__ = ("queue", "next", "count")

    def __init__(self):
        self.queue = []
        self.next = None
        self.count = 0


def _object_churn():
    nodes = [_Node() for _ in range(_NODES)]
    for i, node in enumerate(nodes):
        node.next = nodes[(i * 37 + 1) % _NODES]
    seen = {}
    for t in range(_STEPS):
        node = nodes[t % _NODES]
        node.queue.append((t, node.count))
        if len(node.queue) > 4:
            seen[t & 1023] = node.queue.pop(0)
            node.next.count += 1
    return len(seen)


def _array_passes():
    rng = np.random.default_rng(1)
    occupancy = rng.integers(0, 4, _ELEMS)
    target = rng.integers(0, _ELEMS, _ELEMS)
    total = 0
    for _ in range(_PASSES):
        ready = occupancy > 0
        idx = np.flatnonzero(ready)
        moved = target[idx]
        occupancy[idx] -= 1
        np.add.at(occupancy, moved, 1)
        total += int(np.cumsum(ready)[-1])
    return total


def probe():
    """Seconds one run of the fixed probe work takes right now."""
    t0 = perf_counter()
    _object_churn()
    _array_passes()
    return perf_counter() - t0


def scale(before, after):
    """Factor taking a round timed between probes ``before`` and
    ``after`` to reference-host seconds."""
    return REFERENCE_S / ((before + after) / 2)
