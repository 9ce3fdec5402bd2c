"""Wall-clock phase timing for the simulator's cycle loop.

With an observer attached, the cycle loop brackets each stage group with
:meth:`PhaseProfiler.mark` calls, so the profile answers the question
the batched-kernel front needs answered: *where does the
object-per-flit loop actually spend its time* — draining arrivals,
stepping NICs, crossbar traversals, or the two allocation stages.

Timing uses :func:`time.perf_counter` and therefore varies run to run;
it lives strictly on the profiler object and never feeds back into the
simulation, which stays deterministic (the byte-identity tests run with
a profiler attached).
"""

from __future__ import annotations

from time import perf_counter

#: Stage groups of one simulator cycle, in execution order (DESIGN.md).
PHASES = ("receive", "nic", "st", "msa2", "msa1")


class PhaseProfiler:
    """Accumulates wall-clock seconds per cycle-loop stage group."""

    def __init__(self):
        self.phase_seconds = dict.fromkeys(PHASES, 0.0)
        self.cycles = 0
        self._last = 0.0
        self._wall_start = perf_counter()

    def begin_cycle(self):
        self._last = perf_counter()

    def mark(self, phase):
        """Attribute the time since the previous mark to ``phase``."""
        now = perf_counter()
        self.phase_seconds[phase] += now - self._last
        self._last = now

    def end_cycle(self):
        self.cycles += 1

    @property
    def wall_seconds(self):
        return perf_counter() - self._wall_start

    def report(self, events=0):
        """Run-telemetry dict: throughput plus the phase breakdown."""
        wall = self.wall_seconds
        in_phases = sum(self.phase_seconds.values())
        out = {
            "cycles": self.cycles,
            "wall_seconds": wall,
            "cycles_per_second": self.cycles / wall if wall > 0 else 0.0,
            "events": events,
            "events_per_cycle": events / self.cycles if self.cycles else 0.0,
            "phase_seconds": dict(self.phase_seconds),
            "phase_share": {
                name: (secs / in_phases if in_phases > 0 else 0.0)
                for name, secs in self.phase_seconds.items()
            },
        }
        return out
