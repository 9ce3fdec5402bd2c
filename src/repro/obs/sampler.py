"""Periodic time-series congestion metrics.

A :class:`MetricsSampler` snapshots the network every ``interval``
cycles into columnar series — the congestion signal the ROADMAP's
adaptive-routing and dashboard fronts consume:

* **per-link utilization** — flits that entered each directed
  router-to-router link since the last sample, as a fraction of the
  link's one-flit-per-cycle capacity.  Links are keyed
  ``((x, y), (nx, ny))`` exactly like
  :func:`repro.analysis.pattern_limits.channel_load_map`, so measured
  heatmaps and analytic channel-load predictions are directly
  comparable;
* **per-router occupancy** — buffered flits across the router's input
  VCs (instantaneous), and **free credits** across its output-port
  trackers;
* **per-NIC backlog** — flits generated but not yet injected;
* **ejections** — network-wide ejected flits since the last sample.

Sampling is read-only: it never touches PRBS streams, arbiter state or
credits, so enabling it cannot perturb the simulation (asserted by the
byte-identity tests).  Capture appends to plain lists; :meth:`columns`
materialises numpy arrays for analysis.
"""

from __future__ import annotations

DEFAULT_INTERVAL = 64


class MetricsSampler:
    """Fixed-interval sampler of link, buffer and queue congestion."""

    def __init__(self, interval=DEFAULT_INTERVAL):
        if interval < 1:
            raise ValueError("sampling interval must be at least one cycle")
        self.interval = interval
        self.links = []  # ((x, y), (nx, ny)) in channel-index order
        self._network = None
        self._link_counts = []
        self._last_ejections = 0
        self._cycles_in_window = 0
        # one python list per column; numpy arrays are built on demand
        self._rows = {
            "cycle": [],
            "ejections": [],
            "link_flits": [],
            "occupancy": [],
            "credits": [],
            "backlog": [],
        }

    # ------------------------------------------------------------ capture

    def bind(self, network, links):
        """Adopt a network's geometry; ``links`` come from
        :meth:`~repro.noc.mesh.MeshNetwork.flit_links`."""
        self._network = network
        self.links = [key for (key, _channel) in links]
        self._link_counts = [0] * len(self.links)
        self._last_ejections = network.ejections
        self._cycles_in_window = 0

    def count_link(self, cid):
        """Probe target: one flit entered link ``cid`` (channel index)."""
        self._link_counts[cid] += 1

    def tick(self, cycle):
        """Advance one cycle; sample when the interval elapses."""
        self._cycles_in_window += 1
        if self._cycles_in_window >= self.interval:
            self._sample(cycle)

    def _sample(self, cycle):
        net = self._network
        rows = self._rows
        rows["cycle"].append(cycle)
        rows["ejections"].append(net.ejections - self._last_ejections)
        self._last_ejections = net.ejections
        rows["link_flits"].append(list(self._link_counts))
        self._link_counts = [0] * len(self.links)
        rows["occupancy"].append([r.occupancy() for r in net.routers])
        rows["credits"].append(
            [
                sum(sum(op.tracker.credits) for op in r.out_ports if op.connected)
                for r in net.routers
            ]
        )
        rows["backlog"].append([nic.backlog() for nic in net.nics])
        self._cycles_in_window = 0

    # ----------------------------------------------------------- analysis

    @property
    def samples(self):
        return len(self._rows["cycle"])

    def columns(self):
        """The captured series as numpy arrays (1-D per scalar column,
        ``(samples, width)`` for the per-link / per-component ones)."""
        import numpy as np

        return {name: np.asarray(col) for name, col in self._rows.items()}

    def link_utilization(self):
        """Mean flits/cycle per directed link over the whole capture,
        as ``{((x, y), (nx, ny)): utilization}``."""
        cycles = self.samples * self.interval
        if cycles == 0:
            return {key: 0.0 for key in self.links}
        totals = [0] * len(self.links)
        for row in self._rows["link_flits"]:
            for i, count in enumerate(row):
                totals[i] += count
        return {
            key: totals[i] / cycles for i, key in enumerate(self.links)
        }

    def hottest_links(self, n=8):
        """The ``n`` busiest directed links, ``(utilization, src, dst)``
        sorted hottest first (ties broken by link coordinates so the
        order is deterministic)."""
        util = self.link_utilization()
        ranked = sorted(
            ((u, src, dst) for (src, dst), u in util.items()),
            key=lambda t: (-t[0], t[1], t[2]),
        )
        return ranked[:n]

    def summary(self):
        """Aggregate congestion figures for quick printing."""
        cols = self.columns()
        out = {"samples": self.samples, "interval": self.interval}
        if self.samples == 0:
            return out
        util = self.link_utilization()
        out["max_link_utilization"] = max(util.values(), default=0.0)
        out["mean_link_utilization"] = (
            sum(util.values()) / len(util) if util else 0.0
        )
        out["peak_occupancy"] = int(cols["occupancy"].max(initial=0))
        out["peak_backlog"] = int(cols["backlog"].max(initial=0))
        out["ejected_flits"] = int(cols["ejections"].sum())
        return out

    # ------------------------------------------------------------ display

    def heatmap_text(self, k):
        """Per-direction link-utilization grids, rendered as text.

        One ``k x k`` grid per direction (east/west/north/south); each
        cell is the utilization of the link *leaving* router ``(x, y)``
        in that direction, in percent of capacity (``..`` where no such
        link exists).  Rows print ``y`` descending so the mesh reads
        like the paper's figures (origin bottom-left).
        """
        util = self.link_utilization()
        by_dir = {"east": {}, "west": {}, "north": {}, "south": {}}
        for ((x, y), (nx, ny)), u in util.items():
            if nx == x + 1:
                by_dir["east"][(x, y)] = u
            elif nx == x - 1:
                by_dir["west"][(x, y)] = u
            elif ny == y + 1:
                by_dir["north"][(x, y)] = u
            else:
                by_dir["south"][(x, y)] = u
        lines = ["link utilization (% of one flit/cycle), by direction:"]
        for direction in ("east", "west", "north", "south"):
            grid = by_dir[direction]
            lines.append(f"  {direction}:")
            for y in range(k - 1, -1, -1):
                cells = []
                for x in range(k):
                    u = grid.get((x, y))
                    cells.append(".." if u is None else f"{round(u * 100):2d}")
                lines.append(f"    y={y}  " + " ".join(cells))
        return "\n".join(lines)

    def heatmap_figure(self, k, path):
        """Save a matplotlib heatmap of per-direction utilization.

        Optional dependency: raises RuntimeError with a clear message
        when matplotlib is unavailable (the text heatmap always works).
        """
        try:
            import matplotlib

            matplotlib.use("Agg")
            import matplotlib.pyplot as plt
        except ImportError as exc:
            raise RuntimeError(
                "matplotlib is not installed; use the text heatmap instead"
            ) from exc
        import numpy as np

        util = self.link_utilization()
        directions = {
            "east": (1, 0), "west": (-1, 0), "north": (0, 1), "south": (0, -1)
        }
        fig, axes = plt.subplots(1, 4, figsize=(4 * k, k), squeeze=False)
        for ax, (name, (dx, dy)) in zip(axes[0], directions.items()):
            grid = np.full((k, k), np.nan)
            for ((x, y), (nx, ny)), u in util.items():
                if (nx - x, ny - y) == (dx, dy):
                    grid[k - 1 - y, x] = u
            im = ax.imshow(grid, vmin=0.0, vmax=1.0, cmap="magma")
            ax.set_title(name)
            ax.set_xticks(range(k))
            ax.set_yticks(range(k))
            ax.set_yticklabels(range(k - 1, -1, -1))
        fig.colorbar(im, ax=axes[0].tolist(), fraction=0.02)
        fig.savefig(path, bbox_inches="tight")
        plt.close(fig)
        return path
