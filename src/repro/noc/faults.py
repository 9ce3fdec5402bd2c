"""Fault injection and the recovery stack.

The paper's Fig. 10 reduces link reliability to a circuit-level
quantity: the probability that a low-swing repeater's sense amplifier
misreads a bit, a Q-function of the swing voltage over the amplifier's
offset spread.  The cycle-accurate model, however, treated every flit
delivery as infallible.  This module closes that loop with a
serializable *fault model* strategy layer mirroring the
patterns/routing/injection idiom:

* **soft faults** — per-flit bit-error corruption drawn from private
  salted PRBS streams, one stream per directed link, with the per-link
  error probability either set directly (:class:`BitErrorFaults`) or
  derived from the Fig. 10 swing → P(fail) model
  (:class:`SwingFaults`);
* **hard faults** — links or routers dying at scheduled cycles
  (:class:`LinkFaults`) or via a deterministic permutation draw
  (:class:`RandomFaults`; fault sets are *nested* across counts, so
  delivered throughput degrades monotonically in the count).

On top sits the recovery stack (the fault-tolerant routing treatment
of Dally & Towles):

* **detection** — a corrupted flit carries an error-detect flag
  (``Flit.corrupt``) and is discarded at the receiving input VC;
  flow-control conservation is preserved by emulating the credits the
  discarded flit would have returned.  A flit that already won a
  bypass pre-allocation at its arrival cycle must not vanish (the
  crossbar traversal is committed), so it is *poison-forwarded*
  instead: it travels its remaining route with the flag set, cleaning
  up downstream VC allocations hop by hop, and is discarded at the
  ejection gate.
* **retransmission** — damage to a packet's tail arms a NACK (or a
  plain timeout when ``nack=False``) for each still-pending
  destination; firing consumes one unit of the per-message retry
  budget and schedules a re-injection after bounded exponential
  backoff.  The retransmitted packet is a fresh unicast drawn through
  the normal injection path, so it is itself subject to faults.
* **rerouting** — hard faults install a :class:`FaultRouteState` that
  replaces the configured routing algorithm with up*/down* routing on
  a BFS spanning tree of the live topology.  Tree routing in a single
  VC partition is deadlock free (every dependency is up→up, up→down
  or down→down — acyclic), and route tables are *epoch-stamped*: a
  packet keeps the epoch drawn at injection for wormhole consistency,
  and a rebuild appends a new epoch rather than mutating tables under
  in-flight packets.
* **graceful degradation** — a destination cut off by the faults is
  reported structurally: its flits are gated at injection, the
  message is marked failed, and the run ends with
  ``stop_reason="partitioned"`` plus a ``delivered_fraction`` below
  one instead of a watchdog hang.

``faults=None`` follows the zero-overhead-off contract of DESIGN.md
§7: the plain step functions carry no fault hooks at all — the
simulator wraps its stepper only while a fault engine is attached —
and a fault model with nothing to do (zero error rate, no deaths)
touches no simulation state, so its runs stay byte-identical to bare
ones.  The fault event ordering within the phase loop is specified in
DESIGN.md §8.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass, fields

from repro.noc.flit import Packet
from repro.noc.ports import EAST, LOCAL, NORTH, SOUTH, WEST
from repro.noc.routing import coords, node_at, xy_distance
from repro.noc.vc import CreditMsg

#: Salt decorrelating the per-link fault streams (and the hard-fault
#: permutation draw) from the traffic, routing and injection-chain
#: stream families.
_FAULT_STREAM_SALT = 0x9E3779B9

#: Stream-offset lane of the hard-fault permutation draw, far outside
#: the per-link offsets (link indices are < 4·k·(k-1)).
_HARD_DRAW_OFFSET = 10**6

#: Routing-header sentinel of a packet whose source or destination is
#: outside the live partition; such flits are gated at injection.
UNREACHABLE = -1


def _fault_rng(seed, offset):
    """A private PRBS-31 stream of the fault family."""
    # lazy import: keeps repro.noc importable without triggering the
    # repro.traffic package (mirrors repro.noc.routing._stream_seed)
    from repro.traffic.prbs import PRBSGenerator, salted_stream_seed

    return PRBSGenerator(
        order=31, seed=salted_stream_seed(seed, _FAULT_STREAM_SALT, offset)
    )


# ------------------------------------------------------------- registry

#: name -> fault model class; populated by :func:`_register`.
_REGISTRY = {}


def _register(cls):
    _REGISTRY[cls.name] = cls
    return cls


def fault_names():
    """The registered fault model names, sorted (CLI choices)."""
    return sorted(_REGISTRY)


def make_fault(name, **kwargs):
    """Instantiate a registered fault model by name."""
    try:
        cls = _REGISTRY[name]
    except KeyError:
        raise ValueError(
            f"unknown fault model {name!r}; choose from {fault_names()}"
        ) from None
    return cls(**kwargs)


def fault_from_dict(data):
    """Invert ``FaultModel.to_dict`` for any registered model."""
    try:
        name = data["name"]
    except (TypeError, KeyError):
        raise ValueError(f"not a serialized fault model: {data!r}") from None
    kwargs = {k: v for k, v in data.items() if k != "name"}
    # JSON round-trips tuples as lists; restore the hashable forms
    if "links" in kwargs:
        kwargs["links"] = tuple(
            tuple(int(x) for x in entry) for entry in kwargs["links"]
        )
    if "routers" in kwargs:
        kwargs["routers"] = tuple(
            tuple(int(x) for x in entry) for entry in kwargs["routers"]
        )
    return make_fault(name, **kwargs)


# ---------------------------------------------------------- fault models


@dataclass(frozen=True)
class FaultModel:
    """A serializable fault scenario plus its recovery parameters.

    Subclasses are stateless values (like the routing algorithms); all
    runtime state lives in the :class:`FaultState` a simulator builds
    from the model and its traffic seed.  The common fields tune the
    recovery stack:

    ``retry_timeout``
        Source-side timeout in cycles when ``nack`` is off.
    ``retry_budget``
        Retransmission attempts per *message* before it is declared
        failed.
    ``backoff_base`` / ``backoff_cap``
        Exponential backoff: retry *n* waits
        ``min(backoff_base << n, backoff_cap)`` cycles.
    ``nack`` / ``nack_delay``
        With ``nack`` on (the default), damage detected at a node
        notifies the source after ``nack_delay`` plus the XY hop
        distance back to it; off, the source discovers the loss only
        by ``retry_timeout``.
    """

    retry_timeout: int = 64
    retry_budget: int = 4
    backoff_base: int = 8
    backoff_cap: int = 512
    nack: bool = True
    nack_delay: int = 4

    #: registry key; also the ``--faults`` CLI spelling
    name = None

    def validate(self, config):
        """Raise ValueError if the model cannot run on ``config``."""
        if self.retry_timeout < 1:
            raise ValueError("retry_timeout must be at least one cycle")
        if self.retry_budget < 0:
            raise ValueError("retry_budget must be non-negative")
        if self.backoff_base < 1 or self.backoff_cap < self.backoff_base:
            raise ValueError("need 1 <= backoff_base <= backoff_cap")
        if self.nack_delay < 0:
            raise ValueError("nack_delay must be non-negative")

    def error_rate(self, config):
        """Per-flit, per-link corruption probability in [0, 1]."""
        return 0.0

    def hard_schedule(self, config, seed):
        """The scheduled deaths: ``(link_deaths, router_deaths)``.

        ``link_deaths`` is a tuple of ``(a, b, cycle)`` undirected
        neighbour pairs, ``router_deaths`` a tuple of
        ``(node, cycle)``.  Deaths are bidirectional: a dead link
        drops flits in both directions (up*/down* tree routing needs
        both directions of every live edge).
        """
        return (), ()

    @property
    def is_hard(self):
        """Whether the model kills topology (installs rerouting)."""
        return False

    def to_dict(self):
        """A JSON-safe representation :func:`fault_from_dict` inverts."""
        data = {"name": self.name}
        for f in fields(self):
            data[f.name] = getattr(self, f.name)
        return data


@_register
@dataclass(frozen=True)
class BitErrorFaults(FaultModel):
    """Uniform per-flit corruption probability on every mesh link."""

    name = "biterror"

    rate: float = 1e-3

    def validate(self, config):
        super().validate(config)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit-error rate must be a probability")

    def error_rate(self, config):
        return self.rate


@_register
@dataclass(frozen=True)
class SwingFaults(FaultModel):
    """Per-flit error probability derived from the Fig. 10 model.

    The per-*bit* failure probability is the sense amplifier's
    ``2·Q(swing / 2σ)`` at ``swing_mv`` (``sigma_mv`` overrides the
    technology's offset spread); a flit is corrupted when any of its
    ``config.flit_bits`` bits misreads, i.e. with probability
    ``1 - (1 - p_bit)**flit_bits``.
    """

    name = "swing"

    swing_mv: float = 240.0
    sigma_mv: float | None = None

    def validate(self, config):
        super().validate(config)
        # written so that NaN fails the checks
        if not self.swing_mv > 0:
            raise ValueError("swing must be positive")
        if self.sigma_mv is not None and not self.sigma_mv > 0:
            raise ValueError("offset sigma must be positive")

    def error_rate(self, config):
        # lazy import: the circuit models are an independent subpackage
        from repro.circuits.sense_amp import SenseAmplifier

        amp = SenseAmplifier(offset_sigma_mv=self.sigma_mv)
        p_bit = amp.failure_probability(self.swing_mv)
        return 1.0 - (1.0 - p_bit) ** config.flit_bits


@_register
@dataclass(frozen=True)
class LinkFaults(FaultModel):
    """Explicitly scheduled link/router deaths, plus an optional
    uniform soft-error rate on the surviving links.

    ``links`` holds ``(a, b, cycle)`` neighbour pairs, ``routers``
    ``(node, cycle)`` entries; a router death kills every incident
    link and discards anything later ejected at the node.
    """

    name = "links"

    links: tuple = ()
    routers: tuple = ()
    rate: float = 0.0

    def validate(self, config):
        super().validate(config)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit-error rate must be a probability")
        n = config.num_nodes
        for entry in self.links:
            if len(entry) != 3:
                raise ValueError(f"link death {entry!r} is not (a, b, cycle)")
            a, b, _cycle = entry
            if not (0 <= a < n and 0 <= b < n):
                raise ValueError(f"link death {entry!r} outside the mesh")
            if xy_distance(a, b, config.k) != 1:
                raise ValueError(f"link death {entry!r} is not a mesh link")
        for entry in self.routers:
            if len(entry) != 2:
                raise ValueError(f"router death {entry!r} is not (node, cycle)")
            node, _cycle = entry
            if not 0 <= node < n:
                raise ValueError(f"router death {entry!r} outside the mesh")
        if len(self.routers) >= n:
            raise ValueError("cannot kill every router")

    def error_rate(self, config):
        return self.rate

    def hard_schedule(self, config, seed):
        return self.links, self.routers

    @property
    def is_hard(self):
        return bool(self.links or self.routers)


def _undirected_edges(k):
    """The mesh's undirected links in deterministic node-major order."""
    edges = []
    for node in range(k * k):
        x, y = coords(node, k)
        if x + 1 < k:
            edges.append((node, node + 1))
        if y + 1 < k:
            edges.append((node, node + k))
    return edges


@_register
@dataclass(frozen=True)
class RandomFaults(FaultModel):
    """``count`` links dying at cycle ``at``, drawn deterministically.

    One Fisher–Yates permutation of the undirected links is drawn from
    a private PRBS stream (seeded from the traffic seed, independent
    of ``count``) and the first ``count`` entries die.  Fault sets are
    therefore *nested* across counts for a fixed seed, which is what
    makes the reliability exhibit's delivered-throughput curve
    monotone in the count.  An optional soft-error ``rate`` applies to
    the surviving links.
    """

    name = "random"

    count: int = 1
    at: int = 0
    rate: float = 0.0

    def validate(self, config):
        super().validate(config)
        if not 0.0 <= self.rate <= 1.0:
            raise ValueError("bit-error rate must be a probability")
        limit = 2 * config.k * (config.k - 1)
        if not 0 <= self.count <= limit:
            raise ValueError(
                f"count must be within the mesh's {limit} undirected links"
            )
        if self.at < 0:
            raise ValueError("death cycle must be non-negative")

    def error_rate(self, config):
        return self.rate

    def hard_schedule(self, config, seed):
        if self.count == 0:
            return (), ()
        edges = _undirected_edges(config.k)
        rng = _fault_rng(seed, _HARD_DRAW_OFFSET)
        for i in range(len(edges) - 1, 0, -1):
            j = rng.next_below(i + 1)
            edges[i], edges[j] = edges[j], edges[i]
        return tuple((a, b, self.at) for a, b in edges[: self.count]), ()

    @property
    def is_hard(self):
        return self.count > 0


# -------------------------------------------------- fault-aware routing


def _port_toward(u, v, k):
    """The output port of ``u`` facing its mesh neighbour ``v``."""
    ux, uy = coords(u, k)
    vx, vy = coords(v, k)
    if vx == ux + 1 and vy == uy:
        return EAST
    if vx == ux - 1 and vy == uy:
        return WEST
    if vy == uy + 1 and vx == ux:
        return NORTH
    if vy == uy - 1 and vx == ux:
        return SOUTH
    raise ValueError(f"{u} and {v} are not mesh neighbours")


def _build_tree_table(k, dead_nodes, dead_edges):
    """Next-hop table of up*/down* routing on a BFS spanning tree.

    Returns ``(table, reachable)``: ``table[u][v]`` is the output port
    of ``u`` toward ``v`` (``None`` off the tree), ``reachable`` the
    frozenset of nodes in the root's live component.  The root is the
    lowest-numbered live node; neighbours are explored in NESW order,
    so the tree — and every route — is deterministic.
    """
    n = k * k

    def neighbours(u):
        x, y = coords(u, k)
        out = []
        for nx, ny in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
            if not (0 <= nx < k and 0 <= ny < k):
                continue
            v = node_at(nx, ny, k)
            if v in dead_nodes or frozenset((u, v)) in dead_edges:
                continue
            out.append(v)
        return out

    table = [[None] * n for _ in range(n)]
    live = [u for u in range(n) if u not in dead_nodes]
    if not live:
        return table, frozenset()
    root = live[0]
    # BFS spanning tree of the root's component
    tree_adj = {root: []}
    frontier = [root]
    while frontier:
        nxt = []
        for u in frontier:
            for v in neighbours(u):
                if v in tree_adj:
                    continue
                tree_adj[v] = [u]
                tree_adj[u].append(v)
                nxt.append(v)
        frontier = nxt
    reachable = frozenset(tree_adj)
    # per destination: BFS over tree edges yields each node's next hop
    for dest in reachable:
        towards = {dest: None}
        frontier = [dest]
        while frontier:
            nxt = []
            for u in frontier:
                for v in tree_adj[u]:
                    if v in towards:
                        continue
                    towards[v] = u
                    nxt.append(v)
            frontier = nxt
        row = table
        for u, via in towards.items():
            if via is not None:
                row[u][dest] = _port_toward(u, via, k)
    return table, reachable


class _TreeRoutingShim:
    """Quacks like a ``RoutingAlgorithm`` value for introspection sites
    (the NIC's multicast check, logging); never serialized."""

    name = "fault-tree"
    phases = 1
    advancing = False
    uses_rng = False
    supports_multicast = False


class FaultRouteState:
    """Drop-in for :class:`~repro.noc.routing.RouteState` under hard
    faults: epoch-stamped up*/down* spanning-tree routing.

    A packet's header is the *epoch index* of the route table it was
    injected under (or :data:`UNREACHABLE`).  Rebuilding after a death
    appends a new epoch and leaves old tables intact, so in-flight
    packets keep wormhole-consistent routes; a packet whose old-epoch
    route crosses a newly dead link is simply dropped there and
    recovered by retransmission under the current epoch.

    Deadlock freedom: all traffic runs in VC partition 0 and every
    route is a tree path, whose channel dependencies (up toward the
    root, then down) are acyclic.
    """

    __slots__ = (
        "algorithm",
        "k",
        "num_nodes",
        "advancing",
        "epoch",
        "hits",
        "misses",
        "_epochs",
        "_memo",
    )

    def __init__(self, k):
        self.algorithm = _TreeRoutingShim()
        self.k = k
        self.num_nodes = k * k
        self.advancing = False
        self.epoch = -1
        self.hits = 0
        self.misses = 0
        self._epochs = []
        self._memo = {}

    def rebuild(self, dead_nodes, dead_edges):
        """Append a route-table epoch for the current live topology."""
        self._epochs.append(
            _build_tree_table(self.k, frozenset(dead_nodes), frozenset(dead_edges))
        )
        self.epoch = len(self._epochs) - 1

    def reseed(self, seed):
        """Tree routes draw no randomness; nothing to reseed."""

    def packet_header(self, src, destinations):
        """(epoch, phase 0), or the :data:`UNREACHABLE` sentinel."""
        if len(destinations) > 1:
            raise RuntimeError(
                "fault-aware tree routing cannot carry multicast packets"
            )
        (dest,) = destinations
        _table, reachable = self._epochs[self.epoch]
        if src not in reachable or dest not in reachable:
            return UNREACHABLE, 0
        return self.epoch, 0

    def advance(self, node, destinations, header):
        return header, 0

    def route(self, node, destinations, header):
        key = (node, destinations, header)
        out = self._memo.get(key)
        if out is not None:
            self.hits += 1
            return out
        if header is None or header < 0:
            raise RuntimeError(
                f"routing a packet with fault header {header!r} at {node}"
            )
        (dest,) = destinations
        if dest == node:
            out = {LOCAL: destinations}
        else:
            port = self._epochs[header][0][node][dest]
            if port is None:
                raise RuntimeError(
                    f"no epoch-{header} tree route from {node} to {dest}"
                )
            out = {port: destinations}
        self._memo[key] = out
        self.misses += 1
        return out

    def cache_info(self):
        return {
            "hits": self.hits,
            "misses": self.misses,
            "size": len(self._memo),
            "capacity": None,
        }


# --------------------------------------------------------- fault runtime


class FaultState:
    """The per-simulation fault engine built from a :class:`FaultModel`.

    ``pre_cycle(t)`` runs before the phase loop of cycle ``t`` (the
    simulator wraps its stepper while an engine is attached) and
    operates purely on channel queues — payloads whose arrival cycle
    is ``t`` but which no component has received yet — so the routers
    and NICs themselves carry no fault hooks at all.  See DESIGN.md §8
    for the ordering and invariants.
    """

    def __init__(self, model, sim, seed):
        self.model = model
        self.sim = sim
        self.net = sim.network
        self.cfg = sim.cfg
        self.k = self.cfg.k
        self.seed = 1 if seed is None else seed
        model.validate(self.cfg)
        k = self.k
        # directed router-to-router links, in flit_links() order
        self.links = [
            (node_at(*src, k), node_at(*dst, k), channel)
            for (src, dst), channel in self.net.flit_links()
        ]
        self._link_index = {
            (a, b): i for i, (a, b, _ch) in enumerate(self.links)
        }
        # the receiving router's input port of each link (credit
        # emulation for discarded flits, bypass-reservation checks)
        self._sink_ports = []
        for _a, b, channel in self.links:
            router = self.net.routers[b]
            self._sink_ports.append(
                next(ip for ip in router.in_ports if ip.link_in is channel)
            )
        base_rate = float(model.error_rate(self.cfg))
        self.rates = [base_rate] * len(self.links)
        self._rngs = [None] * len(self.links)
        self._hot_links = ()
        self._rescan_hot()
        #: (link, pid) -> squash mode for packets with dropped flits:
        #: "all" (head lost: nothing downstream may see the packet),
        #: "tail" (body lost: drop the rest, poison-forward the tail),
        #: "fwd" (poison-forwarded head: pass the rest untouched).
        self._squash = {}
        #: node -> pids whose poisoned head was discarded at ejection
        self._poisoned = {}
        self._dead_nodes = set()
        self._dead_edges = set()
        self._gate_ejects = False
        # recovery schedules: (cycle, tiebreak, message, dest, pid)
        self._ctr = itertools.count()
        self._retry_heap = []
        self._reinject_heap = []
        self._retries = {}
        self.dropped_flits = 0
        self.corrupted_flits = 0
        self.retransmissions = 0
        self.failed_messages = 0
        self.partitioned = False
        link_deaths, router_deaths = model.hard_schedule(self.cfg, self.seed)
        deaths = [
            (int(c), "link", (int(a), int(b))) for a, b, c in link_deaths
        ]
        deaths += [(int(c), "router", int(node)) for node, c in router_deaths]
        deaths.sort(key=lambda entry: entry[0])
        self._deaths = deaths
        self._death_idx = 0
        self.hard = bool(deaths)
        self.route_state = None
        if self.hard:
            frs = FaultRouteState(k)
            frs.rebuild(self._dead_nodes, self._dead_edges)  # pristine epoch 0
            self.route_state = frs
            self.net.route_state = frs
            for router in self.net.routers:
                router.route_state = frs

    # ------------------------------------------------------------ cycle

    def pre_cycle(self, t):
        """Fault phase of cycle ``t`` (before all component phases)."""
        if self._death_idx < len(self._deaths) and self._deaths[self._death_idx][0] <= t:
            self._apply_deaths(t)
        if self.hard:
            self._gate_injections(t)
        if self._hot_links:
            self._corrupt_links(t)
        if self._gate_ejects or self._dead_nodes:
            self._gate_ejections(t)
        if self._retry_heap or self._reinject_heap:
            self._service_recovery(t)

    # ----------------------------------------------------- hard faults

    def _rescan_hot(self):
        self._hot_links = tuple(
            i for i, rate in enumerate(self.rates) if rate > 0.0
        )

    def _kill_edge(self, a, b, t):
        edge = frozenset((a, b))
        if edge in self._dead_edges:
            return False
        self._dead_edges.add(edge)
        for pair in ((a, b), (b, a)):
            idx = self._link_index.get(pair)
            if idx is not None:
                self.rates[idx] = 1.0
        self._trace_fault(t, a, f"link-dead:{a}-{b}")
        return True

    def _apply_deaths(self, t):
        changed = False
        deaths = self._deaths
        while self._death_idx < len(deaths) and deaths[self._death_idx][0] <= t:
            _cycle, kind, payload = deaths[self._death_idx]
            self._death_idx += 1
            if kind == "router":
                node = payload
                if node in self._dead_nodes:
                    continue
                self._dead_nodes.add(node)
                self._gate_ejects = True
                x, y = coords(node, self.k)
                for nx, ny in ((x, y + 1), (x + 1, y), (x, y - 1), (x - 1, y)):
                    if 0 <= nx < self.k and 0 <= ny < self.k:
                        self._kill_edge(node, node_at(nx, ny, self.k), t)
                self._trace_fault(t, node, "router-dead")
                changed = True
            else:
                a, b = payload
                changed = self._kill_edge(a, b, t) or changed
        if changed:
            self._rescan_hot()
            self.route_state.rebuild(self._dead_nodes, self._dead_edges)

    def _gate_injections(self, t):
        """Absorb flits (and lookaheads) born with unreachable routes.

        The NIC admits every message; a packet whose source or
        destination is outside the live partition carries the
        :data:`UNREACHABLE` header and is consumed here, at the
        injection channel, with its credits emulated so the NIC's VC
        bookkeeping stays conservative.  Its lookahead is consumed one
        cycle earlier, so the router can never have made a bypass
        reservation for a gated flit.
        """
        for node, router in enumerate(self.net.routers):
            ip = router.in_ports[LOCAL]
            queue = ip.link_in._queue
            if queue and queue[0][0] == t:
                flit = queue[0][1]
                if flit.rheader == UNREACHABLE:
                    queue.popleft()
                    ip.credit_out.send(t, CreditMsg(flit.vc, flit.is_tail))
                    self.dropped_flits += 1
                    self._trace_drop(t, node, flit, "unreachable")
                    if flit.is_tail:
                        self.partitioned = True
                        self._fail(flit.packet.message)
            la_in = ip.la_in
            if la_in is not None:
                la_queue = la_in._queue
                if (
                    la_queue
                    and la_queue[0][0] == t
                    and la_queue[0][1].rheader == UNREACHABLE
                ):
                    la_queue.popleft()

    # ----------------------------------------------------- soft faults

    def _rng(self, i):
        rng = self._rngs[i]
        if rng is None:
            rng = self._rngs[i] = _fault_rng(self.seed, i)
        return rng

    def _drop(self, i, flit, t, reason):
        """Discard the arriving flit of link ``i``, emulating the
        credits the receiving router would eventually have returned."""
        a, b, channel = self.links[i]
        channel._queue.popleft()
        self._sink_ports[i].credit_out.send(
            t, CreditMsg(flit.vc, flit.is_tail)
        )
        self.dropped_flits += 1
        self._trace_drop(t, b, flit, reason)

    def _poison(self, flit):
        """Mark a committed flit corrupt; it travels on for cleanup and
        is discarded (with recovery) at the ejection gate."""
        flit.corrupt = True
        self._gate_ejects = True

    def _corrupt_links(self, t):
        """Per-link arrival gate: draw corruption, enforce squash modes.

        A packet must stay *well formed* downstream of any loss —
        this is what the squash modes guarantee:

        * losing the head makes the rest of the packet undeliverable
          (no downstream VC was ever allocated), so every following
          flit is dropped too (``"all"``);
        * losing a body must not lose the tail: the tail releases the
          packet's VC allocations at every downstream hop, so it is
          poison-forwarded instead (``"tail"``);
        * a flit holding a bypass reservation at its arrival cycle has
          already been granted the crossbar — it cannot vanish without
          desynchronising the router, so it is poison-forwarded and
          the rest of the packet passes untouched (``"fwd"``).
        """
        squash = self._squash
        for i in self._hot_links:
            channel = self.links[i][2]
            queue = channel._queue
            if not queue or queue[0][0] != t:
                continue
            flit = queue[0][1]
            key = (i, flit.pid)
            mode = squash.get(key)
            if mode == "fwd":
                # trailing a poisoned head: forward untouched; the
                # ejection gate discards the packet and recovers
                if flit.is_tail:
                    del squash[key]
                continue
            if mode is None:
                if flit.corrupt:
                    # poisoned upstream; its head passed this link, so
                    # downstream VC state is consistent — forward for
                    # cleanup (under "all"/"tail" the squash dominates:
                    # a corrupt flit is dropped like any other trailer,
                    # else it would strand in a headless downstream VC)
                    continue
                rate = self.rates[i]
                if rate < 1.0:
                    if self._rng(i).next_uniform() >= rate:
                        continue
                    self.corrupted_flits += 1
                    reason = "corrupt"
                else:
                    reason = "dead-link"
                op = self._sink_ports[i].st_ops.get(t)
                if op is not None and op.kind == "bypass":
                    self._poison(flit)
                    if not flit.is_tail:
                        squash[key] = "fwd"
                    continue
                if flit.is_tail and not flit.is_head:
                    # body flits may already sit downstream: the tail
                    # must arrive to free their VC allocations
                    self._poison(flit)
                    continue
                self._drop(i, flit, t, reason)
                if flit.is_tail:  # single-flit packet: recover now
                    self._recover(flit, self.links[i][1], t)
                else:
                    squash[key] = "all" if flit.is_head else "tail"
                continue
            # an earlier flit of this packet was lost on this link
            op = self._sink_ports[i].st_ops.get(t)
            if op is not None and op.kind == "bypass":
                # unreachable for "all" (the head never allocated
                # downstream, so no lookahead can pass the resource
                # check) but kept as a defensive poison-forward
                self._poison(flit)
                if flit.is_tail:
                    squash.pop(key, None)
                continue
            if mode == "tail" and flit.is_tail:
                self._poison(flit)
                del squash[key]
                continue
            self._drop(i, flit, t, "squash")
            if flit.is_tail:
                del squash[key]
                self._recover(flit, self.links[i][1], t)

    def _gate_ejections(self, t):
        """Discard poisoned (or dead-node) arrivals at the input VC of
        the NIC, scheduling recovery when a packet's tail is judged."""
        dead = self._dead_nodes
        for node, nic in enumerate(self.net.nics):
            queue = nic.link_in._queue
            if not queue or queue[0][0] != t:
                continue
            flit = queue[0][1]
            pids = self._poisoned.get(node)
            poisoned = pids is not None and flit.pid in pids
            if not (flit.corrupt or poisoned or node in dead):
                continue
            queue.popleft()
            nic.credit_out.send(t, CreditMsg(flit.vc, flit.is_tail))
            self.dropped_flits += 1
            self._trace_drop(
                t, node, flit, "dead-node" if node in dead else "eject"
            )
            if flit.is_tail:
                if poisoned:
                    pids.discard(flit.pid)
                self._recover(flit, node, t)
            elif flit.corrupt:
                # the packet's data is damaged: every later flit of it
                # arriving here must be discarded too, tail included
                if pids is None:
                    pids = self._poisoned[node] = set()
                pids.add(flit.pid)

    # -------------------------------------------------------- recovery

    def _recover(self, flit, detect_node, t):
        """Arm NACK/timeout retransmission for a destroyed tail.

        Recovery is armed only at damage time — never speculatively —
        so a fault-free packet leaves no recovery state behind (the
        zero-overhead-off contract) and no duplicate packets exist.
        """
        message = flit.packet.message
        if message.failed or message.complete:
            return
        model = self.model
        for dest in sorted(flit.destinations):
            if (dest, flit.pid) not in message._pending:
                continue
            if model.nack:
                delay = model.nack_delay + xy_distance(
                    detect_node, message.src, self.k
                )
            else:
                delay = model.retry_timeout
            heapq.heappush(
                self._retry_heap,
                (t + delay, next(self._ctr), message, dest, flit.pid),
            )

    def _service_recovery(self, t):
        retry = self._retry_heap
        while retry and retry[0][0] <= t:
            _cycle, _n, message, dest, pid = heapq.heappop(retry)
            self._attempt_retry(message, dest, pid, t)
        reinject = self._reinject_heap
        while reinject and reinject[0][0] <= t:
            _cycle, _n, message, dest, pid = heapq.heappop(reinject)
            self._do_reinject(message, dest, pid, t)

    def _attempt_retry(self, message, dest, pid, t):
        if message.failed or (dest, pid) not in message._pending:
            return
        attempts = self._retries.get(message.mid, 0)
        if attempts >= self.model.retry_budget:
            self._fail(message)
            return
        self._retries[message.mid] = attempts + 1
        backoff = min(self.model.backoff_base << attempts, self.model.backoff_cap)
        heapq.heappush(
            self._reinject_heap,
            (t + backoff, next(self._ctr), message, dest, pid),
        )

    def _do_reinject(self, message, dest, pid, t):
        """Re-enqueue a fresh unicast packet for one damaged pair."""
        if message.failed or (dest, pid) not in message._pending:
            return
        destinations = frozenset((dest,))
        route_state = self.net.route_state
        rheader, rphase = route_state.packet_header(message.src, destinations)
        if self.hard and rheader == UNREACHABLE:
            self.partitioned = True
            self._fail(message)
            return
        message._pending.discard((dest, pid))
        packet = Packet(
            pid=next(self.net.packet_ids),
            message=message,
            src=message.src,
            destinations=destinations,
            mclass=message.mclass,
            num_flits=message.flits_per_packet,
            rheader=rheader,
            rphase=rphase,
        )
        message.register_packet(packet)
        nic = self.net.nics[message.src]
        queue = nic.queues[message.mclass]
        for flit in packet.make_flits():
            queue.append(flit)
        self.retransmissions += 1
        obs = self.sim.obs
        if obs is not None:
            obs.on_retransmit(t, message.src, packet.pid, message.mid)

    def _fail(self, message):
        if not message.failed:
            message.failed = True
            self.failed_messages += 1

    # --------------------------------------------------- introspection

    def busy(self):
        """Whether recovery work is pending (keeps the drain running)."""
        return self._prune(self._retry_heap) or self._prune(self._reinject_heap)

    @staticmethod
    def _prune(heap):
        while heap:
            _cycle, _n, message, dest, pid = heap[0]
            if message.failed or (dest, pid) not in message._pending:
                heapq.heappop(heap)
                continue
            return True
        return False

    def counters(self):
        """The fault/recovery counters as a plain dict."""
        return {
            "dropped_flits": self.dropped_flits,
            "corrupted_flits": self.corrupted_flits,
            "retransmissions": self.retransmissions,
            "failed_messages": self.failed_messages,
        }

    # --------------------------------------------------------- tracing

    def _trace_drop(self, t, node, flit, reason):
        obs = self.sim.obs
        if obs is not None:
            obs.on_drop(t, node, flit, reason)

    def _trace_fault(self, t, node, detail):
        obs = self.sim.obs
        if obs is not None:
            obs.on_fault(t, node, detail)
