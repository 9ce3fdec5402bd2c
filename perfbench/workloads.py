"""The three benchmark workloads.

Each workload splits into ``setup`` (imports plus the long-lived
objects a user starts — timed as ``setup_s``), ``prepare`` (untimed
pre-work such as warming the service cache) and ``round`` (one unit of
fixed work, repeated identically on fresh state for as long as the run
lasts).  A round returns a :class:`Round`: its wall time (the program's
work only; the client's checks run after the clock stops), the sweep
and result-fetch latencies it saw, the WindowStats it produced (in the
workload's job order, for the digest) and its failures.

Across workloads, a *sweep* is one batch of jobs submitted to the engine
and run until every job is terminal, and a *result fetch* reads one
computed result back by its content address and verifies it.
"""

from __future__ import annotations

import json
import shutil
from collections import Counter
from contextlib import nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, sleep

from perfbench import inputs as gen

#: the paper's Section 4.1 headline numbers (Fig. 5)
PAPER = {
    "low_load_latency_reduction": 0.487,
    "throughput_ratio": 2.1,
    "fraction_of_limit": 0.871,
}

#: statuses that fail an operation
BAD_STOPS = ("failed", "watchdog")

POLL_S = 0.002
SWEEP_DEADLINE_S = 60.0


@dataclass
class Round:
    wall: float = 0.0
    #: factor to reference-host seconds, set by the runner (probe.py)
    scale: float = 1.0
    sweep_ms: list = field(default_factory=list)
    result_ms: list = field(default_factory=list)
    stats: list = field(default_factory=list)
    router_cycles: int = 0
    attempted: int = 0
    failed: int = 0
    paper_err_pct: float = float("nan")
    errors: list = field(default_factory=list)

    def fail(self, why):
        self.failed += 1
        self.errors.append(why)


def _span(rec, name, group=None):
    return rec.span(name, group) if rec is not None else nullcontext()


def _canon(stats):
    return json.dumps(stats.to_dict(), sort_keys=True)


def paper_err_pct(summary, keys=tuple(PAPER)):
    """Mean absolute relative error (%) against the paper's numbers."""
    return 100.0 * sum(
        abs(summary[k] - PAPER[k]) / PAPER[k] for k in keys
    ) / len(keys)


def _check_stops(rnd, stats_list):
    for s in stats_list:
        rnd.attempted += 1
        if s.stop_reason in BAD_STOPS:
            rnd.fail(f"{s.config_name}@{s.injection_rate}: {s.stop_reason}")


def read_back(root, produced, rnd, rec=None):
    """Fetch every cache entry under ``root`` by its content address.

    Each entry's key must be the SHA-256 of its job, and the entries'
    stats must be exactly the ``produced`` WindowStats (as a multiset).
    """
    from repro.engine import JobSpec
    from repro.noc.metrics import WindowStats

    got = Counter()
    for path in sorted(root.glob("*.json")):
        key = path.stem
        rnd.attempted += 1
        t0 = perf_counter()
        with _span(rec, "client.fetch", key[:12]):
            entry = json.loads(path.read_bytes())
        rnd.result_ms.append((perf_counter() - t0) * 1e3)
        if entry.get("key") != key \
                or JobSpec.from_dict(entry["job"]).cache_key != key:
            rnd.fail(f"entry {key[:12]}: content address mismatch")
        got[_canon(WindowStats.from_dict(entry["stats"]))] += 1
    if got != Counter(_canon(s) for s in produced):
        rnd.fail("cached entries differ from the returned WindowStats")


class Workload:
    name = ""
    #: rounds each worker makes at least, whatever its time budget
    min_rounds = 1

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)
        self._roots = 0

    @classmethod
    def build_shared(cls, seed, path):
        """Untimed work done once per run for all its workers; returns
        what :meth:`prepare` receives."""
        return None

    def setup(self):
        raise NotImplementedError

    def prepare(self, shared=None):
        self.inputs = gen.INPUTS[self.name](self.seed)

    def round(self, rec=None):
        raise NotImplementedError

    def close(self):
        pass

    def _fresh_root(self):
        self._roots += 1
        root = self.workdir / f"cache-{self._roots}"
        root.mkdir(parents=True)
        return root


class Fig5(Workload):
    """The paper's Fig. 5 exhibit through an Executor on an empty cache."""

    name = "fig5"

    def setup(self):
        from repro.engine import Executor, ResultCache
        from repro.harness import experiments

        self._executor = lambda root: Executor(cache=ResultCache(root))
        self._exp = experiments
        self._executor(self._fresh_root())

    def round(self, rec=None):
        rnd = Round()
        root = self._fresh_root()
        executor = self._executor(root)
        t0 = perf_counter()
        with _span(rec, "client.sweep", f"fig5-{self._roots}"):
            result = self._exp.fig5_mixed_traffic(
                executor=executor, **self.inputs["window"]
            )
        rnd.wall = perf_counter() - t0
        rnd.sweep_ms.append(rnd.wall * 1e3)
        rnd.stats = result["proposed"] + result["baseline"]
        read_back(root, rnd.stats, rnd, rec)
        _check_stops(rnd, rnd.stats)
        rnd.router_cycles = sum(s.cycles for s in rnd.stats) * 16
        rnd.paper_err_pct = paper_err_pct(self._exp.summarize_sweeps(result))
        shutil.rmtree(root)
        return rnd


class Mesh16Unicast(Workload):
    """A replicated 16x16 uniform-unicast sweep on the array kernel."""

    name = "mesh16-unicast"

    def setup(self):
        from repro.analysis.pattern_limits import pattern_saturation_rate
        from repro.analysis.saturation import saturation_throughput
        from repro.core.presets import proposed_network
        from repro.engine import Executor, ResultCache
        from repro.harness.sweep import run_sweep_replicated
        from repro.noc.backend import resolve_backend
        from repro.traffic.mix import UNIFORM_UNICAST

        resolve_backend("array")  # imports the kernel
        self._executor = lambda root: Executor(cache=ResultCache(root))
        self._sweep = run_sweep_replicated
        self._config = proposed_network
        self._mix = UNIFORM_UNICAST
        self._bound = pattern_saturation_rate
        self._sat = saturation_throughput
        self._executor(self._fresh_root())

    def _paper_err(self, groups, cfg):
        """The paper's 87.1%-of-limit claim, checked on this sweep:
        replica-mean saturation throughput against the XY bound."""
        from types import SimpleNamespace

        from repro.analysis.replicas import aggregate_replicas

        points = []
        for rate, group in zip(self.inputs["rates"], groups):
            agg = aggregate_replicas(group)
            points.append(SimpleNamespace(
                injection_rate=rate,
                avg_latency=agg["avg_latency"]["mean"],
                throughput_gbps=agg["throughput_gbps"]["mean"],
            ))
        k = self.inputs["k"]
        limit = (self._bound(self._mix, k) * k * k * cfg.flit_bits
                 * cfg.frequency_ghz)
        fraction = self._sat(points) / limit
        return paper_err_pct({"fraction_of_limit": fraction},
                             ("fraction_of_limit",))

    def round(self, rec=None):
        inp = self.inputs
        rnd = Round()
        root = self._fresh_root()
        executor = self._executor(root)
        cfg = self._config(k=inp["k"])
        t0 = perf_counter()
        with _span(rec, "client.sweep", f"mesh16-{self._roots}"):
            groups = self._sweep(
                cfg, self._mix, inp["rates"], replicas=inp["replicas"],
                backend="array", executor=executor, seed=inp["base_seed"],
                **inp["window"],
            )
        rnd.wall = perf_counter() - t0
        rnd.sweep_ms.append(rnd.wall * 1e3)
        rnd.stats = [s for group in groups for s in group]
        read_back(root, rnd.stats, rnd, rec)
        _check_stops(rnd, rnd.stats)
        rnd.router_cycles = sum(s.cycles for s in rnd.stats) * inp["k"] ** 2
        rnd.paper_err_pct = self._paper_err(groups, cfg)
        shutil.rmtree(root)
        return rnd


class ServiceMixed(Workload):
    """One closed-loop client against ``create_app(workers=1)``."""

    name = "service-mixed"
    min_rounds = 2  # 5 workers: 100 sweeps, 3300 result fetches

    def setup(self):
        from repro.service.app import create_app

        self.root = self.workdir / "service-cache"
        self.root.mkdir(parents=True)
        self.app = create_app(cache_root=str(self.root), workers=1)
        self.client = self.app.test_client()

    @classmethod
    def build_shared(cls, seed, path):
        """Simulate the hot set once into a template cache."""
        from repro.engine import Executor, ResultCache

        Executor(cache=ResultCache(path)).run(gen.service_inputs(seed)["hot"])
        return path

    def prepare(self, shared=None):
        from repro.analysis.limits import MeshLimits
        from repro.harness.experiments import summarize_sweeps
        from repro.noc.metrics import WindowStats
        from repro.traffic.mix import MIXED_TRAFFIC

        super().prepare()
        self.paper_keys = {job.cache_key for job in self.inputs["hot"]
                           if job.seed == gen.SERVICE_HOT_SEED}
        self.hot = {}
        for job in self.inputs["hot"]:
            entry = Path(shared) / f"{job.cache_key}.json"
            shutil.copyfile(entry, self.root / entry.name)
            stats = json.loads(entry.read_bytes())["stats"]
            self.hot[job.cache_key] = _canon(WindowStats.from_dict(stats))
        self.limit_gbps = MeshLimits(4).mix_throughput_limit_gbps(
            MIXED_TRAFFIC)
        self._summarize = summarize_sweeps

    def _paper_err(self, fetched):
        """The fig5 summary of the fig5-seed grid, as fetched."""
        series = {"proposed": [], "baseline": []}
        for key, s in fetched:
            if key in self.paper_keys:
                series[s.config_name].append(s)
        for points in series.values():
            points.sort(key=lambda s: s.injection_rate)
        series["throughput_limit_gbps"] = self.limit_gbps
        return paper_err_pct(self._summarize(series))

    def _sweep(self, n, request, rnd, rec):
        """POST one sweep, poll it until complete and GET every result;
        returns the unverified ``(key, HTTP status, body)`` of each."""
        client = self.client
        group = f"sweep-{n}"
        rnd.attempted += 1
        t0 = perf_counter()
        with _span(rec, "client.sweep", group):
            with _span(rec, "service.post"):
                resp = client.post("/sweeps", json=request)
            if resp.status_code != 201:
                rnd.fail(f"POST /sweeps: HTTP {resp.status_code}")
                return []
            sweep_url = resp.headers["Location"]
            body = resp.get_json()
            while not body["summary"]["complete"]:
                if perf_counter() - t0 > SWEEP_DEADLINE_S:
                    rnd.fail(f"{group}: not complete after "
                             f"{SWEEP_DEADLINE_S:.0f} s")
                    return []
                sleep(POLL_S)
                rnd.attempted += 1
                with _span(rec, "service.poll"):
                    resp = client.get(sweep_url)
                if resp.status_code != 200:
                    rnd.fail(f"GET {sweep_url}: HTTP {resp.status_code}")
                    return []
                body = resp.get_json()
        rnd.sweep_ms.append((perf_counter() - t0) * 1e3)
        responses = []
        for job in body["jobs"]:
            rnd.attempted += 1
            if job["status"] not in ("cached", "done"):
                rnd.fail(f"job {job['key'][:12]}: {job['status']}")
                continue
            t1 = perf_counter()
            with _span(rec, "service.result", group):
                resp = client.get(job["result_url"])
            rnd.result_ms.append((perf_counter() - t1) * 1e3)
            responses.append((job["key"], resp.status_code, resp.get_data()))
        return responses

    def _verify(self, responses, rnd):
        """Check fetched bodies against the cache entries on disk and
        the hot set; returns the ``(key, WindowStats)`` fetched."""
        from repro.noc.metrics import WindowStats

        fetched = []
        for key, status, data in responses:
            if status != 200:
                rnd.fail(f"GET /results/{key[:12]}: HTTP {status}")
                continue
            if data != (self.root / f"{key}.json").read_bytes():
                rnd.fail(f"result {key[:12]}: body differs from the cache "
                         f"entry")
            stats = WindowStats.from_dict(json.loads(data)["stats"])
            expected = self.hot.get(key)
            if expected is not None and expected != _canon(stats):
                rnd.fail(f"hot result {key[:12]} changed")
            fetched.append((key, stats))
        return fetched

    def round(self, rec=None):
        rnd = Round()
        n0 = self._roots
        self._roots += len(self.inputs["requests"])
        t0 = perf_counter()
        sweeps = [self._sweep(n0 + i, request, rnd, rec)
                  for i, request in enumerate(self.inputs["requests"])]
        rnd.wall = perf_counter() - t0
        for i, responses in enumerate(sweeps):
            fetched = self._verify(responses, rnd)
            rnd.stats.extend(stats for _, stats in fetched)
            if i == 0 and fetched:
                rnd.paper_err_pct = self._paper_err(fetched)
        misses = [s for s in rnd.stats if s.config_name == "miss"]
        _check_stops(rnd, misses)
        rnd.router_cycles = sum(s.cycles for s in misses) * 16
        for miss in self.inputs["misses"]:
            (self.root / f"{miss.cache_key}.json").unlink(missing_ok=True)
        return rnd

    def close(self):
        self.app.extensions["repro"].shutdown()


WORKLOADS = {w.name: w for w in (Fig5, Mesh16Unicast, ServiceMixed)}
