"""Per-layer ledger of the traced run.

:class:`Instrumentation` wraps public calls of each layer — service
schemas and worker pool, engine executor/cache/jobspec, the object and
array simulators and ``summarize_window`` — in spans while installed,
and restores the originals on uninstall, so plain rounds run the
unmodified program.  :func:`layer_metrics` turns the recorded spans into
the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

from perfbench.spans import children_index, covered, self_time
from perfbench.stats import median, percentile


def _bind(fn, args, kwargs):
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


class Instrumentation:
    """Installs span wrappers around each layer's public calls."""

    def __init__(self, recorder):
        self.rec = recorder
        self._saved = []
        self._submitted = {}

    # -------------------------------------------------------- patching

    def _patch(self, owner, attr, make):
        original = owner.__dict__[attr]
        self._saved.append((owner, attr, original))
        setattr(owner, attr, make(original))

    def _timed(self, name, after=None, group=None):
        """Wrapper factory: time each call as span ``name``; ``after``
        sees ``(span, fn, args, kwargs, result)`` to attach details,
        ``group`` maps the call's arguments to a group id."""
        rec = self.rec

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                gid = group(args) if group is not None else None
                with rec.span(name, gid) as span:
                    out = fn(*args, **kwargs)
                    if after is not None:
                        after(span, fn, args, kwargs, out)
                    return out
            return wrapper
        return make

    def install(self):
        from repro.engine.cache import ResultCache
        from repro.engine.executor import Executor
        from repro.engine.jobspec import JobSpec
        from repro.noc import simulator as object_sim
        from repro.noc.array_backend import kernel
        from repro.service import schemas
        from repro.service.workers import WorkerPool

        rec = self.rec
        submitted = self._submitted

        # service: request parsing and queue wait (submit -> run_one)
        self._patch(schemas, "parse_sweep_request",
                    self._timed("service.parse"))

        def submit(fn):
            @functools.wraps(fn)
            def wrapper(pool, record):
                submitted[record.key] = perf_counter()
                return fn(pool, record)
            return wrapper
        self._patch(WorkerPool, "submit", submit)

        def run_one(fn):
            @functools.wraps(fn)
            def wrapper(executor, job):
                key = job.cache_key
                t = submitted.pop(key, None)
                if t is not None:
                    rec.record("service.queue_wait", t, perf_counter(), key)
                with rec.span("engine.run_one", key):
                    return fn(executor, job)
            return wrapper
        self._patch(Executor, "run_one", run_one)

        # engine
        def executor_after(span, fn, args, kwargs, out):
            span.args["retried"] = (args[0].last_batch or {}).get(
                "retried", 0)
        self._patch(Executor, "run",
                    self._timed("engine.executor", executor_after))

        def key_group(args):
            return args[0].cache_key[:12]
        self._patch(JobSpec, "run", self._timed("engine.job", group=key_group))

        def batch_after(span, fn, args, kwargs, out):
            span.args["lanes"] = len(out)
        self._patch(JobSpec, "run_batch",
                    self._timed("engine.job_batch", batch_after, key_group))

        def cache_key(prop):
            timed = self._timed("engine.cache_key")(prop.fget)
            return property(timed)
        self._patch(JobSpec, "cache_key", cache_key)

        def get_after(span, fn, args, kwargs, out):
            span.args["hit"] = out is not None
        self._patch(ResultCache, "get",
                    self._timed("engine.cache_get", get_after))
        self._patch(ResultCache, "put", self._timed("engine.cache_put"))
        self._patch(ResultCache, "flush_counters",
                    self._timed("engine.flush_counters"))

        # noc: construction, experiment phases, summarize_window
        def experiment_after(span, fn, args, kwargs, out):
            sim = args[0]
            bound = _bind(fn, args, kwargs)
            span.args.update(
                cycles=sim.cycle,
                warmup=bound["warmup"],
                measure=bound["measure"],
                lanes=getattr(sim, "B", 1),
                nodes=sim.cfg.num_nodes,
                router_cycles=getattr(sim, "router_cycles_executed", 0),
            )

        def summarize_after(span, fn, args, kwargs, out):
            span.args.update(messages=out.messages_measured,
                             flits=out.received_flits)

        for backend, cls in (("object", object_sim.Simulator),
                             ("array", kernel.ArraySimulator)):
            self._patch(cls, "__init__", self._timed("noc.construct"))
            self._patch(cls, "attach_traffic", self._timed("noc.attach"))
            self._patch(cls, "run", self._timed(f"noc.{backend}.run"))
            self._patch(cls, "run_experiment",
                        self._timed(f"noc.{backend}.experiment",
                                    experiment_after))
        self._patch(kernel.ArraySimulator, "run_experiment_batch",
                    self._timed("noc.array.experiment", experiment_after))
        for module in (object_sim, kernel):
            self._patch(module, "summarize_window",
                        self._timed("noc.summarize", summarize_after))
        return self

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self._submitted.clear()


#: name, unit and direction of every per-layer metric, in report order
PER_LAYER = (
    ("service.post_ms.p50", "ms", "lower"),
    ("service.post_ms.p99", "ms", "lower"),
    ("service.parse_ms.p50", "ms", "lower"),
    ("service.poll_ms.p50", "ms", "lower"),
    ("service.result_ms.p50", "ms", "lower"),
    ("service.result_ms.p99", "ms", "lower"),
    ("service.queue_wait_ms.p50", "ms", "lower"),
    ("service.queue_wait_ms.p90", "ms", "lower"),
    ("engine.cache_get_ms.p50", "ms", "lower"),
    ("engine.cache_put_ms.p50", "ms", "lower"),
    ("engine.flush_counters_ms.p50", "ms", "lower"),
    ("engine.cache_key_us.p50", "us", "lower"),
    ("engine.hit_ratio", "ratio", "higher"),
    ("engine.cache_hits", "count", "higher"),
    ("engine.cache_lookups", "count", "lower"),
    ("engine.executor_self_s", "s", "lower"),
    ("engine.batch_lanes", "count", "higher"),
    ("engine.executed", "count", "lower"),
    ("engine.retried", "count", "lower"),
    ("noc.construct_ms.p50", "ms", "lower"),
    ("noc.object.warmup_s", "s", "lower"),
    ("noc.object.measure_s", "s", "lower"),
    ("noc.object.drain_s", "s", "lower"),
    ("noc.object.cycles_per_s", "1/s", "higher"),
    ("noc.object.drain_fraction", "ratio", "lower"),
    ("noc.object.gating_ratio", "ratio", "lower"),
    ("noc.array.warmup_s", "s", "lower"),
    ("noc.array.measure_s", "s", "lower"),
    ("noc.array.drain_s", "s", "lower"),
    ("noc.array.lane_cycles_per_s", "1/s", "higher"),
    ("noc.array.drain_fraction", "ratio", "lower"),
    ("noc.summarize_ms.p50", "ms", "lower"),
    ("noc.summarize_s", "s", "lower"),
    ("noc.messages_measured", "count", "higher"),
    ("noc.received_flits", "count", "higher"),
    ("trace.overhead_pct", "%", "lower"),
    ("trace.noc_share_pct", "%", "higher"),
    ("trace.engine_service_share_pct", "%", "higher"),
)


def _ms(spans):
    return [s.duration * 1e3 for s in spans]


def _family(span):
    """The span's layer (``noc``/``engine``/``service``/``client``)."""
    return span.name.split(".", 1)[0]


def _family_roots(spans, by_id, families):
    """Spans of ``families`` with no ancestor of those families."""
    roots = []
    for s in spans:
        if _family(s) not in families:
            continue
        parent = by_id.get(s.parent)
        while parent is not None and _family(parent) not in families:
            parent = by_id.get(parent.parent)
        if parent is None:
            roots.append(s)
    return roots


def _phases(experiments, index):
    """Per-phase seconds and cycles of top-level experiment spans."""
    warm = meas = drain = 0.0
    cycles = lane_cycles = drained = router_cycles = node_cycles = 0
    for exp in experiments:
        kids = index.get(exp.span_id, [])
        runs = sorted((k for k in kids if k.name.endswith(".run")),
                      key=lambda k: k.start)
        summ = sum(k.duration for k in kids if k.name == "noc.summarize")
        w = runs[0].duration if runs else 0.0
        m = runs[1].duration if len(runs) > 1 else 0.0
        warm += w
        meas += m
        drain += exp.duration - w - m - summ
        a = exp.args
        cycles += a["cycles"]
        lane_cycles += a["cycles"] * a["lanes"]
        drained += a["cycles"] - a["warmup"] - a["measure"]
        router_cycles += a["router_cycles"]
        node_cycles += a["cycles"] * a["nodes"]
    busy = sum(e.duration for e in experiments)
    return {
        "warmup_s": warm,
        "measure_s": meas,
        "drain_s": drain,
        "cycles_per_s": cycles / busy if busy else 0.0,
        "lane_cycles_per_s": lane_cycles / busy if busy else 0.0,
        "drain_fraction": drained / cycles if cycles else 0.0,
        "gating_ratio": router_cycles / node_cycles if node_cycles else 0.0,
    }


def layer_metrics(spans, traced, plain):
    """The per-layer metrics from the spans of the ``traced`` rounds;
    ``plain`` are the untraced rounds run beside them.

    Percentiles pool every sample; totals and counts are per round, so
    they compare directly with the round's ``wall_s``.  A layer the
    workload never calls reports zero.
    """
    rounds = len(traced)
    by_name = {}
    for s in spans:
        by_name.setdefault(s.name, []).append(s)
    by_id = {s.span_id: s for s in spans}
    index = children_index(spans)

    def named(name):
        return by_name.get(name, [])

    out = {}

    def pcts(metric, samples, *ps):
        for p in ps:
            out[f"{metric}.p{p}"] = percentile(samples, p)

    pcts("service.post_ms", _ms(named("service.post")), 50, 99)
    pcts("service.parse_ms", _ms(named("service.parse")), 50)
    pcts("service.poll_ms", _ms(named("service.poll")), 50)
    pcts("service.result_ms", _ms(named("service.result")), 50, 99)
    pcts("service.queue_wait_ms", _ms(named("service.queue_wait")), 50, 90)
    pcts("engine.cache_get_ms", _ms(named("engine.cache_get")), 50)
    pcts("engine.cache_put_ms", _ms(named("engine.cache_put")), 50)
    pcts("engine.flush_counters_ms", _ms(named("engine.flush_counters")), 50)
    pcts("engine.cache_key_us",
         [d * 1e3 for d in _ms(named("engine.cache_key"))], 50)

    gets = named("engine.cache_get")
    hits = sum(1 for s in gets if s.args.get("hit"))
    out["engine.hit_ratio"] = hits / len(gets) if gets else 0.0
    out["engine.cache_hits"] = hits / rounds
    out["engine.cache_lookups"] = len(gets) / rounds

    sims = {"engine.job", "engine.job_batch"}
    executors = named("engine.executor")
    out["engine.executor_self_s"] = sum(
        self_time(s, [k for k in index.get(s.span_id, []) if k.name in sims])
        for s in executors
    ) / rounds
    jobs = named("engine.job")
    batches = named("engine.job_batch")
    executed = len(jobs) + sum(b.args["lanes"] for b in batches)
    dispatches = len(jobs) + len(batches)
    out["engine.batch_lanes"] = executed / dispatches if dispatches else 0.0
    out["engine.executed"] = executed / rounds
    out["engine.retried"] = sum(
        s.args.get("retried", 0) for s in executors) / rounds

    construct = [
        sum(k.duration for k in index.get(j.span_id, [])
            if k.name in ("noc.construct", "noc.attach")) * 1e3
        for j in jobs + batches
    ]
    out["noc.construct_ms.p50"] = percentile(construct, 50)

    for backend in ("object", "array"):
        # a one-lane run_experiment_batch nests run_experiment: count
        # only the outermost experiment span
        experiments = [
            e for e in named(f"noc.{backend}.experiment")
            if e.parent not in by_id
            or not by_id[e.parent].name.endswith(".experiment")
        ]
        ph = _phases(experiments, index)
        prefix = f"noc.{backend}"
        out[f"{prefix}.warmup_s"] = ph["warmup_s"] / rounds
        out[f"{prefix}.measure_s"] = ph["measure_s"] / rounds
        out[f"{prefix}.drain_s"] = ph["drain_s"] / rounds
        if backend == "object":
            out[f"{prefix}.cycles_per_s"] = ph["cycles_per_s"]
            out[f"{prefix}.drain_fraction"] = ph["drain_fraction"]
            out[f"{prefix}.gating_ratio"] = ph["gating_ratio"]
        else:
            out[f"{prefix}.lane_cycles_per_s"] = ph["lane_cycles_per_s"]
            out[f"{prefix}.drain_fraction"] = ph["drain_fraction"]

    summ = named("noc.summarize")
    out["noc.summarize_ms.p50"] = percentile(_ms(summ), 50)
    out["noc.summarize_s"] = sum(s.duration for s in summ) / rounds
    out["noc.messages_measured"] = sum(
        s.args["messages"] for s in summ) / rounds
    out["noc.received_flits"] = sum(s.args["flits"] for s in summ) / rounds

    # overhead in reference-host seconds; shares of the host seconds
    # the spans were timed in
    base = median([r.wall * r.scale for r in plain])
    out["trace.overhead_pct"] = (
        median([r.wall * r.scale for r in traced]) - base) / base * 100.0
    total_wall = sum(r.wall for r in traced)

    def intervals(families):
        return [(s.start, s.end)
                for s in _family_roots(spans, by_id, families)]

    noc = intervals({"noc"})
    upper = intervals({"engine", "service"})
    out["trace.noc_share_pct"] = covered(noc) / total_wall * 100
    # engine/service time that is not simulation nested inside it
    out["trace.engine_service_share_pct"] = (
        covered(upper + noc) - covered(noc)) / total_wall * 100
    return out
