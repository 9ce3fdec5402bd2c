"""Micro-benchmark of the simulator cycle loop (the BENCH_core trajectory).

Measures cycles/second of the cycle loop at low / mid / saturation load
on 4x4 and 8x8 meshes (mixed traffic, the Fig. 5 operating regime),
plus three instrumented fig5 mid points: an O1TURN-routed one whose
``vs_xy_mid`` ratio (o1turn / xy, same process, same budgets) pins the
cost of the routing-strategy indirection, an on-off-injected one whose
``vs_bernoulli_mid`` ratio pins the cost of the injection-process
indirection (the per-cycle ``ChainState.pulse`` dispatch plus the
private chain stream, riding the same hot path), and a fully observed
one (tracer + sampler + profiler attached) whose ``vs_plain_mid``
ratio pins the probes-ON cost of the observability layer; results go
to ``BENCH_core.json`` so the trajectory is pinned across PRs.

The array-backend points add the representation-change payoff
(``vs_object_mid``, array kernel vs object oracle at mid load on
4x4/8x8/16x16), the batched multi-seed payoff (``vs_serial_seeds``,
one ``seeds=[...]`` batch of 8 replicas vs 8 serial single-seed array
runs on the 8x8 fig5 mid point — the batch axis must amortise the
kernel's fixed per-cycle costs at least 4x), and a gate-free 32x32
absolute-throughput exhibit (the object oracle is too slow to
interleave at that radix).
``--probe-gate`` separately enforces the zero-overhead-*off* half of
the observability contract (DESIGN.md §7): attach/detach must leave no
structural or timing residue on the hot loop.

Usage::

    PYTHONPATH=src python benchmarks/bench_core.py                  # measure, print
    PYTHONPATH=src python benchmarks/bench_core.py --output BENCH_core.json
    PYTHONPATH=src python benchmarks/bench_core.py \
        --check benchmarks/BENCH_core.json --tolerance 0.30         # CI smoke

``--check`` compares the *ratios* (``vs_*``: both sides measured
interleaved in the same process on the same machine) against the
committed baseline, which makes the regression gate robust to runner
speed; absolute cycles/sec are recorded for human trend-reading only.  In
check mode the cycle budgets are taken from the baseline's
``cycles_timed`` so the comparison is apples-to-apples (``--quick`` is
ignored), and the check fails if any baseline point went unmeasured.
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time

from repro.harness.sweep import default_rates
from repro.noc.config import NocConfig
from repro.noc.routing import make_routing
from repro.noc.simulator import Simulator
from repro.traffic.generators import SyntheticTraffic
from repro.traffic.mix import MIXED_TRAFFIC, UNIFORM_UNICAST
from repro.traffic.processes import OnOffProcess

#: cycle budgets of the array-backend points (the object side bounds
#: the wall time: at 16x16 mid-load it runs ~50 cycles/s); 32x32 is
#: array-only (no object interleave), so its budget only bounds the
#: kernel itself
ARRAY_BUDGETS = {4: 2_000, 8: 800, 16: 300, 32: 150}
ARRAY_BUDGETS_QUICK = {4: 800, 8: 300, 16: 120, 32: 60}
ARRAY_WARMUP = {4: 300, 8: 200, 16: 100, 32: 80}

#: the batched multi-seed point: replicas per batch and their seed
#: schedule (the replica stride of repro.analysis.replicas, so the
#: benchmark times exactly what ``--seeds 8`` runs)
BATCH_REPLICAS = 8
BATCH_SEEDS = [7 + 100_003 * i for i in range(BATCH_REPLICAS)]
BATCH_BUDGET = 1_500
BATCH_BUDGET_QUICK = 600

#: Fig. 5 operating points for the 4x4 chip; low/mid/saturation for
#: larger meshes are derived from the mix's theoretical rate grid.
FIG5_RATES = {"low": 0.02, "mid": 0.14, "saturation": 0.21}

#: Perf-trajectory anchors: cycles/sec of the first cycle loop (commit
#: 1a1a3b7), measured on the same machine and with the same cycle
#: budgets as an earlier BENCH_core.json baseline.  The derived
#: ``speedup_vs_pr1_loop`` is only meaningful when the current run
#: executes on comparable hardware; it is trajectory data, not a gate.
PR1_LOOP_CYCLES_PER_SEC = {
    ("4x4", "low"): 2522.3,
    ("4x4", "mid"): 1433.3,
    ("4x4", "saturation"): 1003.8,
    ("8x8", "low"): 473.0,
    ("8x8", "mid"): 269.9,
    ("8x8", "saturation"): 228.0,
}


def _positive_int(text):
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError("must be at least 1")
    return value


def load_points(k):
    if k == 4:
        return FIG5_RATES
    grid = default_rates(MIXED_TRAFFIC, k * k, points=8)
    return {"low": grid[0], "mid": grid[3], "saturation": grid[7]}


def time_loop(k, rate, cycles, warmup, routing=None, process=None,
              observed=False, mix=MIXED_TRAFFIC, backend="object"):
    cfg = NocConfig(k=k) if routing is None else NocConfig(
        k=k, routing=make_routing(routing)
    )
    traffic = SyntheticTraffic(mix, rate, seed=7, process=process)
    sim = Simulator(cfg, traffic, backend=backend)
    if observed:
        from repro.obs import Observer

        Observer(trace=True, sample=64, profile=True).attach(sim)
    sim.run(warmup)
    start = time.perf_counter()
    sim.run(cycles)
    elapsed = time.perf_counter() - start
    return cycles / elapsed


def _seeds_sim(k, rate, seeds=None):
    traffic = SyntheticTraffic(UNIFORM_UNICAST, rate, seed=7)
    return Simulator(NocConfig(k=k), traffic, backend="array", seeds=seeds)


def time_seeds_serial(k, rate, cycles, warmup):
    """Aggregate cycles/sec of ``BATCH_REPLICAS`` single-seed array
    runs, one after another (construction and warmup excluded from the
    timed span, like :func:`time_loop`)."""
    total = 0.0
    for seed in BATCH_SEEDS:
        traffic = SyntheticTraffic(UNIFORM_UNICAST, rate, seed=seed)
        sim = Simulator(NocConfig(k=k), traffic, backend="array")
        sim.run(warmup)
        start = time.perf_counter()
        sim.run(cycles)
        total += time.perf_counter() - start
    return BATCH_REPLICAS * cycles / total


def time_seeds_batch(k, rate, cycles, warmup):
    """Aggregate cycles/sec of one ``seeds=[...]`` batched array run:
    every timed cycle advances all ``BATCH_REPLICAS`` lanes."""
    sim = _seeds_sim(k, rate, seeds=BATCH_SEEDS)
    sim.run(warmup)
    start = time.perf_counter()
    sim.run(cycles)
    return BATCH_REPLICAS * cycles / (time.perf_counter() - start)


def measure(quick=False, budgets=None, repeats=2):
    """Time all points; ``budgets`` maps (mesh, load) to cycle counts
    (used in check mode to replay the baseline's exact budgets).
    Each timing is the best of ``repeats`` runs: the loop is
    deterministic, so the fastest run is the least-perturbed one and
    best-of-N keeps a noisy neighbour from tripping (or silently
    re-pinning) the ratio gates.  The two sides of every recorded
    ratio are timed *interleaved* (variant, plain, variant, ...), so
    load drift on the runner hits both equally and the ratio of the
    two best-of-N floors survives a machine whose absolute speed moves
    between points."""

    def interleaved(*args, variants, **kwargs):
        """Best-of-``repeats`` for each variant (a list of kwarg
        dicts), alternating between them run by run."""
        runs = [[] for _ in variants]
        for _ in range(repeats):
            for out, extra in zip(runs, variants):
                out.append(time_loop(*args, **kwargs, **extra))
        return [max(out) for out in runs]

    points = []
    for k in (4, 8):
        default = (1_500 if quick else 4_000) if k == 4 else (600 if quick else 1_500)
        warmup = 300 if k == 4 else 200
        for load, rate in load_points(k).items():
            budget = default
            if budgets:
                budget = budgets.get((f"{k}x{k}", load), default)
            cps = max(
                time_loop(k, rate, budget, warmup) for _ in range(repeats)
            )
            point = {
                "mesh": f"{k}x{k}",
                "load": load,
                "rate": round(rate, 6),
                "cycles_timed": budget,
                "cycles_per_sec": round(cps, 1),
            }
            anchor = PR1_LOOP_CYCLES_PER_SEC.get((f"{k}x{k}", load))
            if anchor:
                point["pr1_loop_cycles_per_sec"] = anchor
                point["speedup_vs_pr1_loop"] = round(cps / anchor, 3)
            points.append(point)
            print(
                f"{k}x{k} {load:10s} rate={rate:.4f}  "
                f"loop={cps:10,.0f} c/s",
                file=sys.stderr,
            )
        if k == 4:
            # instrumented fig5 mid points: each re-times the mid load
            # with one extra layer engaged and pins its cost as a
            # ratio against the plain mid point:
            #
            # * ``vs_xy_mid`` prices the routing-strategy indirection
            #   (header state, per-phase VC queues, the RouteState
            #   memo ride the identical hot path);
            # * ``vs_bernoulli_mid`` prices the injection-process
            #   indirection (the per-cycle ChainState.pulse dispatch
            #   plus the private chain stream);
            # * ``vs_plain_mid`` prices the observability layer with
            #   every probe live (worst case).
            #
            # The ratio's two sides are timed *interleaved* (variant,
            # plain, variant, plain, ...) so load drift on the runner
            # hits both equally and the ratio of the two best-of-N
            # floors isolates the layer's real cost; a drop of the
            # ratio is a regression in that layer, not runner noise.
            def instrumented(load, ratio_key, **kwargs):
                rate = load_points(4)["mid"]
                budget = default
                if budgets:
                    budget = budgets.get(("4x4", load), default)
                variant, plain = interleaved(
                    4, rate, budget, warmup, variants=[kwargs, {}]
                )
                ratio = variant / plain
                points.append(
                    {
                        "mesh": "4x4",
                        "load": load,
                        "rate": round(rate, 6),
                        "cycles_timed": budget,
                        "cycles_per_sec": round(variant, 1),
                        "plain_cycles_per_sec": round(plain, 1),
                        ratio_key: round(ratio, 3),
                    }
                )
                print(
                    f"4x4 {load:10s} rate={rate:.4f}  "
                    f"variant={variant:10,.0f} c/s  "
                    f"plain={plain:10,.0f} c/s  "
                    f"{ratio_key}={ratio:.2f}x",
                    file=sys.stderr,
                )

            instrumented("mid-o1turn", "vs_xy_mid", routing="o1turn")
            instrumented(
                "mid-onoff",
                "vs_bernoulli_mid",
                process=OnOffProcess(burst_length=8.0),
            )
            # ``vs_plain_mid`` prices the observability layer with the
            # probes ON (tracer + sampler + profiler all attached, the
            # worst case); probes-OFF residue is checked structurally
            # and timed by ``--probe-gate``
            instrumented("mid-traced", "vs_plain_mid", observed=True)
    # array-backend points (DESIGN.md §9): mid-load on 4x4/8x8/16x16,
    # uniform unicast (the array backend rejects broadcast mixes), the
    # same backend interleaved against the object oracle.  The
    # ``vs_object_mid`` ratio is the representation-change payoff and
    # is CI-gated like the other ratios; the 16x16 point is the first
    # large-radix scaling exhibit (the object loop runs ~50 cycles/s
    # there, which is why large-mesh sweeps need the array kernel).
    for k in (4, 8, 16):
        mesh = f"{k}x{k}"
        rate = default_rates(UNIFORM_UNICAST, k * k, points=8)[3]
        default = (ARRAY_BUDGETS_QUICK if quick else ARRAY_BUDGETS)[k]
        budget = budgets.get((mesh, "mid-array"), default) if budgets \
            else default
        arr, obj = interleaved(
            k, rate, budget, ARRAY_WARMUP[k],
            variants=[
                {"mix": UNIFORM_UNICAST, "backend": "array"},
                {"mix": UNIFORM_UNICAST},
            ],
        )
        points.append(
            {
                "mesh": mesh,
                "load": "mid-array",
                "rate": round(rate, 6),
                "cycles_timed": budget,
                "array_cycles_per_sec": round(arr, 1),
                "object_cycles_per_sec": round(obj, 1),
                "vs_object_mid": round(arr / obj, 3),
            }
        )
        print(
            f"{mesh} {'mid-array':10s} rate={rate:.4f}  "
            f"array={arr:10,.0f} c/s  object={obj:10,.0f} c/s  "
            f"vs_object_mid={arr / obj:.2f}x",
            file=sys.stderr,
        )
    # the batched multi-seed point (the batch-axis payoff): eight
    # replicas of the fig5 mid point on 8x8, once as eight serial
    # single-seed array runs and once as one ``seeds=[...]`` batch.
    # The lanes share every fixed per-cycle cost (phase dispatch, mask
    # construction, the numpy call overhead), so the aggregate ratio
    # ``vs_serial_seeds`` is the amortisation payoff — CI-gated like
    # the other ratios.  Both sides are best-of-``repeats`` and
    # interleaved (serial, batch, serial, ...) for the usual noise
    # discipline.
    rate = FIG5_RATES["mid"]
    default = BATCH_BUDGET_QUICK if quick else BATCH_BUDGET
    budget = budgets.get(("8x8", "mid-seeds"), default) if budgets \
        else default
    serial_runs, batch_runs = [], []
    for _ in range(repeats):
        serial_runs.append(
            time_seeds_serial(8, rate, budget, ARRAY_WARMUP[8])
        )
        batch_runs.append(time_seeds_batch(8, rate, budget, ARRAY_WARMUP[8]))
    serial, batch = max(serial_runs), max(batch_runs)
    points.append(
        {
            "mesh": "8x8",
            "load": "mid-seeds",
            "rate": round(rate, 6),
            "cycles_timed": budget,
            "batch_replicas": BATCH_REPLICAS,
            "serial_cycles_per_sec": round(serial, 1),
            "batch_cycles_per_sec": round(batch, 1),
            "vs_serial_seeds": round(batch / serial, 3),
        }
    )
    print(
        f"8x8 {'mid-seeds':10s} rate={rate:.4f}  "
        f"serial={serial:10,.0f} c/s  batch={batch:10,.0f} c/s  "
        f"vs_serial_seeds={batch / serial:.2f}x",
        file=sys.stderr,
    )
    # the 32x32 scaling exhibit, array-only: the object oracle runs
    # ~10 cycles/s at this radix, far too slow to interleave, so the
    # point records the kernel's absolute cycles/sec as trajectory
    # data (human trend-reading) with no ratio gate
    k = 32
    mesh = "32x32"
    rate = default_rates(UNIFORM_UNICAST, k * k, points=8)[3]
    default = (ARRAY_BUDGETS_QUICK if quick else ARRAY_BUDGETS)[k]
    budget = budgets.get((mesh, "mid-array"), default) if budgets \
        else default
    arr = max(
        time_loop(
            k, rate, budget, ARRAY_WARMUP[k],
            mix=UNIFORM_UNICAST, backend="array",
        )
        for _ in range(repeats)
    )
    points.append(
        {
            "mesh": mesh,
            "load": "mid-array",
            "rate": round(rate, 6),
            "cycles_timed": budget,
            "array_cycles_per_sec": round(arr, 1),
        }
    )
    print(
        f"{mesh} {'mid-array':10s} rate={rate:.4f}  "
        f"array={arr:10,.0f} c/s  (object oracle too slow to interleave)",
        file=sys.stderr,
    )
    return {
        "schema": 1,
        "traffic": MIXED_TRAFFIC.name,
        "python": platform.python_version(),
        "points": points,
    }


def probe_gate(overhead_limit=0.02, repeats=7):
    """The zero-overhead-off contract (DESIGN.md §7), as a CI gate.

    Two halves:

    1. **structural** — attaching an Observer must set ``sim.obs``
       (the one per-cycle test the loop makes), and detaching must
       reset it to ``None`` and clear every probe slot (router, NIC,
       input VC, channel), so an un-observed run takes no observer
       branch at all;
    2. **timing** — an attach/detach survivor must run the fig5 mid
       point within ``overhead_limit`` of a never-observed simulator
       (interleaved best-of-``repeats`` each; the code paths are
       identical after detach, so anything beyond noise is leaked
       residue).

    Returns the number of failures (0 = gate passed).
    """
    from repro.obs import Observer

    rate = FIG5_RATES["mid"]

    def build():
        traffic = SyntheticTraffic(MIXED_TRAFFIC, rate, seed=7)
        return Simulator(NocConfig(k=4), traffic)

    failures = []

    sim = build()
    obs = Observer(trace=True, sample=64, profile=True).attach(sim)
    if sim.obs is not obs:
        failures.append("attach did not set sim.obs")
    obs.detach()
    if sim.obs is not None:
        failures.append("detach left sim.obs set")
    net = sim.network
    residue = (
        [r for r in net.routers if r.probe is not None]
        + [nic for nic in net.nics if nic.probe is not None]
        + [
            vc
            for r in net.routers
            for ip in r.in_ports
            for vc in ip.vcs
            if vc.probe is not None
        ]
        + [ch for _key, ch in net.flit_links() if ch.probe is not None]
    )
    if residue:
        failures.append(f"{len(residue)} probe slot(s) survived detach")

    # the array backend has no probe slots at all (support matrix,
    # DESIGN.md §9): attach must refuse loudly rather than silently
    # observe nothing, and the refusal must leave the simulator
    # untouched (no partial wiring)
    arr = Simulator(
        NocConfig(k=4),
        SyntheticTraffic(UNIFORM_UNICAST, rate, seed=7),
        backend="array",
    )
    try:
        Observer(trace=True).attach(arr)
    except ValueError:
        if getattr(arr, "obs", None) is not None:
            failures.append("rejected attach left obs set on array backend")
    else:
        failures.append("Observer.attach accepted the array backend")

    def timed(sim):
        sim.run(300)
        start = time.perf_counter()
        sim.run(2_000)
        return 2_000 / (time.perf_counter() - start)

    def detached():
        sim = build()
        Observer(trace=True, sample=64, profile=True).attach(sim).detach()
        return sim

    # Interleave the two variants so load drift on the runner hits
    # both equally.  Contention noise only ever *slows* a run, so the
    # most favorable estimate across the adjacent pairs (and across
    # the two noise floors) approaches the true ratio from below; a
    # real residue depresses every estimate and cannot hide behind a
    # single quiet scheduling window.
    fresh_runs, survivor_runs = [], []
    for _ in range(repeats):
        fresh_runs.append(timed(build()))
        survivor_runs.append(timed(detached()))
    fresh = max(fresh_runs)
    survivor = max(survivor_runs)
    estimates = [s / f for f, s in zip(fresh_runs, survivor_runs)]
    estimates.append(survivor / fresh)
    overhead = max(0.0, 1.0 - max(estimates))
    verdict = "ok" if overhead <= overhead_limit else "REGRESSED"
    print(
        f"probe gate: fresh={fresh:10,.0f} c/s  "
        f"attach/detach survivor={survivor:10,.0f} c/s  "
        f"residue={overhead:.1%} (limit {overhead_limit:.0%}) {verdict}",
        file=sys.stderr,
    )
    if overhead > overhead_limit:
        failures.append(f"probes-off overhead {overhead:+.1%}")
    for failure in failures:
        print(f"probe gate: {failure}", file=sys.stderr)
    return len(failures)


def fault_gate(overhead_limit=0.02, repeats=7):
    """The fault layer's zero-overhead-off contract (DESIGN.md §8).

    Two halves, mirroring :func:`probe_gate`:

    1. **structural** — a simulator without a fault model must run the
       pristine pre-fault stepper (no wrapper, no inline ``faults``
       test in the hot loop), and attaching a model must gate purely
       by swapping the stepper, leaving the step functions untouched;
    2. **timing** — a zero-rate fault engine (the knob present but in
       its off position) must run the fig5 mid point within
       ``overhead_limit`` of a never-faulted simulator; its per-cycle
       pre-phase early-outs on every sub-phase, so anything beyond the
       wrapper call is leaked work.

    Returns the number of failures (0 = gate passed).
    """
    from repro.noc.faults import BitErrorFaults

    rate = FIG5_RATES["mid"]

    def build(faults=None):
        traffic = SyntheticTraffic(MIXED_TRAFFIC, rate, seed=7)
        sim = Simulator(NocConfig(k=4), traffic)
        if faults is not None:
            sim.attach_faults(faults, seed=7)
        return sim

    failures = []

    plain = build()
    if plain.faults is not None:
        failures.append("a default simulator carries a fault engine")
    if plain._stepper().__func__ is not Simulator._step:
        failures.append("faults-off stepper is not the plain hot loop")
    armed = build(BitErrorFaults(rate=0.0))
    if getattr(armed._stepper(), "__func__", None) is Simulator._step:
        failures.append("attach_faults left the plain stepper installed")

    def timed(sim):
        sim.run(300)
        start = time.perf_counter()
        sim.run(2_000)
        return 2_000 / (time.perf_counter() - start)

    # same noise discipline as probe_gate: interleaved runs, and the
    # most favorable of the per-pair and best-of-N estimates — real
    # leaked work depresses every estimate, noise only some
    plain_runs, armed_runs = [], []
    for _ in range(repeats):
        plain_runs.append(timed(build()))
        armed_runs.append(timed(build(BitErrorFaults(rate=0.0))))
    estimates = [a / p for p, a in zip(plain_runs, armed_runs)]
    estimates.append(max(armed_runs) / max(plain_runs))
    overhead = max(0.0, 1.0 - max(estimates))
    verdict = "ok" if overhead <= overhead_limit else "REGRESSED"
    print(
        f"fault gate: plain={max(plain_runs):10,.0f} c/s  "
        f"zero-rate engine={max(armed_runs):10,.0f} c/s  "
        f"residue={overhead:.1%} (limit {overhead_limit:.0%}) {verdict}",
        file=sys.stderr,
    )
    if overhead > overhead_limit:
        failures.append(f"faults-off overhead {overhead:+.1%}")
    for failure in failures:
        print(f"fault gate: {failure}", file=sys.stderr)
    return len(failures)


def check(result, baseline, tolerance):
    """Fail (return nonzero) if any recorded layer/backend ratio
    (``vs_xy_mid``, ``vs_bernoulli_mid``, ``vs_plain_mid``,
    ``vs_object_mid``, ``vs_serial_seeds``) regressed, or any baseline
    point went unmeasured (a silently-vacuous gate is worse than a
    failing one)."""
    expected = {(p["mesh"], p["load"]): p for p in baseline["points"]}
    failures = []
    covered = set()
    for p in result["points"]:
        key = (p["mesh"], p["load"])
        if key not in expected:
            continue
        covered.add(key)
        for metric in (
            "vs_xy_mid", "vs_bernoulli_mid", "vs_plain_mid",
            "vs_object_mid", "vs_serial_seeds",
        ):
            want = expected[key].get(metric)
            if want is None:
                continue
            if metric not in p:
                # a baseline metric the new run no longer emits would
                # silently disable its gate; treat it as a failure
                print(
                    f"{key[0]} {key[1]:10s} {metric} missing from the "
                    f"measurement", file=sys.stderr,
                )
                failures.append((*key, metric))
                continue
            floor = want * (1.0 - tolerance)
            verdict = "ok" if p[metric] >= floor else "REGRESSED"
            print(
                f"{key[0]} {key[1]:10s} {metric} {p[metric]:.2f}x "
                f"(baseline {want:.2f}x, floor {floor:.2f}x) {verdict}",
                file=sys.stderr,
            )
            if p[metric] < floor:
                failures.append((*key, metric))
    missing = sorted(set(expected) - covered)
    if missing:
        print(f"baseline points not measured: {missing}", file=sys.stderr)
        return 1
    if failures:
        print(f"perf regression at {failures}", file=sys.stderr)
        return 1
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output", help="write the measurement JSON here")
    parser.add_argument(
        "--quick", action="store_true", help="reduced cycle budgets (CI smoke)"
    )
    parser.add_argument(
        "--check", metavar="BASELINE", help="compare ratios against this JSON"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=0.30,
        help="allowed fractional ratio regression vs the baseline",
    )
    parser.add_argument(
        "--repeats",
        type=_positive_int,
        default=2,
        help="timings per point; the best is kept (noise robustness)",
    )
    parser.add_argument(
        "--probe-gate",
        action="store_true",
        help="only run the zero-overhead-off probe gate (structural "
        "attach/detach residue check plus a probes-off timing gate)",
    )
    parser.add_argument(
        "--fault-gate",
        action="store_true",
        help="only run the fault layer's zero-overhead-off gate "
        "(structural faults-off stepper check plus a timing gate "
        "against a zero-rate fault engine)",
    )
    args = parser.parse_args(argv)

    if args.probe_gate:
        return 1 if probe_gate() else 0
    if args.fault_gate:
        return 1 if fault_gate() else 0

    baseline = budgets = None
    if args.check:
        with open(args.check) as fh:
            baseline = json.load(fh)
        budgets = {
            (p["mesh"], p["load"]): p["cycles_timed"] for p in baseline["points"]
        }
    result = measure(quick=args.quick, budgets=budgets, repeats=args.repeats)
    if args.output:
        with open(args.output, "w") as fh:
            json.dump(result, fh, indent=1, sort_keys=True)
            fh.write("\n")
    else:
        json.dump(result, sys.stdout, indent=1, sort_keys=True)
        print()
    if baseline is not None:
        return check(result, baseline, args.tolerance)
    return 0


if __name__ == "__main__":
    sys.exit(main())
