"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fig5 --seed 7 --seconds 30 --trace 0

The run spreads its rounds over several fresh worker processes, one
after the other, because this kind of host changes speed from process
to process as well as over time; medians pool every worker's rounds.
Times are scaled to reference-host seconds by a probe timed next to
every round (``probe.py``).
``--trace 0`` prints the end-to-end metrics of ``BENCHMARK.json``.
``--trace 1`` runs one worker that alternates plain and traced rounds,
prints the per-layer metrics and writes the traced rounds' spans as
Chrome trace-event JSON under ``.perfbench/``.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import shutil
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
#: worker processes of a plain run (each also gives one setup_s sample)
WORKERS = 5
WORKER_TIMEOUT_S = 150.0


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("fig5", "mesh16-unicast", "service-mixed"))
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--worker", metavar="DIR", help=argparse.SUPPRESS)
    ap.add_argument("--shared", metavar="DIR", help=argparse.SUPPRESS)
    return ap.parse_args(argv)


# ------------------------------------------------------------- worker


def _rounds(work, budget, trace, recorder, instr):
    """Repeat rounds until ``budget`` seconds are spent (and the
    workload's minimum is met).  With tracing, plain and traced rounds
    alternate, and the minimum applies to each kind."""
    from perfbench.probe import probe, scale
    from perfbench.stats import median

    plain, traced = [], []
    start = perf_counter()
    before = probe()

    def timed(rnd):
        # the host's speed on either side of the round sets its scale
        nonlocal before
        after = probe()
        rnd.scale = scale(before, after)
        before = after
        return rnd

    while True:
        # each round starts without the last one's garbage, as in a
        # fresh process: simulators hold reference cycles, and their
        # collection would otherwise land in whichever round runs next
        gc.collect()
        done = len(traced) if trace else len(plain)
        elapsed = perf_counter() - start
        walls = [r.wall for r in plain + traced]
        if done >= work.min_rounds and \
                elapsed + median(walls) * (2 if trace else 1) > budget:
            break
        plain.append(timed(work.round()))
        if trace:
            gc.collect()
            instr.install()
            try:
                traced.append(timed(work.round(recorder)))
            finally:
                instr.uninstall()
    return plain, traced


def _round_record(rnd, traced):
    """The round as JSON, its times in reference-host seconds."""
    from perfbench.stats import stats_digest

    k = rnd.scale
    return {
        "traced": traced,
        "wall": rnd.wall * k,
        "host_wall": rnd.wall,
        "scale": k,
        "sweep_ms": [x * k for x in rnd.sweep_ms],
        "result_ms": [x * k for x in rnd.result_ms],
        "router_cycles": rnd.router_cycles,
        "attempted": rnd.attempted,
        "failed": rnd.failed,
        "errors": rnd.errors,
        "paper_err_pct": rnd.paper_err_pct,
        "digest": stats_digest(rnd.stats),
    }


def worker(args):
    """Set the workload up, say ``ready``, run rounds for ``--seconds``
    and print them as one JSON line."""
    from perfbench.probe import REFERENCE_S, probe
    from perfbench.workloads import WORKLOADS

    work = WORKLOADS[args.workload](args.seed, args.worker)
    work.setup()
    print("ready", flush=True)
    setup_scale = REFERENCE_S / probe()
    try:
        work.prepare(args.shared)
        from perfbench.ledger import Instrumentation, layer_metrics
        from perfbench.spans import SpanRecorder, write_chrome_trace

        recorder = SpanRecorder()
        plain, traced = _rounds(work, args.seconds, args.trace, recorder,
                                Instrumentation(recorder))
    finally:
        work.close()
    out = {
        "rounds": [_round_record(r, False) for r in plain]
        + [_round_record(r, True) for r in traced],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "setup_scale": setup_scale,
    }
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-{args.seed}.json"
        write_chrome_trace(recorder.spans, path)
        out["trace"] = f"{path.relative_to(ROOT)} ({len(recorder.spans)} spans)"
        out["layers"] = layer_metrics(recorder.spans, traced, plain)
    print(json.dumps(out), flush=True)


# -------------------------------------------------------------- parent


def _spawn(args, workdir, shared, budget):
    """Run one worker; returns ``(setup seconds, its JSON record)``.
    Setup is timed from process start until the worker says ready."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", repr(budget),
           "--trace", str(args.trace), "--worker", str(workdir)]
    if shared is not None:
        cmd += ["--shared", str(shared)]
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True)
    try:
        ready = proc.stdout.readline()
        setup = perf_counter() - t0
        body, _ = proc.communicate(timeout=WORKER_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.communicate()
    if ready.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"{args.workload} worker failed "
                           f"(exit {proc.returncode})")
    return setup, json.loads(body.strip().splitlines()[-1])


def _check(name, seed, rounds, pinned):
    """Failures plus the digest gate: every round repeats the first bit
    for bit, and the default seed reproduces the pinned digest."""
    from perfbench.inputs import DEFAULT_SEED

    attempted = sum(r["attempted"] for r in rounds) + len(rounds)
    failed = sum(r["failed"] for r in rounds)
    errors = [e for r in rounds for e in r["errors"]]
    want = pinned.get(name) if seed == DEFAULT_SEED else rounds[0]["digest"]
    for n, r in enumerate(rounds):
        if r["digest"] != want:
            failed += 1
            errors.append(f"round {n}: digest {r['digest'][:16]} != "
                          f"{str(want)[:16]}")
    return attempted, failed, errors


#: tail figures printed for people but not gated in BENCHMARK.json:
#: on this kind of host their run-to-run spread exceeds any usable bound
UNGATED = ("sweep_p90_ms", "result_p50_ms", "result_p99_ms")


def _end_to_end(rounds, setups, maxrss_kb, ok_fraction):
    """Every end-to-end metric, plus notes on which percentile each
    tail figure could use."""
    from perfbench.stats import median, reported

    sweeps = [x for r in rounds for x in r["sweep_ms"]]
    results = [x for r in rounds for x in r["result_ms"]]
    tails = {
        "sweep": {p: reported(sweeps, p) for p in (50, 90)},
        "result": {p: reported(results, p) for p in (50, 99)},
    }
    metrics = {
        "setup_s": (median(setups), "s"),
        "wall_s": (median([r["wall"] for r in rounds]), "s"),
        "router_cycles_per_s": (
            median([r["router_cycles"] / r["wall"] for r in rounds]), "1/s"),
        "peak_rss_mb": (maxrss_kb / 1024, "MB"),
        "ok_fraction": (ok_fraction, "fraction"),
        "paper_err_pct": (rounds[0]["paper_err_pct"], "%"),
        "sweep_p50_ms": (tails["sweep"][50][1], "ms"),
        "sweep_p90_ms": (tails["sweep"][90][1], "ms"),
        "result_p50_ms": (tails["result"][50][1], "ms"),
        "result_p99_ms": (tails["result"][99][1], "ms"),
    }
    notes = [
        f"{what}: n={len(xs)} ("
        + ", ".join(f"{what}_p{p}_ms is p{q}" for p, (q, _) in t.items())
        + "; a tail percentile needs 10 samples beyond it)"
        for what, xs, t in (("sweep", sweeps, tails["sweep"]),
                            ("result", results, tails["result"]))
    ]
    return metrics, notes


def main(argv=None):
    args = _parse(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no repro sources under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    if args.worker:
        worker(args)
        return 0

    from perfbench.ledger import PER_LAYER
    from perfbench.workloads import WORKLOADS

    workers = 1 if args.trace else WORKERS
    workdir = OUT_DIR / f"work-{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        shared = WORKLOADS[args.workload].build_shared(
            args.seed, workdir / "shared")
        setups, records = [], []
        start = perf_counter()
        for n in range(workers):
            # a worker's unused share of the run carries over to the next
            left = args.seconds - (perf_counter() - start)
            setup, record = _spawn(args, workdir / f"worker-{n}", shared,
                                   max(left, 0.0) / (workers - n))
            setups.append(setup * record["setup_scale"])
            records.append(record)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    rounds = [r for record in records for r in record["rounds"]]
    pinned = json.loads((HERE / "digests.json").read_text())
    attempted, failed, errors = _check(args.workload, args.seed, rounds,
                                       pinned)
    for e in errors[:20]:
        print(f"FAILED: {e}")
    plain = [r for r in rounds if not r["traced"]]
    print("round walls (host s):",
          " ".join(f"{r['host_wall']:.3f}" for r in plain))
    print("round scales:", " ".join(f"{r['scale']:.3f}" for r in plain))
    print(f"{args.workload} seed={args.seed} workers={workers} "
          f"rounds={len(plain)}+{len(rounds) - len(plain)} traced "
          f"digest={rounds[0]['digest']}")
    if args.trace:
        print(f"trace: {records[0]['trace']}")
        layers = records[0]["layers"]
        metrics = {name: (layers[name], unit) for name, unit, _ in PER_LAYER}
    else:
        metrics, notes = _end_to_end(
            plain, setups, max(r["maxrss_kb"] for r in records),
            1.0 - failed / attempted)
        print("\n".join(notes))
        for name in UNGATED:
            value, unit = metrics.pop(name)
            print(f"  {name:34s} {value:14.6g} {unit} (not gated)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:34s} {value:14.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
