"""The repository benchmark: paper-exhibit wall time, 16x16 array-kernel
sweeps and sweep-service latency, with a traced per-layer ledger.

Run one workload with ``python3 perfbench/run.py --workload <name>
--seed <n> --seconds <s> --trace <0|1>`` from the repository root; see
``perfbench/README.md``.
"""
