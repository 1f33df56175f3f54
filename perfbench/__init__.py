"""Layered benchmark for voicegroup.

Run one workload with ``python3 perfbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root. ``--trace 0`` prints
the end-to-end metrics; ``--trace 1`` prints the per-layer metrics, the
modulus sweep and the tracing overhead. ``BENCHMARK.json`` at the root lists
the workloads and metrics. The fast self-tests run with
``python3 -m pytest perfbench -q``.
"""
