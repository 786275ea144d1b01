"""Repository benchmark for the ``repro`` package.

``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` runs one workload in fresh processes and prints one JSON
result line.  See ``perfbench/README.md`` for the workloads and metrics.
"""
