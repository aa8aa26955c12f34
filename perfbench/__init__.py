"""The repository benchmark: seeded workloads timed end to end and per layer.

Run ``python3 perfbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; ``README.md`` beside this file
describes the workloads, the metrics and the reference figures.
"""
