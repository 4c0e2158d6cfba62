"""The simulator's benchmark: four workloads, output checks and a traced run.

Run it with ``python3 simbench/run.py --workload <name> --seed <n>
--seconds <s> --trace <0|1>`` from the repository root; see README.md.
"""
