"""The repository benchmark: seeded user workloads, end-to-end metrics
and a traced run that splits wall time over the ``src/repro`` layers.

Run it from the repository root::

    python3 perfbench/run.py --workload converge --seed 1 --seconds 24 --trace 0

See ``perfbench/README.md`` for the workloads, the metrics and what each
layer metric should move.
"""
