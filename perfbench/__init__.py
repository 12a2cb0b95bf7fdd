"""The repository's end-to-end benchmark.

Three closed-loop workloads (``repair_loop``, ``navigate``, ``sql_wire``)
drive the program through its public entry points from seeded operation
scripts, check the program's outputs against oracles that do not use
minidb, and print end-to-end metrics (untraced) or per-layer metrics
(traced).  Entry point::

    python3 perfbench/run.py --workload repair_loop --seed 1 --seconds 15 --trace 0

``perfbench/MANIFEST.json`` records each workload's shape and the map from
per-layer metric to the end-to-end metric it should move.
"""
