"""End-to-end benchmark of the simulator, with a traced per-layer breakdown.

Run one workload per process from the repository root::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0

``--trace 0`` prints the end-to-end metrics named in ``BENCHMARK.json``;
``--trace 1`` installs timing wrappers around the layers' public entry
points and prints the per-layer metrics instead.  The last line of standard
output is always one JSON object; the lines before it are a host record and
a human-readable summary.  See :mod:`perfbench.layers` for which end-to-end
metric each per-layer metric should move, and on which workload.
"""
