"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload {sweep,sharded,service} --seed N \\
        --seconds S --trace {0,1}

``--trace 0`` measures the end-to-end metrics over one window of S seconds.
``setup_s`` is the median of three cold set-ups: this process's own and
those of two fresh processes started afterwards with ``--setup-only``
(which prints one ``{"setup_s": ...}`` line and exits).  ``--trace 1``
splits S seconds into ten windows, five untraced alternating with five
that have the layer wrappers installed, and prints the per-layer metrics
(spans are written to ``.bench_out/``).  Either way a seeded sample of the
jobs is re-computed with the reference simulator afterwards.  A job that
raises, is rejected, is left unfinished or fails that check counts as
failed; any failed job, or a run in which no job completed, makes the run
incorrect and the exit code 1.  The last line printed is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

#: Set-ups in fresh processes, beside the run's own, that ``setup_s`` is
#: the median of.  A second set-up in the same process would find the
#: program's process-wide caches warm.
FRESH_SETUPS = 2
#: How long one fresh set-up process may take.
SETUP_TIMEOUT_S = 120


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only set the workload up and print setup_s")
    return parser.parse_args(argv)


def fresh_setups(args: argparse.Namespace, root: Path) -> list[float]:
    """``setup_s`` of :data:`FRESH_SETUPS` fresh processes, one at a time."""
    times = []
    for _ in range(FRESH_SETUPS):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()),
             "--workload", args.workload, "--seed", str(args.seed),
             "--seconds", "0", "--setup-only"],
            cwd=root, capture_output=True, text=True, timeout=SETUP_TIMEOUT_S,
            check=True,
        )
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no src/repro under {root}; run from the repository root",
              file=sys.stderr)
        return 2
    spec = json.loads((root / "BENCHMARK.json").read_text())
    sys.path[:0] = [str(root / "src"), str(root)]
    from perfbench import host
    from perfbench.measure import measure
    from perfbench.stats import tail_supported
    from perfbench.workloads import WORKLOADS

    import_s = time.perf_counter() - _STARTED
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2

    run_dir = root / ".bench_run" / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    workload = WORKLOADS[args.workload](args.seed, run_dir)
    if args.setup_only:
        try:
            began = time.perf_counter()
            workload.build()
            setup_s = import_s + time.perf_counter() - began
        finally:
            workload.close()
            shutil.rmtree(run_dir, ignore_errors=True)
        print(json.dumps({"setup_s": setup_s}))
        return 0
    try:
        result = measure(
            workload,
            args.seconds,
            bool(args.trace),
            fixed_s=import_s,
            spans_path=root / ".bench_out" / f"spans-{args.workload}-seed{args.seed}.jsonl",
        )
        host_record = host.record(workload.state_bytes(), run_dir)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    if result.kind == "end_to_end" and result.correct:
        result.values["setup_s"] = statistics.median(
            [result.values["setup_s"], *fresh_setups(args, root)]
        )
    metrics = {
        entry["name"]: {"value": result.values[entry["name"]], "unit": entry["unit"]}
        for entry in spec[result.kind]
    }
    phases = result.phases
    print("host " + json.dumps(host_record))
    print(
        f"workload {args.workload}: {workload.loop} loop, "
        f"{sum(p.completed for p in phases)} jobs completed in "
        f"{sum(p.elapsed_s for p in phases):.2f} s, "
        f"{len(workload.reservoir.items)} checked against simulate_reference"
    )
    if workload.fsyncs:
        fs = host_record["run_filesystem"]
        print(f"  journal/checkpoint fsync on {fs['type']} ({fs['device']} at {fs['mount']})")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']!r} {entry['unit']}")
    print(f"  error_rate = {result.failed / max(result.attempted, 1)!r} fraction "
          f"({result.failed} of {result.attempted} jobs failed)")
    if not result.completed:
        print("  failure: no job completed")
    if result.kind == "end_to_end" and not tail_supported(phases[0].completed, 0.9):
        print(f"  note: latency_p90_ms rests on {phases[0].completed} samples; "
              f"p90 needs at least 100")
    for message in [m for p in phases for m in p.errors][:10] + result.problems[:10]:
        print(f"  failure: {message}")
    print(json.dumps({
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": metrics,
    }))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
