"""One benchmark run of one workload: set-up, timed window(s), correctness."""

from __future__ import annotations

import resource
import time
from dataclasses import dataclass, field
from pathlib import Path

from . import layers
from .spans import Recorder
from .stats import percentile
from .workloads import Phase, Workload


@dataclass
class Measurement:
    """Everything one run measured, before it is printed."""

    kind: str  # "end_to_end" or "per_layer"
    values: dict[str, float]
    phases: list[Phase]
    mismatched: int = 0
    problems: list[str] = field(default_factory=list)

    @property
    def attempted(self) -> int:
        return sum(p.attempted for p in self.phases)

    @property
    def completed(self) -> int:
        return sum(p.completed for p in self.phases)

    @property
    def failed(self) -> int:
        """Failed, rejected or unfinished jobs, plus jobs whose outputs
        failed the correctness gate."""
        return sum(p.failed for p in self.phases) + self.mismatched

    @property
    def correct(self) -> bool:
        """No job failed in any way, and at least one completed (a run of
        failures alone has no latencies to report)."""
        return self.failed == 0 and self.completed > 0


def peak_rss_mb() -> float:
    """Peak resident memory of this process so far (Linux reports KiB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(
    workload: Workload,
    seconds: float,
    trace: bool,
    *,
    fixed_s: float = 0.0,
    max_jobs: int | None = None,
    spans_path: Path | None = None,
) -> Measurement:
    """Set *workload* up, measure, then check a sample.

    Untraced, one window of *seconds* gives the end-to-end metrics, with
    ``setup_s = fixed_s + set-up time`` (*fixed_s* is the import time).
    This is the process's first set-up, so its plans are cold.  Traced, *seconds* are split into
    :data:`BLOCKS` windows, alternately untraced and traced; the traced
    windows' spans and counters give the per-layer metrics.  *max_jobs*
    caps the jobs of each window.  The workload is closed on return.
    """
    try:
        began = time.perf_counter()
        workload.build()
        setup_s = fixed_s + time.perf_counter() - began
        if not trace:
            phase = workload.run_phase(seconds, max_jobs=max_jobs)
            result = Measurement(
                "end_to_end",
                {
                    "setup_s": setup_s,
                    "circuits_per_s": phase.circuits_per_s,
                    "latency_p50_ms": percentile(phase.latencies_ms, 0.5),
                    "latency_p90_ms": percentile(phase.latencies_ms, 0.9),
                    "peak_rss_mb": peak_rss_mb(),
                },
                [phase],
            )
        else:
            result = _traced(workload, seconds, max_jobs, spans_path)
        result.mismatched, result.problems = workload.check_sample()
        return result
    finally:
        workload.close()


#: Windows of a traced run: untraced and traced alternate, so that both
#: halves see the same spells of host noise.
BLOCKS = 10


def _traced(
    workload: Workload, seconds: float, max_jobs: int | None, spans_path: Path | None
) -> Measurement:
    recorder = Recorder()
    untraced, traced = [], []
    counters: dict = {}
    for block in range(BLOCKS):
        if block % 2 == 0:
            untraced.append(workload.run_phase(seconds / BLOCKS, max_jobs=max_jobs))
            continue
        before = workload.snapshot()
        layers.install(recorder)
        try:
            traced.append(workload.run_phase(seconds / BLOCKS, recorder, max_jobs=max_jobs))
        finally:
            recorder.unwrap()
        layers.add_counters(counters, layers.counter_delta(before, workload.snapshot()))
    extras = layers.program_op_counts(
        workload.session,
        [circuit for circuit, _ in workload.reservoir.items],
        workload.num_qubits,
    )
    extras.update(workload.layer_extras())
    untraced_all, traced_all = Phase.merge(untraced), Phase.merge(traced)
    values = layers.compute(
        recorder, counters, untraced_all, traced_all, workload.loop, extras
    )
    layers.correlate_journal(recorder.spans)
    if spans_path is not None:
        recorder.write(spans_path)
    return Measurement("per_layer", values, [untraced_all, traced_all])
