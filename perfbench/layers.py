"""Per-layer metrics of the traced run: where they are measured, what they
should move, and how they are computed.

:data:`LAYER_METRICS` is the layer -> metric -> workload map: for every
per-layer metric in ``BENCHMARK.json`` (which holds its unit and which
direction is better) the end-to-end metric it should move, and on which
workload.  A metric whose layer a workload does not exercise reads 0 on
that workload.

Counts and totals are per job completed in the traced windows (units
``count/job``, ``ms/job``), names ending in ``_total`` included: a faster
closed loop finishes more jobs in a window, which must not read as more
work per job.

:func:`install` puts timing wrappers on the layers' public entry points,
patched where the calling code looks each one up, so that a traced run
records spans without any change to the program.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from .spans import Recorder, Span
from .stats import percentile, ratio, self_time

#: Op kinds the program compiler emits (``CompiledProgram.op_counts``).
OP_KINDS = ("dense", "diagonal", "permutation", "controlled", "big", "layout")

#: metric -> (end-to-end metric it should move, workload).
LAYER_METRICS: dict[str, tuple[str, str]] = {
    # service: admission, scheduling, write-ahead journal, shared store
    "service.submit_ms_p50": ("latency_p50_ms", "service"),
    "service.queue_wait_ms_mean": ("latency_p90_ms", "service"),
    "service.journal_append_ms_p50": ("latency_p50_ms", "service"),
    "service.journal_appends": ("latency_p50_ms", "service"),
    "service.store_hit_ratio": ("latency_p90_ms", "service"),
    "service.rejected": ("error_rate", "service"),
    # session: plan cache, rebind, sampling and the facade itself
    "session.run_ms_p50": ("latency_p50_ms", "sweep"),
    "session.plan_for_hit_ms_p50": ("latency_p50_ms", "sweep"),
    "session.plan_for_miss_ms_p50": ("latency_p90_ms", "service"),
    "session.rebind_plan_ms_p50": ("latency_p50_ms", "sweep"),
    "session.cache_hit_ratio": ("latency_p90_ms", "service"),
    "session.sample_ms_p50": ("latency_p50_ms", "sweep"),
    "session.self_ms_p50": ("latency_p50_ms", "sweep"),
    "session.unattributed_frac": ("latency_p50_ms", "sweep"),
    "session.fallbacks": ("latency_p90_ms", "service"),
    # planner / core / ilp: cold planning
    "planner.plan_ms_p50": ("latency_p90_ms", "service"),
    "planner.stage_ms_total": ("latency_p90_ms", "service"),
    "planner.kernelize_ms_total": ("latency_p90_ms", "service"),
    "planner.plans_built": ("latency_p90_ms", "service"),
    # runtime.compile: plan -> program lowering
    "compile.cold_ms_p50": ("latency_p90_ms", "service"),
    "compile.rebind_ms_p50": ("latency_p50_ms", "sweep"),
    "compile.ops_reused_ratio": ("latency_p50_ms", "sweep"),
    # runtime stage loop: permute, shard load/compute/store, durability
    "runtime.execute_ms_p50": ("latency_p50_ms", "sharded"),
    "runtime.load_s": ("latency_p50_ms", "sharded"),
    "runtime.store_s": ("latency_p50_ms", "sharded"),
    "runtime.compute_s": ("latency_p50_ms", "sharded"),
    "runtime.shard_loads": ("circuits_per_s", "sharded"),
    "runtime.bytes_transferred": ("circuits_per_s", "sharded"),
    "runtime.stages": ("circuits_per_s", "sharded"),
    "runtime.schedule_cache_hit_ratio": ("latency_p50_ms", "sharded"),
    "runtime.checkpoint_write_ms_p50": ("latency_p50_ms", "sharded"),
    "runtime.checkpoints_written": ("latency_p50_ms", "sharded"),
    "runtime.checkpoint_bytes": ("latency_p50_ms", "sharded"),
    "runtime.monitor_ms_total": ("latency_p50_ms", "sharded"),
    "runtime.integrity_checks": ("latency_p50_ms", "sharded"),
    "runtime.parallel_efficiency": ("circuits_per_s", "sharded"),
    "runtime.retries": ("latency_p90_ms", "sharded"),
    # sim: compiled-program execution on the in-core backend
    "sim.execute_ms_p50": ("latency_p50_ms", "sweep"),
    **{
        f"sim.program_ops.{kind}": ("latency_p50_ms", "sweep")
        for kind in OP_KINDS
    },
    "sim.bytes_computed": ("latency_p50_ms", "sweep"),
    "sim.fusion_cache_hit_ratio": ("latency_p50_ms", "sweep"),
    # check: static verification
    "check.verify_ms_p50": ("latency_p50_ms", "service"),
    "check.static_checks": ("latency_p50_ms", "service"),
    # the harness itself
    "bench.gen_lag_p90_ms": ("latency_p90_ms", "service"),
    "bench.trace_overhead_frac": ("circuits_per_s", "sweep"),
}


def install(recorder: Recorder) -> None:
    """Wrap every traced entry point (undo with ``recorder.unwrap()``)."""
    session_mod = importlib.import_module("repro.session.session")
    parallel_mod = importlib.import_module("repro.runtime.parallel")
    check_pkg = importlib.import_module("repro.check")
    from repro.planner import PassManager
    from repro.runtime import IntegrityMonitor, ParallelRuntime
    from repro.service import JobJournal, SimulationService
    from repro.sim import CompiledProgram, StateVector

    def circuit_job(args, kwargs):
        circuits = args[1] if len(args) > 1 else kwargs.get("circuits")
        first = circuits[0] if isinstance(circuits, (list, tuple)) else circuits
        return recorder.job_for(first)

    def journal_attrs(args, kwargs, _result):
        return {
            "type": args[1] if len(args) > 1 else kwargs.get("type"),
            "journal_job": args[2] if len(args) > 2 else kwargs.get("job"),
        }

    def compile_attrs(args, kwargs, program):
        return {
            "rebind": kwargs.get("reuse") is not None,
            "ops": len(program),
            "reused": program.ops_reused,
        }

    wrap = recorder.wrap
    wrap(SimulationService, "submit", "service.submit")
    wrap(JobJournal, "append", "service.journal_append", attrs_of=journal_attrs)
    wrap(session_mod.Session, "run", "session.run", job_of=circuit_job)
    wrap(session_mod.Session, "plan_for", "session.plan_for",
         attrs_of=lambda a, k, r: {"hit": bool(r[2])})
    wrap(session_mod, "rebind_plan", "session.rebind_plan")
    wrap(session_mod, "compile_plan", "compile.compile_plan", attrs_of=compile_attrs)
    wrap(PassManager, "run", "planner.plan")
    # Session._static_check imports these from the package at call time.
    for name in ("verify_plan", "verify_program", "verify_schedule"):
        wrap(check_pkg, name, f"check.{name}")
    wrap(StateVector, "sample", "session.sample")
    wrap(StateVector, "expectation_z_product", "session.expectation")
    wrap(CompiledProgram, "run", "sim.execute")
    wrap(CompiledProgram, "run_batched", "sim.execute")
    wrap(ParallelRuntime, "execute", "runtime.execute")
    wrap(ParallelRuntime, "run_batch", "runtime.run_batch")
    wrap(parallel_mod, "write_checkpoint", "runtime.checkpoint_write",
         attrs_of=lambda a, k, r: {"bytes": k["state"].nbytes})
    wrap(IntegrityMonitor, "stage_begin", "runtime.monitor")
    wrap(IntegrityMonitor, "stage_complete", "runtime.monitor")


def correlate_journal(spans: list[Span]) -> None:
    """Give the scheduler thread's journal appends the job of their submission.

    A ``submitted`` record is appended inside ``submit`` on the generator
    thread, which knows the job; later records of the same journal id
    (``running``, ``completed``) come from the scheduler thread.
    """
    journal = [s for s in spans if s.name == "service.journal_append"]
    owner = {
        s.attrs.get("journal_job"): s.job
        for s in journal
        if s.attrs.get("type") == "submitted" and s.job is not None
    }
    for span in journal:
        if span.job is None:
            span.job = owner.get(span.attrs.get("journal_job"))


def counter_delta(before: dict, after: dict) -> dict:
    """``after - before`` for every numeric counter of two snapshots."""
    out: dict = {}
    for key, value in after.items():
        if isinstance(value, dict):
            out[key] = counter_delta(before.get(key, {}), value)
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            out[key] = value - before.get(key, 0)
    return out


def add_counters(total: dict, delta: dict) -> None:
    """Add the counters of *delta* into *total*, in place."""
    for key, value in delta.items():
        if isinstance(value, dict):
            add_counters(total.setdefault(key, {}), value)
        else:
            total[key] = total.get(key, 0) + value


def compute(
    recorder: Recorder,
    counters: dict,
    untraced,
    traced,
    loop: str,
    extras: dict,
) -> dict[str, float]:
    """Every per-layer metric of a traced run.

    *counters* are the workload's counter increments over the traced
    windows, *untraced*/*traced* the merged windows of each kind, and
    *extras* the measurements taken after them (parallel efficiency,
    program op counts).
    """
    spans = recorder.spans
    by_name: dict[str, list[Span]] = defaultdict(list)
    children: dict[int, list[tuple[int, int]]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))

    def p50(name: str, keep=lambda s: True) -> float:
        return percentile([s.ms for s in by_name[name] if keep(s)], 0.5)

    def per_job_ms(names: tuple[str, ...]) -> list[float]:
        totals: dict[object, float] = defaultdict(float)
        for name in names:
            for span in by_name[name]:
                if span.job is not None:
                    totals[span.job] += span.ms
        return list(totals.values())

    def d(*path: str) -> float:
        value = counters
        for key in path:
            value = value.get(key, {})
        # A counter the workload does not keep reads as an empty dict: 0.
        return value or 0

    def per_job(total: float) -> float:
        return ratio(total, traced.completed)

    m: dict[str, float] = {}
    m["service.submit_ms_p50"] = p50("service.submit")
    m["service.queue_wait_ms_mean"] = 1e3 * ratio(
        d("service", "wait_seconds"), d("service", "dispatched")
    )
    m["service.journal_append_ms_p50"] = p50("service.journal_append")
    m["service.journal_appends"] = per_job(d("service", "journal_appends"))
    m["service.store_hit_ratio"] = ratio(
        d("store", "hits"), d("store", "hits") + d("store", "misses")
    )
    # Rejected jobs never complete: per job attempted.
    m["service.rejected"] = ratio(d("service", "rejected"), traced.attempted)

    runs = by_name["session.run"]
    own = [self_time(s.start, s.end, children[s.id]) / 1e6 for s in runs]
    m["session.run_ms_p50"] = p50("session.run")
    m["session.plan_for_hit_ms_p50"] = p50("session.plan_for", lambda s: s.attrs.get("hit"))
    m["session.plan_for_miss_ms_p50"] = p50(
        "session.plan_for", lambda s: not s.attrs.get("hit")
    )
    m["session.rebind_plan_ms_p50"] = p50("session.rebind_plan")
    hits = d("session", "cache_hits")
    m["session.cache_hit_ratio"] = ratio(hits, hits + d("session", "cache_misses"))
    m["session.sample_ms_p50"] = percentile(
        per_job_ms(("session.sample", "session.expectation")), 0.5
    )
    m["session.self_ms_p50"] = percentile(own, 0.5)
    m["session.unattributed_frac"] = ratio(sum(own), sum(s.ms for s in runs))
    m["session.fallbacks"] = per_job(d("session", "fallbacks"))

    m["planner.plan_ms_p50"] = p50("planner.plan")
    m["planner.stage_ms_total"] = per_job(
        1e3 * d("session", "planning_pass_seconds", "stage")
    )
    m["planner.kernelize_ms_total"] = per_job(
        1e3 * d("session", "planning_pass_seconds", "kernelize")
    )
    m["planner.plans_built"] = per_job(d("session", "plans_built"))

    rebinds = [s for s in by_name["compile.compile_plan"] if s.attrs.get("rebind")]
    m["compile.cold_ms_p50"] = p50("compile.compile_plan", lambda s: not s.attrs.get("rebind"))
    m["compile.rebind_ms_p50"] = p50("compile.compile_plan", lambda s: s.attrs.get("rebind"))
    m["compile.ops_reused_ratio"] = ratio(
        sum(s.attrs["reused"] for s in rebinds), sum(s.attrs["ops"] for s in rebinds)
    )

    shard_jobs = [s for s in traced.exec_stats if hasattr(s, "per_worker")]

    def per_job_mean(value) -> float:
        return ratio(sum(value(s) for s in shard_jobs), len(shard_jobs))

    m["runtime.execute_ms_p50"] = p50("runtime.execute")
    m["runtime.load_s"] = per_job_mean(lambda s: sum(w.load_seconds for w in s.per_worker))
    m["runtime.store_s"] = per_job_mean(lambda s: sum(w.store_seconds for w in s.per_worker))
    m["runtime.compute_s"] = per_job_mean(
        lambda s: sum(w.compute_seconds for w in s.per_worker)
    )
    m["runtime.shard_loads"] = per_job_mean(lambda s: s.shard_loads)
    m["runtime.bytes_transferred"] = per_job_mean(lambda s: s.bytes_transferred)
    m["runtime.stages"] = per_job_mean(lambda s: s.num_stages)
    sched_hits = d("session", "schedule_cache_hits")
    m["runtime.schedule_cache_hit_ratio"] = ratio(
        sched_hits, sched_hits + d("session", "schedule_cache_misses")
    )
    m["runtime.checkpoint_write_ms_p50"] = p50("runtime.checkpoint_write")
    m["runtime.checkpoints_written"] = per_job(d("session", "checkpoints_written"))
    m["runtime.checkpoint_bytes"] = ratio(
        sum(s.attrs["bytes"] for s in by_name["runtime.checkpoint_write"]),
        len(shard_jobs),
    )
    m["runtime.monitor_ms_total"] = per_job(sum(s.ms for s in by_name["runtime.monitor"]))
    m["runtime.integrity_checks"] = per_job(d("session", "integrity_checks"))
    m["runtime.parallel_efficiency"] = extras.get("parallel_efficiency", 0.0)
    m["runtime.retries"] = per_job(d("session", "retries"))

    m["sim.execute_ms_p50"] = p50("sim.execute")
    ops = extras.get("program_ops", {})
    for kind in OP_KINDS:
        m[f"sim.program_ops.{kind}"] = ops.get(kind, 0.0)
    m["sim.bytes_computed"] = extras.get("bytes_computed", 0.0)
    fusion_hits = d("fusion", "hits")
    m["sim.fusion_cache_hit_ratio"] = ratio(
        fusion_hits, fusion_hits + d("fusion", "misses")
    )

    m["check.verify_ms_p50"] = percentile(
        per_job_ms(("check.verify_plan", "check.verify_program")), 0.5
    )
    m["check.static_checks"] = per_job(d("session", "static_checks"))

    m["bench.gen_lag_p90_ms"] = percentile(traced.gen_lag_ms, 0.9)
    if loop == "closed":
        # Closed loop: tracing slows every job, so throughput drops.
        m["bench.trace_overhead_frac"] = 1.0 - ratio(
            traced.circuits_per_s, untraced.circuits_per_s
        )
    else:
        # Open loop: throughput is pinned to the arrival rate; the
        # overhead shows in latency instead.
        m["bench.trace_overhead_frac"] = ratio(
            percentile(traced.latencies_ms, 0.5), percentile(untraced.latencies_ms, 0.5)
        ) - 1.0
    return m


def program_op_counts(session, circuits, num_qubits: int) -> dict:
    """Mean ops per kind, and computed bytes, of the programs the session
    runs for *circuits* (empty when the backend runs no programs)."""
    programs = [session.plan_for(c)[4] for c in circuits]
    programs = [p for p in programs if p is not None]
    if not programs:
        return {}
    counts: dict[str, float] = defaultdict(float)
    for program in programs:
        for kind, count in program.op_counts().items():
            counts[kind] += count / len(programs)
    total_ops = sum(len(p) for p in programs) / len(programs)
    return {
        "program_ops": dict(counts),
        # Every op streams the whole state once: computed, not measured.
        "bytes_computed": total_ops * (16 << num_qubits),
    }
