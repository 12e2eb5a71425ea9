"""Tests of the benchmark harness: the percentile rule, self-time arithmetic,
the span recorder and a tiny smoke run of every workload.

Fast and deterministic: workloads run at toy sizes and stop after a fixed
number of jobs; nothing here asserts on wall-clock readings.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

import pytest

from perfbench import layers
from perfbench.measure import BLOCKS, measure
from perfbench.spans import Recorder
from perfbench.stats import covered, percentile, samples_beyond, self_time, tail_supported
from perfbench.workloads import WORKLOADS, Reservoir, Service, Sharded, Sweep

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


# -- percentile rule ------------------------------------------------------


def test_nearest_rank_percentiles():
    values = list(range(1, 101))
    assert percentile(values, 0.5) == 50
    assert percentile(values, 0.9) == 90
    assert percentile([3.0, 1.0, 2.0], 0.5) == 2.0
    assert percentile([], 0.9) == 0.0
    # 0.9 * 110 is 99.00000000000001 in floating point; the rank stays 99.
    assert percentile(list(range(1, 111)), 0.9) == 99


def test_p90_needs_ten_samples_beyond_it():
    assert samples_beyond(100, 0.9) == 10
    assert tail_supported(100, 0.9)
    assert not tail_supported(99, 0.9)
    assert not tail_supported(0, 0.9)
    assert tail_supported(20, 0.5)


# -- self time ------------------------------------------------------------


def test_self_time_subtracts_the_union_of_children():
    # Overlapping children count once; the part outside the parent is cut.
    children = [(1, 3), (2, 5), (8, 12)]
    assert covered(children, 0, 10) == 6
    assert self_time(0, 10, children) == 4


def test_self_time_edge_cases():
    assert self_time(0, 10, []) == 10
    assert self_time(0, 10, [(0, 10), (2, 3)]) == 0
    assert self_time(0, 10, [(-5, -1), (10, 20)]) == 10
    assert self_time(5, 10, [(0, 20)]) == 0


# -- recorder -------------------------------------------------------------


class _Target:
    def add(self, a, b=0):
        return a + b

    def echo(self, x):
        return x

    def fail(self):
        raise KeyError("boom")


def test_wrapper_times_forwards_and_restores():
    recorder = Recorder()
    original = _Target.__dict__["add"]
    recorder.wrap(_Target, "add", "t.add", attrs_of=lambda a, k, r: {"r": r})
    recorder.wrap(_Target, "fail", "t.fail")
    try:
        target = _Target()
        with recorder.job("job-1"):
            with recorder.span("outer"):
                assert target.add(2, b=3) == 5
        with pytest.raises(KeyError):
            target.fail()
    finally:
        recorder.unwrap()
    assert _Target.__dict__["add"] is original
    spans = {s.name: s for s in recorder.spans}
    assert spans["t.add"].parent == spans["outer"].id
    assert spans["t.add"].job == "job-1"
    assert spans["t.add"].attrs == {"r": 5}
    assert spans["t.add"].end >= spans["t.add"].start
    assert spans["t.fail"].attrs == {"error": True}
    assert spans["t.fail"].job is None


def test_bound_objects_name_their_job():
    # The service's scheduler thread declares no job; the wrapper finds it
    # from the object the call works on, and nested spans inherit it.
    recorder = Recorder()
    item = object()
    recorder.bind(item, "job-7")
    recorder.wrap(_Target, "echo", "t.echo", job_of=lambda a, k: recorder.job_for(a[1]))
    try:
        assert _Target().echo(item) is item
        with recorder.span("outer", job="job-8"):
            with recorder.span("inner"):
                pass
    finally:
        recorder.unwrap()
    jobs = {s.name: s.job for s in recorder.spans}
    assert jobs == {"t.echo": "job-7", "outer": "job-8", "inner": "job-8"}


def test_counter_deltas_add_up():
    before = {"session": {"hits": 2, "passes": {"stage": 0.5}}, "flag": True}
    after = {"session": {"hits": 5, "passes": {"stage": 1.5, "kernelize": 2.0}}, "flag": True}
    total: dict = {}
    layers.add_counters(total, layers.counter_delta(before, after))
    layers.add_counters(total, layers.counter_delta(before, after))
    assert total == {"session": {"hits": 6, "passes": {"stage": 2.0, "kernelize": 4.0}}}


def test_reservoir_is_seeded():
    def sample(seed):
        reservoir = Reservoir(seed, 3)
        for i in range(50):
            reservoir.offer(i)
        return reservoir.items

    assert sample("a") == sample("a")
    assert len(sample("a")) == 3


# -- BENCHMARK.json -------------------------------------------------------


def test_benchmark_json_matches_the_harness():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"
    }
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert {m["name"] for m in SPEC["end_to_end"]} == {
        "setup_s", "circuits_per_s", "latency_p50_ms", "latency_p90_ms", "peak_rss_mb"
    }
    assert [m["name"] for m in SPEC["per_layer"]] == list(layers.LAYER_METRICS)
    for moves, workload in layers.LAYER_METRICS.values():
        assert moves in {m["name"] for m in SPEC["end_to_end"]} | {"error_rate"}
        assert workload in WORKLOADS


# -- smoke runs -----------------------------------------------------------


def _tiny(name: str, tmp_path: Path):
    if name == "sweep":
        return Sweep(3, tmp_path, num_qubits=6)
    if name == "sharded":
        return Sharded(3, tmp_path, num_qubits=8, local_qubits=6)
    return Service(3, tmp_path, num_qubits=6, num_gates=20, rate_per_s=200.0)


@pytest.mark.parametrize("name", list(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_smoke_run(name, trace, tmp_path):
    workload = _tiny(name, tmp_path)
    # Closed loops stop each window after max_jobs; the open loop's window
    # holds exactly max_jobs arrivals (200/s over 0.06 s, capped).  A traced
    # run has BLOCKS windows of one job each.
    seconds = 0.06 if name == "service" else 600.0
    max_jobs = 1 if trace else 6
    result = measure(
        workload, seconds, trace, max_jobs=max_jobs,
        spans_path=tmp_path / "spans.jsonl",
    )
    assert result.mismatched == 0, result.problems
    assert result.failed == 0, [e for p in result.phases for e in p.errors]
    assert result.correct
    assert result.attempted == (BLOCKS if trace else 6)
    names = {m["name"] for m in SPEC[result.kind]}
    assert set(result.values) == names
    assert all(math.isfinite(v) for v in result.values.values())
    if trace:
        assert (tmp_path / "spans.jsonl").is_file()
        expected = {
            "sweep": ["sim.execute_ms_p50", "compile.rebind_ms_p50"],
            "sharded": ["runtime.execute_ms_p50", "runtime.checkpoint_write_ms_p50",
                        "runtime.monitor_ms_total", "runtime.parallel_efficiency"],
            "service": ["service.submit_ms_p50", "service.journal_append_ms_p50",
                        "check.verify_ms_p50"],
        }[name]
        assert all(result.values[m] > 0 for m in expected)
    # Every wrapper is gone again.
    from repro.session import Session

    assert not hasattr(Session.__dict__["run"], "__wrapped__")


def test_service_spans_are_correlated_to_jobs(tmp_path):
    workload = _tiny("service", tmp_path)
    measure(workload, 0.06, True, max_jobs=1,
            spans_path=tmp_path / "spans.jsonl")
    spans = [json.loads(line) for line in (tmp_path / "spans.jsonl").read_text().splitlines()]
    scheduled = [s for s in spans if s["thread"] == "repro-service-scheduler"]
    assert scheduled
    assert all(s["job"] is not None for s in scheduled)


# -- failures fail the run ------------------------------------------------


class _FailingSweep(Sweep):
    """Sets up normally; every timed job raises."""

    def execute(self, circuit):
        if self.builds:
            raise RuntimeError("injected failure")
        return super().execute(circuit)


class _RejectingService(Service):
    """Sets up normally; every timed submission is rejected."""

    def _submit(self, circuit, tenant):
        raise RuntimeError("injected rejection")


class _WrongSharded(Sharded):
    """Every checked output reads as a mismatch."""

    def check(self, circuit, result):
        return [f"{circuit.name}: injected mismatch"]


@pytest.mark.parametrize("trace", [False, True])
def test_failed_jobs_make_the_run_incorrect(trace, tmp_path):
    cases = [
        (_FailingSweep(3, tmp_path / "a", num_qubits=6), 600.0),
        (_RejectingService(3, tmp_path / "b", num_qubits=6, num_gates=20,
                           rate_per_s=200.0), 0.06),
    ]
    for workload, seconds in cases:
        result = measure(workload, seconds, trace, max_jobs=3)
        assert result.completed == 0
        assert result.failed == result.attempted > 0
        assert not result.correct
        assert all(v == 0.0 for k, v in result.values.items()
                   if k.startswith("latency_"))


def test_mismatches_make_the_run_incorrect(tmp_path):
    workload = _WrongSharded(3, tmp_path, num_qubits=8, local_qubits=6)
    result = measure(workload, 600.0, False, max_jobs=3)
    assert result.completed == 3
    assert result.mismatched == len(workload.reservoir.items) > 0
    assert not result.correct


def test_command_exits_nonzero_when_jobs_fail(monkeypatch, capsys):
    from perfbench import run, workloads

    monkeypatch.chdir(ROOT)
    monkeypatch.setattr(sys, "path", sys.path[:])  # main() prepends to it
    monkeypatch.setitem(
        workloads.WORKLOADS, "sweep",
        lambda seed, run_dir: _FailingSweep(seed, run_dir, num_qubits=6),
    )
    code = run.main(["--workload", "sweep", "--seed", "3", "--seconds", "0.05",
                     "--trace", "0"])
    last = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert code != 0
    assert last["correct"] is False
    assert last["failed"] == last["attempted"] > 0
