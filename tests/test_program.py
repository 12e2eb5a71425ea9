"""Tests for compiled plan programs (`sim/program.py` + `runtime/compile.py`).

The contract under test: lowering a plan to a :class:`CompiledProgram` and
executing the op stream is **bit-exact** with the gate-at-a-time
interpreter (`execute_plan(compiled=False)`) on staged and hand-built
plans; batched ``(B, 2^n)`` execution matches B looped single-state runs
to tight tolerance (the B-wide gemm fold can change BLAS summation order,
so exact bit equality is not guaranteed there); rebound (plan-cache-hit)
programs execute the new circuit's angles while reusing every
constant-structure op; and the offload/parallel runtimes, now replaying
compiled segment ops, keep their bit-exactness guarantees.
"""

import math

import numpy as np
import pytest

import repro.circuits.gates as gates_module
import repro.runtime.compile as compile_module
from repro.circuits import Circuit
from repro.circuits.library import ghz, qft, random_circuit, vqc
from repro.cluster import MachineConfig
from repro.core import KernelizeConfig, partition
from repro.core.plan import ExecutionPlan, QubitPartition, Stage
from repro.runtime import (
    ParallelRuntime,
    compile_plan,
    compiled_program_for,
    execute_plan,
    execute_plan_offloaded,
)
from repro.runtime.offload import compile_segment_ops, run_segment_ops, run_groups_on_shard, split_stage_segments
from repro.sim import StateVector, simulate_reference
from repro.sim.fusion import configure_fusion_cache, fusion_cache_stats
from repro.session import Session
from repro.session.cache import rebind_plan

FAST_CONFIG = KernelizeConfig(pruning_threshold=16)


def _staged_plan(circuit, machine):
    plan, _ = partition(circuit, machine, kernelize_config=FAST_CONFIG)
    return plan


def _machine(n, local_offset=2):
    return MachineConfig.for_circuit(n, num_shards=4, local_qubits=n - local_offset)


CIRCUITS = [
    ("qft-10", lambda: qft(10)),
    ("vqc-10", lambda: vqc(10, seed=3)),
    ("ghz-9", lambda: ghz(9)),
    ("random-8", lambda: random_circuit(8, 80, seed=11)),
]


class TestCompiledVsInterpreted:
    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_bit_exact_on_staged_plans(self, name, factory):
        circuit = factory()
        machine = _machine(circuit.num_qubits)
        plan = _staged_plan(circuit, machine)
        compiled_state, compiled_trace = execute_plan(plan, machine=machine)
        interp_state, interp_trace = execute_plan(
            plan, machine=machine, compiled=False
        )
        assert np.array_equal(compiled_state.data, interp_state.data)
        assert simulate_reference(circuit).allclose(compiled_state)
        # The compile-time trace metadata matches what the interpreter
        # counts while executing.
        assert compiled_trace.num_stages == interp_trace.num_stages
        assert compiled_trace.num_kernels == interp_trace.num_kernels
        assert compiled_trace.num_permutations == interp_trace.num_permutations
        assert compiled_trace.kernels_per_stage == interp_trace.kernels_per_stage

    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_bit_exact_from_random_initial_state(self, name, factory):
        circuit = factory()
        n = circuit.num_qubits
        machine = _machine(n)
        plan = _staged_plan(circuit, machine)
        init = StateVector.random_state(n, seed=7)
        a, _ = execute_plan(plan, initial_state=init, machine=machine)
        b, _ = execute_plan(plan, initial_state=init, machine=machine, compiled=False)
        assert np.array_equal(a.data, b.data)

    def test_unkernelized_stage_plan(self):
        """Plans whose stages carry raw gates (kernels=None) compile too."""
        circuit = Circuit(5).h(0).cx(0, 1).rz(0.4, 1).cx(1, 2).h(3).cp(0.3, 3, 4)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2, 3, 4}, set(), set()),
            gate_indices=list(range(len(circuit.gates))),
        )
        plan = ExecutionPlan(num_qubits=5, stages=[stage])
        a, _ = execute_plan(plan)
        b, _ = execute_plan(plan, compiled=False)
        assert np.array_equal(a.data, b.data)
        assert simulate_reference(circuit).allclose(a)

    def test_locality_check_happens_at_compile_time(self):
        circuit = Circuit(4).h(3)
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1}, {2, 3}, set()),
            gate_indices=[0],
        )
        plan = ExecutionPlan(num_qubits=4, stages=[stage])
        with pytest.raises(ValueError, match="staging invariant"):
            compile_plan(plan)
        # Disabling the check compiles and runs.
        program = compile_plan(plan, check_locality=False)
        assert simulate_reference(circuit).allclose(program.run())

    def test_concurrent_execute_plan_is_safe(self):
        """Concurrent execute_plan calls on one plan share the memoized op
        stream but each thread runs on its own workspace — results must
        stay bit-exact under contention (regression: a shared ping-pong
        pair silently corrupted states)."""
        from concurrent.futures import ThreadPoolExecutor

        circuit = qft(10)
        machine = _machine(10)
        plan = _staged_plan(circuit, machine)
        want, _ = execute_plan(plan, machine=machine, compiled=False)

        def work(seed):
            state, _ = execute_plan(plan, machine=machine)
            return bool(np.array_equal(state.data, want.data))

        with ThreadPoolExecutor(max_workers=4) as pool:
            results = list(pool.map(work, range(24)))
        assert all(results), f"{results.count(False)}/24 corrupted states"

    def test_program_memo_reuses_compilation(self):
        circuit = qft(8)
        machine = _machine(8)
        plan = _staged_plan(circuit, machine)
        p1 = compiled_program_for(plan, machine)
        p2 = compiled_program_for(plan, machine)
        assert p1 is p2
        # A different plan object (even if equal) compiles separately.
        plan2 = _staged_plan(circuit, machine)
        assert compiled_program_for(plan2, machine) is not p1


class TestBatchedExecution:
    # Batched GEMMs hand BLAS differently-shaped operands than single-state
    # runs, which may reorder summations; agreement is therefore pinned at
    # a tolerance far below any circuit-level error, not at bit equality.
    ATOL = 1e-12

    @pytest.mark.parametrize("batch", [2, 7, 16])
    def test_batched_matches_looped(self, batch):
        circuit = vqc(9, seed=1)
        machine = _machine(9)
        program = compile_plan(_staged_plan(circuit, machine), machine)
        states = [StateVector.random_state(9, seed=s) for s in range(batch)]
        batched = program.run_batched(states)
        looped = [program.run(s) for s in states]
        assert len(batched) == batch
        for got, want in zip(batched, looped):
            assert np.max(np.abs(got.data - want.data)) <= self.ATOL

    def test_batched_default_initial_states(self):
        circuit = qft(8)
        machine = _machine(8)
        program = compile_plan(_staged_plan(circuit, machine), machine)
        batched = program.run_batched([None, None, None])
        single = program.run()
        for got in batched:
            assert np.max(np.abs(got.data - single.data)) <= self.ATOL

    def test_batched_results_do_not_alias_program_buffers(self):
        program = compile_plan(_staged_plan(qft(6), _machine(6)))
        states = [StateVector.random_state(6, seed=s) for s in range(3)]
        first = program.run_batched(states)
        snapshot = [r.data.copy() for r in first]
        program.run_batched([StateVector.random_state(6, seed=9)] * 3)
        for result, snap in zip(first, snapshot):
            assert np.array_equal(result.data, snap)

    def test_session_fans_one_circuit_into_one_batched_pass(self):
        n = 8
        machine = _machine(n)
        circuit = qft(n)
        states = [StateVector.random_state(n, seed=s) for s in range(4)]
        with Session(machine, backend="incore", kernelize_config=FAST_CONFIG) as s:
            job = s.run(circuit, initial_states=states)
            singles = [
                s.run(circuit, initial_state=state).results()[0] for state in states
            ]
        for fanned, single in zip(job.results(), singles):
            assert (
                np.max(np.abs(fanned.state.data - single.state.data)) <= self.ATOL
            )


class TestRebind:
    def test_rebound_program_uses_new_angles_and_reuses_constant_ops(self):
        machine = _machine(10)
        base, other = vqc(10, seed=0), vqc(10, seed=1)
        assert base.structural_key() == other.structural_key()
        base_plan = _staged_plan(base, machine)
        base_program = compile_plan(base_plan, machine)
        rebound_plan = rebind_plan(base_plan, other)
        rebound = compile_plan(rebound_plan, machine, reuse=base_program)
        # Constant-structure gates (the CX entangler layers) reuse their
        # compiled payload verbatim; angle-bearing ops recompile.
        assert 0 < rebound.ops_reused < len(rebound.ops)
        assert simulate_reference(other).allclose(rebound.run())
        # The base program is untouched and still computes the base circuit.
        assert simulate_reference(base).allclose(base_program.run())
        # Rebinding shares the base workspace (one buffer pair per family).
        assert rebound.workspace is base_program.workspace

    def test_session_cache_hit_runs_rebound_program(self):
        machine = _machine(10)
        sweep = [vqc(10, seed=s) for s in range(6)]
        with Session(machine, backend="incore", kernelize_config=FAST_CONFIG) as s:
            job = s.run(sweep)
            stats = s.stats
        assert stats.programs_compiled == 1
        assert stats.programs_rebound == len(sweep) - 1
        assert stats.program_ops_reused > 0
        for circuit, result in zip(sweep, job.results()):
            assert simulate_reference(circuit).allclose(result.state)

    def test_program_backfilled_when_entry_was_cached_by_other_backend(self):
        """The Atlas-pipeline backends share one plan-cache key; an entry
        first populated by a non-program backend (offload) must be upgraded
        with a compiled program when a program-running backend (incore)
        hits it — and vice versa a non-program backend must not pay for
        rebind compiles."""
        machine = _machine(8)
        sweep = [vqc(8, seed=s) for s in range(3)]
        with Session(machine, kernelize_config=FAST_CONFIG) as s:
            s.run(sweep[0], backend="offload")
            assert s.stats.programs_compiled == 0
            job = s.run(sweep, backend="incore")
            # One backfill compile on the first hit, then rebinds only.
            assert s.stats.programs_compiled == 1
            assert s.stats.programs_rebound == len(sweep)
            for circuit, result in zip(sweep, job.results()):
                assert simulate_reference(circuit).allclose(result.state)
            s.run(sweep[1], backend="offload")
            assert s.stats.programs_rebound == len(sweep)  # unchanged

    def test_rebound_cache_hit_is_bit_exact_with_cold_compile(self):
        machine = _machine(9)
        base, other = vqc(9, seed=4), vqc(9, seed=5)
        base_plan = _staged_plan(base, machine)
        base_program = compile_plan(base_plan, machine)
        rebound_plan = rebind_plan(base_plan, other)
        warm = compile_plan(rebound_plan, machine, reuse=base_program)
        cold = compile_plan(rebound_plan, machine)
        assert np.array_equal(warm.run().data, cold.run().data)

    def test_rebind_across_exact_zero_classification_flip(self):
        """``ry(0)`` and ``ry(2*pi)`` share a structural key (``sin(pi)``,
        about 1.2e-16, is under the key's 1e-12 pattern threshold), yet the
        exact-zero op classifier sees a diagonal and a dense matrix.  A
        rebind must recompile those ops to the new kind, bit-equal to a
        fresh compile and to the interpreter."""

        def circuit(theta):
            c = Circuit(4)
            for q in range(4):
                c.h(q)
            return c.ry(theta, 1).cx(1, 2).ry(theta, 3).cz(0, 3)

        def single_stage_plan(c):
            stage = Stage(
                gates=list(c.gates),
                partition=QubitPartition.from_sets({0, 1, 2, 3}, set(), set()),
                gate_indices=list(range(len(c))),
            )
            return ExecutionPlan(num_qubits=4, stages=[stage])

        base, flipped = circuit(0.0), circuit(2 * math.pi)
        assert base.structural_key() == flipped.structural_key()
        base_program = compile_plan(single_stage_plan(base))
        rebound_plan = rebind_plan(single_stage_plan(base), flipped)
        warm = compile_plan(rebound_plan, reuse=base_program)
        fresh = compile_plan(rebound_plan)

        def kinds(program):
            return [op.kind for op in program.ops]

        assert kinds(warm) != kinds(base_program)
        assert kinds(warm) == kinds(fresh)
        assert warm.ops_reused == len(warm.ops) - 2  # only the two ry ops
        state = warm.run().data.copy()
        interp, _ = execute_plan(rebound_plan, compiled=False)
        assert np.array_equal(state, fresh.run().data)
        assert np.array_equal(state, interp.data)
        assert simulate_reference(flipped).allclose(StateVector(4, state))

    def test_warm_fresh_angle_hit_makes_no_allclose_calls(self, monkeypatch):
        """A fresh-angle cache hit reads insularity off each gate's sparsity
        pattern: no tolerance comparisons in the gate module, while the
        locality check still runs on every gate of the rebound plan."""

        class CountingNumpy:
            allclose_calls = 0

            def __getattr__(self, name):
                return getattr(np, name)

            def allclose(self, *args, **kwargs):
                CountingNumpy.allclose_calls += 1
                return np.allclose(*args, **kwargs)

        checked = []
        check = compile_module.check_gate_locality

        def counting_check(gate, l2p, local):
            checked.append(gate)
            check(gate, l2p, local)

        machine = _machine(10)
        with Session(machine, backend="incore", kernelize_config=FAST_CONFIG) as s:
            s.run(vqc(10, seed=0)).result()
            fresh = vqc(10, seed=1)
            monkeypatch.setattr(gates_module, "np", CountingNumpy())
            monkeypatch.setattr(compile_module, "check_gate_locality", counting_check)
            # The probe sees the gate module's allclose calls.
            gates_module.is_diagonal(np.eye(2))
            assert CountingNumpy.allclose_calls == 1
            CountingNumpy.allclose_calls = 0
            result = s.run(fresh).result()
            assert s.stats.cache_hits == 1 and s.stats.programs_rebound == 1
        assert CountingNumpy.allclose_calls == 0
        assert len(checked) == len(fresh)
        assert simulate_reference(fresh).allclose(result.state)


class TestOffloadAndParallelPaths:
    @pytest.mark.parametrize("name,factory", CIRCUITS)
    def test_offloaded_matches_compiled_incore(self, name, factory):
        circuit = factory()
        n = circuit.num_qubits
        machine = _machine(n)
        plan = _staged_plan(circuit, machine)
        incore, _ = execute_plan(plan, machine=machine)
        offloaded, _ = execute_plan_offloaded(plan, machine)
        assert incore.allclose(offloaded, atol=1e-10)
        assert simulate_reference(circuit).allclose(offloaded)

    def test_compiled_segment_ops_bit_exact_with_dynamic_groups(self):
        """`run_segment_ops` (compiled) and `run_groups_on_shard` (dynamic)
        must agree bit for bit on every shard, including non-local
        resolution paths and shard relabels."""
        circuit = (
            Circuit(6).h(0).h(1).x(4).y(5).cp(0.7, 3, 4).crz(0.5, 1, 5).cx(0, 1)
        )
        stage = Stage(
            gates=list(circuit.gates),
            partition=QubitPartition.from_sets({0, 1, 2}, {3, 4}, {5}),
            gate_indices=list(range(len(circuit.gates))),
        )
        logical_to_physical = stage.partition.logical_to_physical()
        local = 3
        segments = split_stage_segments(stage, logical_to_physical, local)
        rng = np.random.default_rng(0)
        for kind, groups in segments:
            assert kind == "shards"
            ops = compile_segment_ops(groups, logical_to_physical, local)
            for shard_index in range(8):
                shard = rng.normal(size=8) + 1j * rng.normal(size=8)
                a, b = shard.copy(), np.empty(8, dtype=complex)
                c, d = shard.copy(), np.empty(8, dtype=complex)
                a, b, idx_compiled = run_segment_ops(
                    a, b, ops, logical_to_physical, local, shard_index
                )
                c, d, idx_dynamic = run_groups_on_shard(
                    c, d, groups, logical_to_physical, local, shard_index
                )
                assert idx_compiled == idx_dynamic
                assert np.array_equal(a, c)

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_parallel_bit_exact_with_offloaded(self, workers):
        circuit = qft(8)
        machine = MachineConfig.for_circuit(8, num_shards=4, local_qubits=4)
        plan = _staged_plan(circuit, machine)
        sequential, _ = execute_plan_offloaded(plan, machine)
        with ParallelRuntime(machine, num_workers=workers) as runtime:
            parallel, _ = runtime.execute(plan)
            again, _ = runtime.execute(plan)  # warm schedule cache
        assert np.array_equal(sequential.data, parallel.data)
        assert np.array_equal(sequential.data, again.data)


class TestMemoryControls:
    def test_execute_false_jobs_compile_no_programs(self):
        machine = _machine(10)
        with Session(machine, backend="incore", kernelize_config=FAST_CONFIG) as s:
            job = s.run([vqc(10, seed=i) for i in range(3)], execute=False)
            assert s.stats.programs_compiled == 0
            assert s.stats.programs_rebound == 0
            assert all(r.state is None for r in job.modelled_results())
            # A later executing run on the same structure backfills the
            # program and still produces correct states.
            res = s.run(vqc(10, seed=9)).results()[0]
            assert s.stats.programs_compiled == 1
            assert simulate_reference(vqc(10, seed=9)).allclose(res.state)

    def test_release_apis_drop_compiled_buffers(self):
        from repro.runtime import clear_program_cache
        from repro.sim import release_thread_workspace
        from repro.sim.program import thread_workspace

        plan = _staged_plan(qft(8), _machine(8))
        execute_plan(plan)
        ws = thread_workspace()
        assert ws._pairs  # the compiled path parked its ping-pong pair
        release_thread_workspace()
        clear_program_cache()
        assert not getattr(thread_workspace(), "_pairs")
        # The compiled path still works afterwards (recompiles/reallocates).
        state, _ = execute_plan(plan)
        assert simulate_reference(qft(8)).allclose(state)

    def test_workspace_view_memo_survives_many_buffers(self):
        """A workspace view memo entry is per (op, buffer); cycling more
        buffers than any fixed per-op bound must neither error nor corrupt
        results (regression: a shared 32-entry cache thrashed and could
        KeyError under concurrent eviction)."""
        program = compile_plan(_staged_plan(vqc(8, seed=0), _machine(8)))
        from repro.sim.program import Workspace

        want = program.run().data.copy()
        for _ in range(3):
            # Fresh workspaces simulate many workers' distinct buffers.
            got = program.run(workspace=Workspace())
            assert np.array_equal(got.data, want)


class TestBoundedFusionCache:
    def test_eviction_and_counters(self):
        stats0 = fusion_cache_stats()
        assert stats0["maxsize"] >= 1
        configure_fusion_cache(maxsize=4, clear=True)
        try:
            machine = _machine(6)
            # Distinct kernels from distinct angles: more structures than
            # the bound, so the cache must evict instead of growing.
            for seed in range(8):
                circuit = random_circuit(6, 30, seed=seed)
                plan = _staged_plan(circuit, machine)
                execute_plan(plan, machine=machine)
            stats = fusion_cache_stats()
            assert stats["size"] <= 4
            assert stats["evictions"] > 0
            assert stats["misses"] > 0
        finally:
            configure_fusion_cache(maxsize=stats0["maxsize"], clear=True)

    def test_session_surfaces_fusion_counters(self):
        machine = _machine(8)
        sweep = [vqc(8, seed=s) for s in range(3)]
        with Session(machine, backend="incore", kernelize_config=FAST_CONFIG) as s:
            s.run(sweep)
            stats = s.stats.as_dict()
        assert stats["fusion_cache_misses"] > 0
        assert stats["fusion_cache_hits"] >= 0
        assert "fusion_cache_evictions" in stats


class TestWideGemmRouting:
    """Satellite: k>=3 fused matrices route through single-GEMM dense plans."""

    @pytest.mark.parametrize(
        "qubits",
        [
            (0, 1, 2),        # low window (exact, gemm_right)
            (0, 2, 3),        # low window with a hole
            (4, 5, 6),        # contiguous mid run (stacked)
            (2, 1, 3),        # contiguous, scrambled order
            (7, 8, 9),        # high window (gemm_left / stacked)
            (6, 8, 9),        # high window with a hole
            (0, 4, 8),        # scattered: tensordot fallback
            (3, 4, 5, 6),     # contiguous 4q
            (9, 8, 7, 6),     # descending order, high run
        ],
    )
    def test_wide_apply_matches_reference(self, qubits):
        from repro.sim.apply import apply_matrix, apply_matrix_reference

        n = 10
        rng = np.random.default_rng(sum(qubits))
        raw = rng.normal(size=(1 << len(qubits),) * 2) + 1j * rng.normal(
            size=(1 << len(qubits),) * 2
        )
        matrix, _ = np.linalg.qr(raw)
        state = rng.normal(size=1 << n) + 1j * rng.normal(size=1 << n)
        state /= np.linalg.norm(state)
        want = apply_matrix_reference(state, matrix, list(qubits))
        got_pure = apply_matrix(state, matrix, list(qubits))
        out = np.empty_like(state)
        got_out = apply_matrix(state, matrix, list(qubits), out=out)
        inplace = state.copy()
        apply_matrix(inplace, matrix, list(qubits), out=inplace)
        assert np.allclose(want, got_pure, atol=1e-12)
        assert np.allclose(want, got_out, atol=1e-12)
        assert np.allclose(want, inplace, atol=1e-12)

    def test_contiguous_wide_run_is_gemm_planned(self):
        from repro.sim.apply import _single_gemm_plannable

        assert _single_gemm_plannable((4, 5, 6), 10)
        assert _single_gemm_plannable((0, 1, 2, 3), 10)
        assert not _single_gemm_plannable((0, 4, 8), 10)
        # Very wide contiguous runs stay on tensordot (measured slower as
        # stacked gemm), except at the register edges.
        assert not _single_gemm_plannable(tuple(range(5, 15)), 20)
        assert _single_gemm_plannable(tuple(range(10, 20)), 20)
        assert _single_gemm_plannable(tuple(range(0, 10)), 20)
