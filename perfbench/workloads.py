"""The benchmark's workloads: seeded input generators, load loops and the
correctness gate.

Every workload drives only public APIs (:class:`repro.Session`,
:class:`repro.SimulationService`, :class:`repro.MachineConfig` and the
circuit library).  Inputs come from the workload seed alone; the program
sees only the generated circuits.

=========  ======  ==========================================================
workload   loop    what it loads
=========  ======  ==========================================================
sweep      closed  1 client; ``vqc(12)`` with fresh angles per circuit on the
                   in-core backend (plan-cache hit, rebind, program run)
sharded    closed  1 client; ``qft(18)`` / ``ising(18)`` streamed as 16
                   shards of 2^14 amplitudes through 2 workers, with an
                   integrity monitor and a checkpoint at every stage
service    open    Poisson arrivals at a fixed rate from 3 tenants (one of
                   weight 2) into a journalled service with ``check="full"``
=========  ======  ==========================================================
"""

from __future__ import annotations

import itertools
import math
import random
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import (
    CheckpointConfig,
    MachineConfig,
    Session,
    SimulationService,
    simulate_reference,
)
from repro.circuits import Circuit
from repro.circuits.library import ising, qft, random_circuit, vqc
from repro.runtime import ParallelRuntime, execute_plan_offloaded
from repro.sim import fusion_cache_stats

#: Pauli-Z products every sweep/service job evaluates (strings survive the
#: service journal's JSON round trip unchanged).
OBSERVABLES = ("z0", "z0*z1", "z2*z3*z4")
SHOTS = 1024
#: Interval at which the open-loop generator polls its outstanding jobs.
POLL_SECONDS = 0.002
#: How long the open loop waits for stragglers after its last arrival.
DRAIN_SECONDS = 60.0


@dataclass
class Phase:
    """What one timed window measured."""

    elapsed_s: float = 0.0
    latencies_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    #: Open loop only: how late each submission was against its due time.
    gen_lag_ms: list[float] = field(default_factory=list)
    #: Closed loop only: each job's ``Result.execution_stats``.
    exec_stats: list = field(default_factory=list)

    @classmethod
    def merge(cls, phases: list["Phase"]) -> "Phase":
        """One phase holding every job of *phases*."""
        out = cls()
        for phase in phases:
            out.elapsed_s += phase.elapsed_s
            out.latencies_ms += phase.latencies_ms
            out.attempted += phase.attempted
            out.failed += phase.failed
            out.errors += phase.errors
            out.gen_lag_ms += phase.gen_lag_ms
            out.exec_stats += phase.exec_stats
        return out

    @property
    def completed(self) -> int:
        return len(self.latencies_ms)

    @property
    def circuits_per_s(self) -> float:
        return self.completed / self.elapsed_s if self.elapsed_s else 0.0


class Reservoir:
    """Seeded uniform sample of at most *size* items (Algorithm R)."""

    def __init__(self, seed: str, size: int) -> None:
        self._rng = random.Random(seed)
        self.size = size
        self.items: list = []
        self.seen = 0

    def offer(self, item) -> None:
        self.seen += 1
        if len(self.items) < self.size:
            self.items.append(item)
            return
        slot = self._rng.randrange(self.seen)
        if slot < self.size:
            self.items[slot] = item


def redraw_angles(base: Circuit, rng: random.Random) -> Circuit:
    """*base* with the same gates on the same qubits and fresh angles."""
    out = Circuit(base.num_qubits, name=base.name)
    for gate in base.gates:
        params = [rng.uniform(0.0, 2.0 * math.pi) for _ in gate.params]
        out.add(gate.name, gate.qubits, params)
    return out


class Workload:
    """One workload: build (set-up), timed phases, counters and checks."""

    name = ""
    loop = "closed"
    #: Jobs whose outputs the correctness gate re-computes.
    reservoir_size = 8
    #: Whether jobs fsync files (checkpoints, journal) under the run directory.
    fsyncs = False

    def __init__(self, seed: int, run_dir: Path) -> None:
        self.seed = seed
        self.run_dir = run_dir
        self._inputs = random.Random(f"{self.name}-{seed}-inputs")
        self.reservoir = Reservoir(f"{self.name}-{seed}-check", self.reservoir_size)
        self.session: Session | None = None
        self.builds = 0
        self._job_ids = itertools.count()

    # -- set-up ---------------------------------------------------------

    def build(self) -> None:
        """Construct the system and make the cold plans it needs."""
        raise NotImplementedError

    def close(self) -> None:
        if self.session is not None:
            self.session.close()

    # -- load -----------------------------------------------------------

    def next_circuit(self) -> Circuit:
        raise NotImplementedError

    def execute(self, circuit: Circuit):
        """One closed-loop job, from ``run`` until ``.result()`` returns."""
        raise NotImplementedError

    def run_phase(
        self, seconds: float, recorder=None, max_jobs: int | None = None
    ) -> Phase:
        """Closed loop with one client for *seconds* (or *max_jobs* jobs)."""
        phase = Phase()
        start = time.perf_counter()
        stop = start + seconds
        while time.perf_counter() < stop and (
            max_jobs is None or phase.attempted < max_jobs
        ):
            circuit = self.next_circuit()
            job_id = f"{self.name}-{next(self._job_ids)}"
            phase.attempted += 1
            began = time.perf_counter()
            try:
                if recorder is not None:
                    with recorder.job(job_id):
                        result = self.execute(circuit)
                else:
                    result = self.execute(circuit)
            except Exception as exc:  # a failed job is counted, not fatal
                phase.failed += 1
                phase.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            phase.latencies_ms.append((time.perf_counter() - began) * 1e3)
            self.reservoir.offer((circuit, result))
            phase.exec_stats.append(result.execution_stats)
        phase.elapsed_s = time.perf_counter() - start
        return phase

    # -- counters -------------------------------------------------------

    def snapshot(self) -> dict:
        """Cumulative counters, for deltas over a traced phase."""
        return {
            "session": self.session.stats.as_dict(),
            "fusion": dict(fusion_cache_stats()),
        }

    def layer_extras(self) -> dict:
        """Per-layer measurements taken after the traced phase."""
        return {}

    def state_bytes(self) -> int:
        """Bytes of the largest state vector the workload simulates."""
        return 16 << self.num_qubits

    # -- correctness ----------------------------------------------------

    def check(self, circuit: Circuit, result) -> list[str]:
        """Compare one job's outputs with the reference oracle."""
        problems = []
        reference = simulate_reference(circuit)
        if result.state is None or not result.state.allclose(
            reference, atol=1e-9, up_to_global_phase=False
        ):
            problems.append(f"{circuit.name}: state differs from simulate_reference")
        for key, value in result.expectations.items():
            if abs(value - reference.expectation_z_product(key)) > 1e-9:
                problems.append(f"{circuit.name}: <Z{key}> differs from the reference")
        if result.samples is not None:
            samples = np.asarray(result.samples)
            if samples.shape != (SHOTS,) or samples.min() < 0 or (
                samples.max() >= (1 << circuit.num_qubits)
            ):
                problems.append(f"{circuit.name}: malformed samples")
        return problems

    def check_sample(self) -> tuple[int, list[str]]:
        """Run :meth:`check` on the reservoir: ``(mismatched jobs, problems)``."""
        mismatched = 0
        problems: list[str] = []
        for circuit, result in self.reservoir.items:
            found = self.check(circuit, result)
            mismatched += bool(found)
            problems.extend(found)
        return mismatched, problems


class Sweep(Workload):
    """A VQE-style parameter sweep: every job rebinds one cached plan."""

    name = "sweep"
    reservoir_size = 16

    def __init__(self, seed: int, run_dir: Path, num_qubits: int = 12) -> None:
        super().__init__(seed, run_dir)
        self.num_qubits = num_qubits
        self.machine = MachineConfig.for_circuit(
            num_qubits, num_shards=4, local_qubits=num_qubits - 2
        )

    def build(self) -> None:
        self.session = Session(self.machine, backend="incore", seed=self.seed)
        self.execute(vqc(self.num_qubits, seed=self.seed))
        self.builds += 1

    def next_circuit(self) -> Circuit:
        return vqc(self.num_qubits, seed=self._inputs.randrange(2**31))

    def execute(self, circuit: Circuit):
        return self.session.run(
            circuit, shots=SHOTS, observables=list(OBSERVABLES)
        ).result()


class Sharded(Workload):
    """DRAM-offloaded shard streaming with monitor and stage checkpoints."""

    name = "sharded"
    reservoir_size = 4
    fsyncs = True

    def __init__(
        self, seed: int, run_dir: Path, num_qubits: int = 18, local_qubits: int = 14
    ) -> None:
        super().__init__(seed, run_dir)
        self.num_qubits = num_qubits
        self.machine = MachineConfig.for_circuit(
            num_qubits, num_shards=2, gpus_per_node=2, local_qubits=local_qubits
        )
        self.checkpoint = CheckpointConfig(run_dir / "checkpoints", every=1)
        self._qft = qft(num_qubits)
        self._jobs = 0

    def build(self) -> None:
        self.session = Session(
            self.machine, backend="parallel", monitor=True, seed=self.seed
        )
        self.execute(self._qft)
        self.execute(ising(self.num_qubits, seed=self.seed))
        self.builds += 1

    def next_circuit(self) -> Circuit:
        self._jobs += 1
        if self._jobs % 2:
            return self._qft
        return ising(self.num_qubits, seed=self._inputs.randrange(2**31))

    def execute(self, circuit: Circuit):
        return self.session.run(
            circuit, shots=SHOTS, checkpoint=self.checkpoint
        ).result()

    def check(self, circuit: Circuit, result) -> list[str]:
        # The parallel runtime is documented bit-exact with the sequential
        # offload executor on the same plan.
        problems = super().check(circuit, result)
        plan = self.session.plan_for(circuit)[0]
        sequential, _ = execute_plan_offloaded(plan, self.machine)
        if result.state is None or not np.array_equal(
            sequential.data, result.state.data
        ):
            problems.append(f"{circuit.name}: not bit-exact with the offload executor")
        return problems

    def layer_extras(self) -> dict:
        """Parallel efficiency: one pass of the qft plan on 1 worker against
        the same pass on the workload's workers."""
        workers = min(self.machine.num_shards, self.machine.physical_gpus)
        one = self.worker_pass_seconds(1)
        many = self.worker_pass_seconds(workers)
        return {"parallel_efficiency": one / (workers * many)}

    def worker_pass_seconds(self, workers: int) -> float:
        """Median of three passes of the qft plan on a runtime of *workers*
        (after one warm-up pass)."""
        plan = self.session.plan_for(self._qft)[0]
        times = []
        with ParallelRuntime(self.machine, num_workers=workers) as runtime:
            runtime.execute(plan)
            for _ in range(3):
                began = time.perf_counter()
                runtime.execute(plan)
                times.append(time.perf_counter() - began)
        return sorted(times)[len(times) // 2]


class Service(Workload):
    """Open-loop multi-tenant soak of a journalled, statically checked service."""

    name = "service"
    loop = "open"
    reservoir_size = 12
    fsyncs = True
    #: Tenant name -> fair-share weight.
    TENANTS = {"t0": 2.0, "t1": 1.0, "t2": 1.0}
    #: Job mix: fresh structures (cold planning), qubit-relabelled twins of
    #: earlier structures (shared-store hits) and same-structure repeats
    #: with re-drawn angles (local plan-cache hits).  With 30% fresh jobs
    #: the median fell on the knee between the fast (cache hit) and slow
    #: (cold plan) latency modes and moved by a third between seeds.
    MIX = (("fresh", 0.20), ("twin", 0.40), ("repeat", 0.40))
    #: Structures planned during set-up, before the first timed job.
    POOL = 3

    def __init__(
        self,
        seed: int,
        run_dir: Path,
        num_qubits: int = 14,
        num_gates: int = 120,
        # About a fifth of the back-to-back capacity (~25 jobs/s with this
        # mix on 2 CPUs): at half capacity queueing bursts moved p50 and
        # p90 by a third between seeds.  30 s at 5/s gives 150 jobs.
        rate_per_s: float = 5.0,
    ) -> None:
        super().__init__(seed, run_dir)
        self.num_qubits = num_qubits
        self.num_gates = num_gates
        self.rate_per_s = rate_per_s
        self.machine = MachineConfig.for_circuit(
            num_qubits, num_shards=4, local_qubits=num_qubits - 2
        )
        self.service: SimulationService | None = None
        self.pool = [self._fresh() for _ in range(self.POOL)]

    def _fresh(self) -> Circuit:
        return random_circuit(
            self.num_qubits, self.num_gates, seed=self._inputs.randrange(2**31)
        )

    def build(self) -> None:
        self.service = SimulationService(
            self.machine, journal_dir=self.run_dir / f"journal-{self.builds}",
            check="full",
            seed=self.seed,
        )
        self.session = self.service.session
        tenants = list(self.TENANTS.items())
        for index, circuit in enumerate(self.pool):
            tenant, weight = tenants[index % len(tenants)]
            self.service.submit(
                circuit, tenant=tenant, weight=weight, **self._run_kwargs()
            ).result()
        self.builds += 1

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    @staticmethod
    def _run_kwargs() -> dict:
        return {"shots": SHOTS, "observables": list(OBSERVABLES)}

    def arrivals(self, seconds: float, max_jobs: int | None = None) -> list[tuple]:
        """``(due offset s, circuit, tenant)`` for one window, due-ordered.

        A Poisson process conditioned on its count: ``rate × seconds``
        arrival times drawn uniformly over the window.
        """
        count = max(1, round(self.rate_per_s * seconds))
        if max_jobs is not None:
            count = min(count, max_jobs)
        offsets = sorted(self._inputs.uniform(0.0, seconds) for _ in range(count))
        out = []
        for offset, kind, tenant in zip(
            offsets, self._deck([k for k, _ in self.MIX], [w for _, w in self.MIX], count),
            self._deck(list(self.TENANTS), [1.0] * len(self.TENANTS), count),
        ):
            if kind == "fresh":
                circuit = self._fresh()
                self.pool.append(circuit)
            elif kind == "twin":
                base = self._inputs.choice(self.pool)
                labels = list(range(self.num_qubits))
                self._inputs.shuffle(labels)
                circuit = base.remap_qubits(dict(enumerate(labels)))
            else:
                circuit = redraw_angles(self._inputs.choice(self.pool), self._inputs)
            out.append((offset, circuit, tenant))
        return out

    def _deck(self, items: list, weights: list[float], count: int) -> list:
        """*count* draws holding each item in proportion to its weight
        (largest remainders), shuffled: every window gets the same mix."""
        total = sum(weights)
        exact = [count * w / total for w in weights]
        counts = [int(x) for x in exact]
        by_remainder = sorted(range(len(items)), key=lambda i: counts[i] - exact[i])
        for i in by_remainder[: count - sum(counts)]:
            counts[i] += 1
        deck = [item for item, n in zip(items, counts) for _ in range(n)]
        self._inputs.shuffle(deck)
        return deck

    def run_phase(
        self, seconds: float, recorder=None, max_jobs: int | None = None
    ) -> Phase:
        """Open loop: submit each arrival at its due time, poll for done()."""
        schedule = self.arrivals(seconds, max_jobs)
        phase = Phase()
        outstanding: list[tuple] = []

        def poll(now: float) -> None:
            still = []
            for due, job, circuit in outstanding:
                if not job.done():
                    still.append((due, job, circuit))
                    continue
                try:
                    result = job.result()
                except Exception as exc:  # a failed job is counted, not fatal
                    phase.failed += 1
                    phase.errors.append(f"{type(exc).__name__}: {exc}")
                    continue
                phase.latencies_ms.append((now - due) * 1e3)
                self.reservoir.offer((circuit, result))
            outstanding[:] = still

        start = time.perf_counter()
        for index, (offset, circuit, tenant) in enumerate(schedule):
            due = start + offset
            while True:
                now = time.perf_counter()
                poll(now)
                if now >= due:
                    break
                pause = min(due - now, POLL_SECONDS)
                if outstanding:
                    # Wakes at once when the oldest job finishes.
                    outstanding[0][1].wait(pause)
                else:
                    time.sleep(pause)
            job_id = f"{self.name}-{next(self._job_ids)}"
            phase.attempted += 1
            phase.gen_lag_ms.append((time.perf_counter() - due) * 1e3)
            try:
                if recorder is not None:
                    recorder.bind(circuit, job_id)
                    with recorder.job(job_id):
                        job = self._submit(circuit, tenant)
                else:
                    job = self._submit(circuit, tenant)
            except Exception as exc:  # an admission rejection is a failure
                phase.failed += 1
                phase.errors.append(f"{type(exc).__name__}: {exc}")
                continue
            outstanding.append((due, job, circuit))
        drain_stop = time.perf_counter() + DRAIN_SECONDS
        while outstanding and time.perf_counter() < drain_stop:
            poll(time.perf_counter())
            if outstanding:
                outstanding[0][1].wait(POLL_SECONDS)
        # Throughput runs from the window's start to the last completion
        # seen.  The window's arrival count is fixed, so below saturation
        # this is the offered rate; the latencies show the service's speed.
        phase.elapsed_s = time.perf_counter() - start
        for _due, job, _circuit in outstanding:
            job.cancel()
            phase.failed += 1
            phase.errors.append("job still pending after the drain timeout")
        return phase

    def _submit(self, circuit: Circuit, tenant: str):
        return self.service.submit(
            circuit, tenant=tenant, weight=self.TENANTS[tenant], **self._run_kwargs()
        )

    def snapshot(self) -> dict:
        snap = super().snapshot()
        stats = self.service.stats()
        snap["store"] = stats["shared_store"]
        snap["service"] = {
            "rejected": stats["rejected"],
            "journal_appends": stats["journal"]["appends"],
        }
        waited = dispatched = 0.0
        for name in self.TENANTS:
            tenant = self.service.tenant_stats(name)
            waited += tenant.wait_seconds
            dispatched += tenant.completed + tenant.failed
        snap["service"]["wait_seconds"] = waited
        snap["service"]["dispatched"] = dispatched
        return snap


WORKLOADS = {cls.name: cls for cls in (Sweep, Sharded, Service)}
