"""The benchmark's four workloads: inputs from a seed, set-up, run, checks.

Every workload is a sequence of independent *iterations*. Iteration
``i`` of a run with ``--seed s`` uses :func:`iteration_seed` ``(s, i)``
(iteration 0 uses ``s`` itself), so one seed always yields the same
inputs and a run's median averages over several input draws. The
program receives only the generated inputs: a ``SwarmConfig``, a
topology spec plus a probe list, or execution plans.

An iteration is timed in two parts. ``setup`` turns inputs into a
ready-to-run state and ``run`` drives that state to its completion
condition. ``check`` then verifies the outputs; a failed check counts
the affected operations as failed and never raises.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import statistics
import time
from dataclasses import dataclass, field
from typing import Any, Dict, List, Optional, Tuple

from repro.bittorrent.swarm import Swarm, SwarmConfig
from repro.net.ping import ping_process
from repro.obs.telemetry import TelemetryHub
from repro.runtime import ExecutionPlan, execute_plan
from repro.sim.process import Process
from repro.topology.compiler import TopologyCompiler
from repro.topology.presets import (
    LinkProfile,
    adsl_512k,
    adsl_8m,
    bittorrent_profile,
)
from repro.topology.spec import TopologySpec
from repro.units import KB, MB, mbps, ms
from repro.virt.deployment import Testbed

GOLDENS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "goldens.json")
#: Seeds with recorded golden outputs: the default ``--seed`` and one
#: held out from every timing and tuning run of the benchmark.
GOLDEN_SEEDS = (1, 7321)
#: Workloads whose outputs are pinned by golden values. ``swarm`` also
#: stores its median completion, the reference of ``swarm-fluid``'s
#: fidelity error.
GOLDEN_WORKLOADS = ("swarm", "mesh", "jobs")


def iteration_seed(seed: int, i: int) -> int:
    """Input seed of iteration ``i`` of a run seeded with ``seed``."""
    if i == 0:
        return seed
    return random.Random(f"e2ebench/{seed}/{i}").getrandbits(31)


def digest(values: Any) -> str:
    """Short stable digest of a JSON-serialisable output."""
    blob = json.dumps(values, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def nproc() -> int:
    """CPUs this process may run on (``nproc``)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # not Linux
        return os.cpu_count() or 1


@dataclass
class Checked:
    """Result of one iteration's output checks."""

    attempted: int
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    #: Values a golden entry stores for this iteration's seed.
    record: Dict[str, Any] = field(default_factory=dict)
    #: Workload-specific outputs reported by the run (never checked).
    extra: Dict[str, Any] = field(default_factory=dict)

    def fail(self, count: int, problem: str) -> None:
        self.failed = min(self.attempted, self.failed + count)
        self.problems.append(problem)


# ----------------------------------------------------------------------
# swarm / swarm-fluid: the paper's Figure 10/11 flash crowd
# ----------------------------------------------------------------------
class SwarmWorkload:
    """A flash crowd on the DSL profile (2 Mbps / 128 kbps / 30 ms).

    4 seeders and 29 leechers arriving every 0.25 s, 256 KB pieces of
    one block each and 32 vnodes per pnode, as in ``run_fig10``. The
    file is 4 MB (16 pieces), a quarter of the paper's, so one flash
    crowd takes about a second of host time and a run holds enough of
    them for a steady median.
    """

    SETUP_REPEATS = 8
    LEECHERS = 29
    SEEDERS = 4
    FILE_SIZE = 4 * MB
    MAX_TIME = 30000.0

    def __init__(self, fluid: bool) -> None:
        self.fluid = fluid
        self.name = "swarm-fluid" if fluid else "swarm"
        self.operations = self.LEECHERS

    def config(self, seed: int, fluid: Optional[bool] = None) -> SwarmConfig:
        vnodes = self.LEECHERS + self.SEEDERS + 1  # + tracker
        return SwarmConfig(
            leechers=self.LEECHERS,
            seeders=self.SEEDERS,
            file_size=self.FILE_SIZE,
            piece_length=256 * KB,
            block_size=256 * KB,
            profile=bittorrent_profile(),
            stagger=0.25,
            num_pnodes=-(-vnodes // 32),
            seed=seed,
            prefix="10.0.0.0/8",
            fluid=self.fluid if fluid is None else fluid,
        )

    def setup(self, seed: int, workdir: str) -> Swarm:
        return Swarm(self.config(seed))

    def run(self, swarm: Swarm) -> None:
        swarm.run(max_time=self.MAX_TIME)

    def parts(self, swarm: Swarm):
        """``(sim, testbed, compilers, clients)`` the traced run reads."""
        return swarm.sim, swarm.testbed, [swarm.compiler], swarm.clients

    def check(self, swarm: Swarm, seed: int, golden: Optional[Dict[str, Any]]) -> Checked:
        out = Checked(attempted=self.LEECHERS)
        size = self.FILE_SIZE
        for client in swarm.leechers:
            if client.completed_at is None:
                out.fail(1, f"leecher {client.vnode.address} did not complete")
            elif client.payload_received != size:
                out.fail(
                    1,
                    f"leecher {client.vnode.address} received "
                    f"{client.payload_received} payload bytes, expected {size}",
                )
        times = swarm.completion_times()
        if len(times) != self.LEECHERS:
            return out
        median = statistics.median(times)
        out.record = {
            "completion_digest": digest([round(t, 9) for t in times]),
            "median_completion": median,
        }
        out.extra["median_completion"] = median
        if golden is not None:
            for key, want in golden.items():
                if out.record[key] != want:
                    out.fail(
                        self.LEECHERS,
                        f"{key} {out.record[key]!r} != golden {want!r}",
                    )
        return out


# ----------------------------------------------------------------------
# mesh: a Figure 7-style edge-centric topology at scale, sparse probes
# ----------------------------------------------------------------------
#: ``(group, prefix, access profile)``: four /12 groups of 25 000 vnodes.
MESH_GROUPS: Tuple[Tuple[str, str, LinkProfile], ...] = (
    ("fiber", "10.0.0.0/12", LinkProfile(mbps(100), mbps(100), ms(5))),
    ("cable", "10.16.0.0/12", adsl_8m()),
    ("dsl", "10.32.0.0/12", bittorrent_profile()),
    ("dsl-slow", "10.48.0.0/12", adsl_512k()),
)
MESH_ACCESS_LATENCY = {name: p.latency for name, _, p in MESH_GROUPS}
#: One-way inter-group latencies, installed symmetrically.
MESH_LATENCIES: Dict[Tuple[str, str], float] = {
    ("fiber", "cable"): ms(40),
    ("fiber", "dsl"): ms(80),
    ("fiber", "dsl-slow"): ms(120),
    ("cable", "dsl"): ms(160),
    ("cable", "dsl-slow"): ms(200),
    ("dsl", "dsl-slow"): ms(240),
}


@dataclass
class MeshState:
    testbed: Testbed
    compiler: TopologyCompiler
    #: ``(process, rtt floor)`` per probed pair.
    probes: List[Tuple[Process, float]]


class MeshWorkload:
    """100 000 vnodes on 128 pnodes, then 1 250 random pairs that each
    send two 64-byte echoes, started uniformly over 10 s of sim time."""

    name = "mesh"
    SETUP_REPEATS = 1
    PER_GROUP = 25_000
    PNODES = 128
    PAIRS = 1_250
    ECHOES = 2
    START_WINDOW = 10.0
    TIMEOUT = 5.0

    operations = PAIRS * ECHOES

    def spec(self) -> TopologySpec:
        spec = TopologySpec("e2e-mesh")
        for name, prefix, p in MESH_GROUPS:
            spec.add_group(
                name, prefix, self.PER_GROUP,
                down_bw=p.down_bw, up_bw=p.up_bw, latency=p.latency,
            )
        for (a, b), latency in MESH_LATENCIES.items():
            spec.add_latency(a, b, latency)
        return spec

    def build(self, seed: int) -> Tuple[Testbed, TopologyCompiler]:
        testbed = Testbed(num_pnodes=self.PNODES, seed=seed)
        compiler = TopologyCompiler(self.spec(), testbed)
        compiler.deploy()
        return testbed, compiler

    @staticmethod
    def floor(src, dst) -> float:
        """Analytic RTT floor: both access latencies and the inter-group
        latency, each way."""
        access = MESH_ACCESS_LATENCY
        between = MESH_LATENCIES.get((src.group, dst.group))
        if between is None:
            between = MESH_LATENCIES.get((dst.group, src.group), 0.0)
        return 2 * (access[src.group] + access[dst.group] + between)

    def setup(self, seed: int, workdir: str) -> MeshState:
        testbed, compiler = self.build(seed)
        vnodes = compiler.all_vnodes()
        rng = random.Random(seed)
        probes = []
        for _ in range(self.PAIRS):
            a, b = rng.sample(range(len(vnodes)), 2)
            src, dst = vnodes[a], vnodes[b]
            proc = Process(
                testbed.sim,
                ping_process(
                    src.pnode.stack, src.address, dst.address,
                    count=self.ECHOES, interval=1.0, size=64, timeout=self.TIMEOUT,
                ),
                start_delay=rng.uniform(0.0, self.START_WINDOW),
                name=f"ping {src.address}->{dst.address}",
            )
            probes.append((proc, self.floor(src, dst)))
        return MeshState(testbed, compiler, probes)

    def run(self, state: MeshState) -> None:
        state.testbed.sim.run()

    def parts(self, state: MeshState):
        return state.testbed.sim, state.testbed, [state.compiler], []

    def check(self, state: MeshState, seed: int, golden: Optional[Dict[str, Any]]) -> Checked:
        out = Checked(attempted=self.operations)
        rtts: List[float] = []
        for proc, floor in state.probes:
            result = proc.result
            if result is None:
                out.fail(self.ECHOES, f"{proc.name} never finished")
                continue
            if result.received != self.ECHOES:
                out.fail(self.ECHOES - result.received, f"{proc.name}: {result}")
            for rtt in result.rtts:
                if rtt < floor:
                    out.fail(1, f"{proc.name}: rtt {rtt} below floor {floor}")
            rtts.extend(result.rtts)
        out.record = {"rtt_digest": digest([round(r, 12) for r in rtts])}
        if golden is not None and out.record != golden:
            out.fail(self.operations, f"rtt digest {out.record} != golden {golden}")
        return out


# ----------------------------------------------------------------------
# jobs: a closed loop of one client submitting sweeps back to back
# ----------------------------------------------------------------------
@dataclass
class JobsState:
    #: ``(plan, checkpoint path, hub)`` per job, in submission order.
    jobs: List[Tuple[ExecutionPlan, str, TelemetryHub]]
    latencies: List[float] = field(default_factory=list)
    outcomes: List[Any] = field(default_factory=list)


class JobsWorkload:
    """Each job is ``ExecutionPlan.build("fig7", replications=8)`` run
    by ``execute_plan`` on ``nproc`` workers with a fresh checkpoint
    and a fresh telemetry hub. One iteration is a round of 20 jobs,
    each submitted when the previous one returned."""

    name = "jobs"
    SETUP_REPEATS = 8
    JOBS = 20
    REPLICATIONS = 8

    operations = JOBS * REPLICATIONS

    def __init__(self) -> None:
        self.parallel = nproc()
        #: Timing wrapper installed by the traced run (``runner=``).
        self.runner = None
        self._round = 0

    def setup(self, seed: int, workdir: str) -> JobsState:
        # The executor and the hub create the directory on first write.
        round_dir = os.path.join(workdir, f"round{self._round}")
        self._round += 1
        jobs = []
        for k in range(self.JOBS):
            plan = ExecutionPlan.build(
                "fig7",
                replications=self.REPLICATIONS,
                base_seed=iteration_seed(seed, k),
            )
            hub = TelemetryHub(os.path.join(round_dir, f"telemetry{k}.jsonl"))
            jobs.append((plan, os.path.join(round_dir, f"checkpoint{k}.jsonl"), hub))
        return JobsState(jobs)

    def run(self, state: JobsState) -> None:
        for plan, checkpoint, hub in state.jobs:
            t0 = time.perf_counter()
            outcome = execute_plan(
                plan,
                parallel=self.parallel,
                runner=self.runner,
                checkpoint_path=checkpoint,
                telemetry=hub,
            )
            state.latencies.append(time.perf_counter() - t0)
            hub.close()
            state.outcomes.append(outcome)

    def parts(self, state: JobsState):
        # Points run in worker processes: no simulator lives here.
        return None, None, [], []

    def check(self, state: JobsState, seed: int, golden: Optional[Dict[str, Any]]) -> Checked:
        out = Checked(attempted=self.operations)
        missing = self.JOBS - len(state.outcomes)
        if missing:
            out.fail(self.REPLICATIONS * missing, f"{missing} jobs never returned")
        for outcome in state.outcomes:
            for result in outcome.results:
                if not result.is_ok:
                    out.fail(1, f"point {result.request.key}: {result.error}")
        if state.outcomes:
            first = [r.artifacts for r in state.outcomes[0].results]
            out.record = {"artifact_digest": digest(first)}
            if golden is not None and out.record != golden:
                out.fail(
                    self.REPLICATIONS,
                    f"artifact digest {out.record} != golden {golden}",
                )
        out.extra["job_latencies"] = list(state.latencies)
        return out


def make(name: str):
    """The workload called ``name``."""
    if name == "swarm":
        return SwarmWorkload(fluid=False)
    if name == "swarm-fluid":
        return SwarmWorkload(fluid=True)
    if name == "mesh":
        return MeshWorkload()
    if name == "jobs":
        return JobsWorkload()
    raise ValueError(f"unknown workload {name!r}")


def load_goldens() -> Dict[str, Dict[str, Dict[str, Any]]]:
    with open(GOLDENS_PATH) as fh:
        return json.load(fh)
