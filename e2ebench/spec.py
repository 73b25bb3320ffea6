"""What the benchmark measures: workloads, metrics, units and bounds.

``BENCHMARK.json`` at the repository root is generated from this file
(``python3 e2ebench/run.py --all`` rewrites it), so the two never
disagree. README.md in this directory explains the choices.
"""

from __future__ import annotations

from typing import Any, Dict, List, Tuple

COMMAND = ["python3", "e2ebench/run.py"]
PATHS = ["e2ebench"]
RUN_SECONDS = 25

#: ``(name, why)`` in the order ``--all`` runs them.
WORKLOADS: Tuple[Tuple[str, str], ...] = (
    ("swarm", "Fig 10/11 flash crowd on the packet path: sim kernel, pipe trains, "
              "warm ipfw flow cache, tcp and bittorrent; set-up and runtime idle"),
    ("swarm-fluid", "same inputs as swarm with fluid=True: bulk bytes take the "
                    "net.fluid rate-epoch path instead of per-packet pipe events"),
    ("mesh", "100k vnodes in four /12 groups, then sparse echoes: topology build, "
             "cold ipfw flows over large tables, lazy pipes; bittorrent idle"),
    ("jobs", "closed loop of fig7 sweeps via execute_plan on nproc workers: spawn, "
             "checkpoint and telemetry cost; sim, net and bittorrent idle"),
)

#: ``(name, unit, better, bound)``. Measured with tracing off, as the
#: median over a run's iterations (see README.md for each definition).
END_TO_END: Tuple[Tuple[str, str, str, float], ...] = (
    ("setup_s", "s", "lower", 0.25),
    ("run_s", "s", "lower", 0.25),
    ("peak_rss_mb", "MiB", "lower", 0.1),
)

#: Workload-specific end-to-end metrics. They are printed by every
#: run that defines them but are not gated: BENCHMARK.json requires a
#: non-zero value of each gated metric on every workload.
REPORTED: Tuple[Tuple[str, str], ...] = (
    ("failed_ratio", "fraction"),
    ("import_s", "s"),
    ("fidelity_err_pct", "%"),
    ("job_p50_ms", "ms"),
    ("job_p90_ms", "ms"),
)

#: ``(name, unit, better)`` reported by the traced run (``--trace 1``).
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    ("sim.events", "count", "lower"),
    ("sim.events_per_s", "1/s", "higher"),
    ("sim.queue_depth_peak", "count", "lower"),
    ("sim.self_s", "s", "lower"),
    ("pipe.packets", "count", "lower"),
    ("pipe.coalesced_ratio", "fraction", "higher"),
    ("pipe.drops", "count", "lower"),
    ("pipe.self_s", "s", "lower"),
    ("ipfw.evals", "count", "lower"),
    ("ipfw.rules_scanned_per_eval", "count", "lower"),
    ("ipfw.cache_hit_ratio", "fraction", "higher"),
    ("ipfw.self_s", "s", "lower"),
    ("tcp.segments", "count", "lower"),
    ("tcp.retransmissions", "count", "lower"),
    ("stack.self_s", "s", "lower"),
    ("switch.forwards", "count", "lower"),
    ("switch.self_s", "s", "lower"),
    ("fluid.flows", "count", "higher"),
    ("fluid.epochs", "count", "lower"),
    ("fluid.demotions", "count", "lower"),
    ("fluid.defluidized", "count", "lower"),
    ("fluid.byte_share", "fraction", "higher"),
    ("fluid.self_s", "s", "lower"),
    ("topo.deploy_s", "s", "lower"),
    ("virt.place_s", "s", "lower"),
    ("topo.pipes_materialized", "count", "lower"),
    ("topo.materialize_s", "s", "lower"),
    ("topo.bytes_per_vnode", "B", "lower"),
    ("bt.pieces", "count", "higher"),
    ("bt.choke_rounds", "count", "lower"),
    ("bt.self_s", "s", "lower"),
    ("bt.picker_s", "s", "lower"),
    ("bt.choker_s", "s", "lower"),
    ("runtime.points", "count", "higher"),
    ("runtime.retries", "count", "lower"),
    ("runtime.service_ms", "ms", "lower"),
    ("runtime.overhead_ms", "ms", "lower"),
    ("runtime.checkpoint_bytes", "B", "lower"),
    ("telemetry.events", "count", "lower"),
    ("telemetry.self_s", "s", "lower"),
    ("trace.overhead_s", "s", "lower"),
)

UNITS: Dict[str, str] = {
    **{n: u for n, u, _, _ in END_TO_END},
    **{n: u for n, u in REPORTED},
    **{n: u for n, u, _ in PER_LAYER},
}


def benchmark_json() -> Dict[str, Any]:
    """The content of the repository's ``BENCHMARK.json``."""
    return {
        "command": list(COMMAND),
        "paths": list(PATHS),
        "run_seconds": RUN_SECONDS,
        "workloads": [{"name": n, "why": w} for n, w in WORKLOADS],
        "end_to_end": [
            {"name": n, "unit": u, "better": b, "bound": bound}
            for n, u, b, bound in END_TO_END
        ],
        "per_layer": [{"name": n, "unit": u, "better": b} for n, u, b in PER_LAYER],
    }


def metric(name: str, value: Any) -> Dict[str, Any]:
    return {"value": value, "unit": UNITS[name]}


def workload_names() -> List[str]:
    return [n for n, _ in WORKLOADS]
