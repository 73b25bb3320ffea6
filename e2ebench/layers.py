"""Per-layer metrics of the traced run.

Counts come from what the program already keeps (``sim.metrics``,
``TopologyCompiler.stats()``, the switch, stack and hub attributes);
times come from the spans of :mod:`spans`. Where a layer has its own
counter for a wrapped boundary, the wrapped call count must equal it.
When it does not, some caller reached the method without going through
the class attribute (a hot path that bound it before the wrappers were
installed), so the layer's time metric would be partial: it is reported
as unmeasured, with the reason, instead.
"""

from __future__ import annotations

import glob
import os
import statistics
import time
import tracemalloc
from typing import Any, Dict, List, Optional, Tuple

from repro.net.packet import TCP_HEADER
from repro.runtime.executor import registry_runner

from spans import BOUNDARIES, SpanRecorder, detach_in_worker


class ServiceTimer:
    """``execute_plan(runner=)`` wrapper timing each point in its worker.

    Each call writes its in-worker service time to a ``.svc`` file in
    ``out_dir`` (workers are separate processes, so a file is the
    simplest channel back to the benchmark).
    """

    def __init__(self, out_dir: str, recorder: SpanRecorder) -> None:
        self.out_dir = out_dir
        self.recorder = recorder

    def __call__(self, request):
        detach_in_worker(self.recorder)
        t0 = time.perf_counter()
        try:
            return registry_runner(request)
        finally:
            elapsed = time.perf_counter() - t0
            name = f"{os.getpid()}-{request.replication}-{time.monotonic_ns()}.svc"
            with open(os.path.join(self.out_dir, name), "w") as fh:
                fh.write(repr(elapsed))

    def collect(self) -> List[float]:
        """Service times written so far (seconds); removes the files."""
        out = []
        for path in glob.glob(os.path.join(self.out_dir, "*.svc")):
            with open(path) as fh:
                out.append(float(fh.read()))
            os.remove(path)
        return out


def bytes_per_vnode(workload, seed: int) -> float:
    """Heap bytes retained per vnode by one untimed build (tracemalloc).

    Zero for ``jobs``: its topologies are built in worker processes.
    """
    if workload.name == "jobs":
        return 0.0
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        if workload.name == "mesh":
            _, compiler = workload.build(seed)
        else:
            compiler = workload.setup(seed, "").compiler
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    return retained / compiler.stats()["vnodes"]


#: Time metrics: ``(self or total time, span names summed)``. Self
#: time excludes child spans; ``total`` is used where the metric is the
#: whole time spent inside the boundary.
TIME_METRICS: Dict[str, Tuple[str, Tuple[str, ...]]] = {
    "sim.self_s": ("self", ("sim.run",)),
    "pipe.self_s": ("self", ("pipe.transmit", "pipe.reconfigure")),
    "ipfw.self_s": ("self", ("ipfw.evaluate",)),
    "stack.self_s": ("self", ("stack.send_packet", "stack.connection_send")),
    "switch.self_s": ("self", ("switch.forward",)),
    "fluid.self_s": ("self", tuple(
        sorted({b[3] for b in BOUNDARIES if b[3].startswith("fluid.")})
    )),
    "topo.deploy_s": ("total", ("topo.deploy",)),
    "virt.place_s": ("total", ("virt.place",)),
    "topo.materialize_s": ("total", ("topo.materialize",)),
    "bt.self_s": ("self", ("bt.on_piece", "bt.on_request", "bt.on_have", "bt.fill_requests")),
    "bt.picker_s": ("self", ("bt.picker",)),
    "bt.choker_s": ("self", ("bt.choker",)),
    "telemetry.self_s": ("self", ("telemetry.ingest",)),
}


def _counter(snapshot: Dict[str, Any], name: str, key: str = "value") -> float:
    entry = snapshot.get(name)
    return float(entry.get(key) or 0) if entry else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def compute(
    workload,
    state,
    rec: SpanRecorder,
    untraced_run_s: float,
    traced_run_s: float,
    per_vnode: float,
    service_s: List[float],
    start_depth: int,
    missing: Dict[str, str],
) -> Tuple[Dict[str, Optional[float]], Dict[str, str]]:
    """Per-layer values (``None`` = unmeasured) and the reasons.
    ``missing`` maps span names whose boundary could not be wrapped to
    why (see :func:`spans.install`)."""
    sim, testbed, compilers, clients = workload.parts(state)
    snap = sim.metrics.snapshot(include_wall=True) if sim is not None else {}
    calls = rec.calls
    m: Dict[str, Optional[float]] = {}
    for metric_name, (kind, names) in TIME_METRICS.items():
        table = rec.self_s if kind == "self" else rec.total_s
        m[metric_name] = sum(table[n] for n in names)

    events = _counter(snap, "sim.kernel.events_processed")
    m["sim.events"] = events
    m["sim.events_per_s"] = _ratio(events, untraced_run_s) if sim is not None else 0.0
    # The kernel sets its queue-depth gauge when a run() window ends;
    # the depth when the run started is the other sample there is.
    m["sim.queue_depth_peak"] = max(
        _counter(snap, "sim.kernel.queue_depth", "peak"), float(start_depth)
    )

    out = _counter(snap, "net.pipe.packets_out")
    drops = _counter(snap, "net.pipe.drops_loss") + _counter(snap, "net.pipe.drops_queue")
    m["pipe.packets"] = out
    m["pipe.coalesced_ratio"] = _ratio(_counter(snap, "net.pipe.train_coalesced"), out)
    m["pipe.drops"] = drops

    evals = _counter(snap, "net.ipfw.packets_evaluated")
    hits = _counter(snap, "net.ipfw.flow_cache_hits")
    misses = _counter(snap, "net.ipfw.flow_cache_misses")
    m["ipfw.evals"] = evals
    m["ipfw.rules_scanned_per_eval"] = _ratio(_counter(snap, "net.ipfw.rules_scanned_total"), evals)
    m["ipfw.cache_hit_ratio"] = _ratio(hits, hits + misses)

    m["tcp.segments"] = _counter(snap, "net.tcp.segments_sent")
    m["tcp.retransmissions"] = _counter(snap, "net.tcp.retransmissions")

    switch = testbed.switch if testbed is not None else None
    m["switch.forwards"] = float(switch.packets_forwarded) if switch is not None else 0.0

    # net.fluid.bytes counts wire bytes of admitted segments; take the
    # TCP headers off to compare with the payload the clients sent.
    fluid_payload = _counter(snap, "net.fluid.bytes") - TCP_HEADER * _counter(
        snap, "net.fluid.segments"
    )
    sent = sum(c.bytes_uploaded for c in clients)
    m["fluid.flows"] = _counter(snap, "net.fluid.flows")
    m["fluid.epochs"] = _counter(snap, "net.fluid.epochs")
    m["fluid.demotions"] = _counter(snap, "net.fluid.demotions")
    m["fluid.defluidized"] = _counter(snap, "net.fluid.defluidized")
    m["fluid.byte_share"] = _ratio(fluid_payload, sent)

    m["topo.pipes_materialized"] = float(sum(c.stats()["pipes_materialized"] for c in compilers))
    m["topo.bytes_per_vnode"] = per_vnode

    m["bt.pieces"] = _counter(snap, "bt.client.pieces_completed")
    m["bt.choke_rounds"] = _counter(snap, "bt.client.choke_rounds")

    jobs = workload.name == "jobs"
    outcomes = state.outcomes if jobs else []
    latencies = state.latencies if jobs else []
    points = sum(len(o.results) for o in outcomes)
    retries = float(sum(_counter(o.metrics, "runtime.points_retried") for o in outcomes))
    m["runtime.points"] = float(points)
    m["runtime.retries"] = retries
    m["runtime.service_ms"] = 1e3 * statistics.median(service_s) if service_s else 0.0
    # A job's share of service time: its points' service, spread over
    # the workers that ran them side by side.
    share = _ratio(sum(service_s), workload.parallel * len(latencies)) if jobs else 0.0
    m["runtime.overhead_ms"] = (
        1e3 * (statistics.median(latencies) - share) if latencies else 0.0
    )
    checkpoints = [os.path.getsize(c) for _, c, _ in state.jobs] if jobs else []
    m["runtime.checkpoint_bytes"] = float(statistics.median(checkpoints)) if checkpoints else 0.0
    m["telemetry.events"] = float(sum(h.events_seen for _, _, h in state.jobs)) if jobs else 0.0

    m["trace.overhead_s"] = traced_run_s - untraced_run_s

    # Wrapped call counts against the program's own counters:
    # (metric, what was counted from outside, its count, the program's).
    checks = [
        ("sim.self_s", "sim.run", calls["sim.run"], _counter(snap, "sim.kernel.runs")),
        ("pipe.self_s", "pipe.transmit", calls["pipe.transmit"], out + drops),
        ("ipfw.self_s", "ipfw.evaluate", calls["ipfw.evaluate"], evals),
        ("stack.self_s", "stack.send_packet", calls["stack.send_packet"],
         sum(p.stack.packets_sent for p in testbed.pnodes) if testbed else 0),
        ("switch.self_s", "switch.forward", calls["switch.forward"],
         switch.packets_forwarded + switch.packets_unroutable if switch else 0),
        ("bt.choker_s", "bt.choker", calls["bt.choker"], m["bt.choke_rounds"]),
        ("topo.materialize_s", "topo.materialize", calls["topo.materialize"],
         m["topo.pipes_materialized"]),
        ("topo.deploy_s", "topo.deploy", calls["topo.deploy"], len(compilers)),
        ("telemetry.self_s", "telemetry.ingest", calls["telemetry.ingest"],
         m["telemetry.events"]),
        ("runtime.service_ms", "timed points", len(service_s), points + retries),
    ]
    reasons: Dict[str, str] = {}
    for metric_name, (_, names) in TIME_METRICS.items():
        lost = [missing[n] for n in names if n in missing]
        if lost:
            reasons[metric_name] = "not wrapped: " + "; ".join(lost)
            m[metric_name] = None
    for metric_name, what, seen, expected in checks:
        if metric_name in reasons:
            continue
        if seen != expected:
            reasons[metric_name] = (
                f"{what}: {seen} calls seen, the program counted {expected:g}; a "
                f"caller bypassed the wrapper, so the time would be partial"
            )
            m[metric_name] = None
    return m, reasons
