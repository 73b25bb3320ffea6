"""Span tracing for the traced benchmark run, recorded from outside.

:func:`install` replaces public entry points of the emulator's layers
with class-level wrappers *before* a workload is built. Each wrapped
call records one span: name, start, end and parent span, all under the
run id of the recorder. Spans live in flat ``array`` columns (about 22
bytes each, so a million-span swarm run stays small) and are written
out once at the end by :meth:`SpanRecorder.write`.

Self time is a span's duration minus the part of it covered by its
child spans. The emulator is single-threaded inside one process, so
children nest strictly on a stack and the covered part is the sum of
the children's durations; it is accumulated as spans close.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
import sys
from array import array
from time import perf_counter
from typing import Callable, Dict, List, Tuple

#: ``(module, class, attribute, span name)`` for every wrapped boundary.
#: The span name's first dotted component is the layer.
BOUNDARIES: Tuple[Tuple[str, str, str, str], ...] = (
    ("repro.sim.kernel", "Simulator", "run", "sim.run"),
    ("repro.net.pipe", "DummynetPipe", "transmit", "pipe.transmit"),
    ("repro.net.pipe", "DummynetPipe", "reconfigure", "pipe.reconfigure"),
    ("repro.net.ipfw", "Firewall", "evaluate", "ipfw.evaluate"),
    ("repro.net.stack", "NetworkStack", "send_packet", "stack.send_packet"),
    ("repro.net.tcp", "Connection", "send", "stack.connection_send"),
    ("repro.net.switch", "Switch", "forward", "switch.forward"),
    ("repro.net.fluid", "FlowScheduler", "admit", "fluid.admit"),
    ("repro.net.fluid", "FlowScheduler", "on_tap_attached", "fluid.on_tap_attached"),
    ("repro.net.fluid", "FlowScheduler", "on_pipe_reconfigured", "fluid.on_pipe_reconfigured"),
    ("repro.net.fluid", "FlowScheduler", "on_conn_closed", "fluid.on_conn_closed"),
    ("repro.net.fluid", "FluidFlow", "advance", "fluid.flow_advance"),
    ("repro.net.fluid", "FluidFlow", "latency", "fluid.flow_latency"),
    ("repro.net.fluid", "FluidFlow", "reproject", "fluid.flow_reproject"),
    ("repro.topology.compiler", "TopologyCompiler", "deploy", "topo.deploy"),
    # Lazy pipes are built by these factories when the firewall first
    # matches a rule (``rule.pipe_factory(rule)``): the materialize seam.
    ("repro.topology.compiler", "_AccessPipeFactory", "__call__", "topo.materialize"),
    ("repro.topology.compiler", "_GroupPipeFactory", "__call__", "topo.materialize"),
    ("repro.virt.deployment", "Testbed", "place", "virt.place"),
    ("repro.bittorrent.client", "BitTorrentClient", "on_piece", "bt.on_piece"),
    ("repro.bittorrent.client", "BitTorrentClient", "on_request", "bt.on_request"),
    ("repro.bittorrent.client", "BitTorrentClient", "on_have", "bt.on_have"),
    ("repro.bittorrent.client", "BitTorrentClient", "fill_requests", "bt.fill_requests"),
    ("repro.bittorrent.piece_picker", "PiecePicker", "next_request", "bt.picker"),
    ("repro.bittorrent.choker", "Choker", "rechoke", "bt.choker"),
    ("repro.runtime.executor", "SweepExecutor", "run", "runtime.sweep"),
    ("repro.obs.telemetry", "TelemetryHub", "ingest", "telemetry.ingest"),
)

#: Boundaries that are generator functions: each resumption is a span.
GENERATORS = frozenset({"virt.place"})


class SpanRecorder:
    """In-memory span store with online self-time accounting."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.pid = os.getpid()
        #: Cleared in forked worker processes, whose spans are not kept.
        self.active = True
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.name_col = array("H")
        self.start_col = array("d")
        self.end_col = array("d")
        self.parent_col = array("i")
        self._open: List[int] = []
        self._covered: List[float] = []
        self.calls: Dict[str, int] = {}
        self.total_s: Dict[str, float] = {}
        self.self_s: Dict[str, float] = {}

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
            self.calls[name] = 0
            self.total_s[name] = 0.0
            self.self_s[name] = 0.0
        return nid

    def open(self, nid: int) -> int:
        idx = len(self.start_col)
        self.name_col.append(nid)
        self.parent_col.append(self._open[-1] if self._open else -1)
        self.end_col.append(0.0)
        self._open.append(idx)
        self._covered.append(0.0)
        self.start_col.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        end = perf_counter()
        self.end_col[idx] = end
        self._open.pop()
        covered = self._covered.pop()
        duration = end - self.start_col[idx]
        name = self.names[self.name_col[idx]]
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - covered
        if self._covered:
            self._covered[-1] += duration

    def __len__(self) -> int:
        return len(self.start_col)

    def write(self, path: str) -> None:
        """Write the spans: ``<path>.json`` describes the columns,
        ``<path>.bin`` holds them back to back in native byte order."""
        columns = (
            ("name", self.name_col),
            ("start", self.start_col),
            ("end", self.end_col),
            ("parent", self.parent_col),
        )
        with open(path + ".bin", "wb") as fh:
            for _, col in columns:
                col.tofile(fh)
        header = {
            "run_id": self.run_id,
            "spans": len(self),
            "names": self.names,
            "columns": [[n, c.typecode, c.itemsize] for n, c in columns],
            "byteorder": sys.byteorder,
            "clock": "time.perf_counter seconds; parent -1 is a root span",
        }
        with open(path + ".json", "w") as fh:
            json.dump(header, fh, indent=1)


def _wrap(fn: Callable, rec: SpanRecorder, nid: int) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not rec.active:
            return fn(*args, **kwargs)
        idx = rec.open(nid)
        try:
            return fn(*args, **kwargs)
        finally:
            rec.close(idx)

    return wrapper


def _wrap_generator(fn: Callable, rec: SpanRecorder, nid: int) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        inner = fn(*args, **kwargs)
        while True:
            idx = rec.open(nid) if rec.active else -1
            try:
                item = next(inner)
            except StopIteration:
                return
            finally:
                if idx >= 0:
                    rec.close(idx)
            yield item

    return wrapper


def install(rec: SpanRecorder) -> Tuple[Callable[[], None], Dict[str, str]]:
    """Wrap every boundary for ``rec``.

    Returns the undo function and, per span name, why a boundary could
    not be wrapped (the program no longer has it); its spans stay empty.
    """
    undo: List[Tuple[type, str, Callable]] = []
    missing: Dict[str, str] = {}
    for module, cls_name, attr, name in BOUNDARIES:
        nid = rec.name_id(name)
        try:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
        except (ImportError, AttributeError, KeyError):
            missing[name] = f"{module}.{cls_name}.{attr} not found"
            continue
        make = _wrap_generator if name in GENERATORS else _wrap
        setattr(cls, attr, make(original, rec, nid))
        undo.append((cls, attr, original))

    def uninstall() -> None:
        for cls, attr, original in reversed(undo):
            setattr(cls, attr, original)

    return uninstall, missing


def detach_in_worker(rec: SpanRecorder) -> None:
    """Stop recording in this process if it is not the recorder's own
    (a forked sweep worker inherits the wrappers and the recorder)."""
    if os.getpid() != rec.pid:
        rec.active = False
