"""The simulator: clock, scheduling and run loop."""

from __future__ import annotations

from sys import getrefcount
from time import perf_counter
from typing import Any, Callable, Optional

from repro.errors import SimulationError
from repro.hotpath import SLOW_PATH
from repro.obs.flight import FlightRecorder, NULL_FLIGHT
from repro.obs.metrics import MetricsRegistry, NULL_REGISTRY
from repro.obs.profile import EventLoopProfiler, NULL_PROFILER
from repro.obs.span import NULL_TRACER, Tracer
from repro.sim.config import SimConfig
from repro.sim.event import EVENT_POOL_CAP, Event, EventQueue, PRIORITY_NORMAL
from repro.sim.rng import RngRegistry
from repro.sim.trace import TraceRecorder

#: Bucket edges for the (wall-clock) per-callback latency histogram —
#: callbacks run in microseconds to milliseconds.
CALLBACK_SECONDS_EDGES = (1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0)


class Simulator:
    """Deterministic discrete-event simulator.

    A single :class:`Simulator` instance backs one experiment: all
    machines, network components and application processes schedule
    their work on it. Time is a float number of seconds starting at 0.

    Parameters
    ----------
    seed:
        Root seed for the experiment's :class:`~repro.sim.rng.RngRegistry`.
        All stochastic components derive their streams from it, making
        runs exactly reproducible.
    observe:
        ``False`` swaps every instrument for its shared NULL no-op.
    config:
        A :class:`~repro.sim.config.SimConfig` naming every behaviour
        knob (hot path, flight recording, profiler, packet reuse,
        partitioning). This is the canonical configuration surface.

    Examples
    --------
    >>> sim = Simulator(seed=1)
    >>> fired = []
    >>> _ = sim.schedule(2.5, fired.append, "hello")
    >>> sim.run()
    >>> (sim.now, fired)
    (2.5, ['hello'])
    """

    def __init__(
        self,
        seed: int = 0,
        observe: bool = True,
        config: Optional[SimConfig] = None,
    ) -> None:
        #: The resolved configuration (defaults when none was given).
        self.config: SimConfig = config if config is not None else SimConfig()
        config = self.config
        self.now: float = 0.0
        self.fast = (not SLOW_PATH) if config.fast is None else config.fast
        self._queue = EventQueue(calendar=self.fast)
        #: Transports may recycle pooled packets when this is True; it
        #: is cleared whenever a packet tap is installed (a tap may
        #: retain packet objects) and on the slow reference path.
        self.allow_packet_reuse = (
            self.fast
            if config.allow_packet_reuse is None
            else config.allow_packet_reuse
        )
        self.rng = RngRegistry(seed)
        self.trace = TraceRecorder()
        self._running = False
        self._stopped = False
        self.events_processed: int = 0
        # Packet-train support (net/pipe.py). Trains coalesce per-pipe
        # back-to-back deliveries into one kernel event; to stay
        # observationally identical to the per-packet reference path
        # the train drain needs the loop's horizon and permission to
        # dispatch inline, and the kernel needs to account for
        # deliveries the trains are holding outside the queue.
        #: Active ``run(until=...)`` horizon (None outside ``run``).
        self._horizon: Optional[float] = None
        #: True while a train may dispatch coalesced deliveries inline
        #: (set by ``run()``; off under ``max_events`` budgets, while
        #: profiling, and outside ``run`` entirely, where every train
        #: entry is re-materialised as a real queue event instead).
        self._train_inline = False
        #: Inline deliveries dispatched by trains this run; folded into
        #: ``events_processed`` so the count matches the reference path.
        self._extra_events = 0
        #: Deliveries currently coalesced inside pipe trains (they are
        #: pending work, but not queue entries).
        self._deferred_deliveries = 0
        # Observability substrate (repro.obs). ``observe=False`` swaps
        # in shared no-op instruments: the hot loop then pays one bool
        # test per event and nothing else.
        if observe:
            self.metrics = MetricsRegistry()
            self.tracer = Tracer(lambda: self.now)
        else:
            self.metrics = NULL_REGISTRY
            self.tracer = NULL_TRACER
        #: Per-packet lifecycle recorder (NULL no-op unless requested).
        #: Network components cache this at construction, so it must be
        #: chosen before any stack/pipe/switch is built.
        self.flight = (
            FlightRecorder() if (observe and config.flight) else NULL_FLIGHT
        )
        #: Event-loop profiler (wall-clock; NULL no-op by default).
        #: Enable with ``SimConfig(profiler=True)`` or
        #: :meth:`enable_profiler` *before* ``run()``.
        self.profiler = (
            EventLoopProfiler() if config.profiler else NULL_PROFILER
        )
        #: When True, each callback's wall-clock duration is recorded
        #: into the ``sim.kernel.callback_seconds`` histogram (a *wall*
        #: metric — excluded from deterministic snapshots).
        self.profile_callbacks = False
        self._m_events = self.metrics.counter("sim.kernel.events_processed")
        self._m_runs = self.metrics.counter("sim.kernel.runs")
        self._m_queue_depth = self.metrics.gauge("sim.kernel.queue_depth")
        self._m_callback = self.metrics.histogram(
            "sim.kernel.callback_seconds", edges=CALLBACK_SECONDS_EDGES, wall=True
        )
        #: Flow-level transfer engine (net/fluid.py), or ``None``.
        #: Requires the fast path; ``REPRO_SLOW_PATH=1`` always selects
        #: the reference packet path regardless of the config.
        self.fluid = None
        if config.fluid and self.fast and not SLOW_PATH:
            from repro.net.fluid import FlowScheduler

            self.fluid = FlowScheduler(self, threshold=config.fluid_threshold)

    def enable_profiler(self) -> EventLoopProfiler:
        """Attach (and return) a live :class:`EventLoopProfiler`.

        Idempotent: repeated calls return the same profiler. Wall-clock
        data only — never part of deterministic snapshots.
        """
        if not self.profiler.enabled:
            self.profiler = EventLoopProfiler()
        return self.profiler

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def schedule(
        self,
        delay: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if delay < 0:
            raise SimulationError(f"negative delay: {delay!r}")
        return self._queue.push(self.now + delay, callback, args, priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., Any],
        *args: Any,
        priority: int = PRIORITY_NORMAL,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute time ``time``."""
        if time < self.now:
            raise SimulationError(
                f"cannot schedule in the past (now={self.now}, requested={time})"
            )
        return self._queue.push(time, callback, args, priority)

    def cancel(self, event: Event) -> None:
        """Cancel a pending event. Cancelling twice is a no-op."""
        if not event.cancelled:
            event.cancel()
            self._queue.note_cancelled()

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------
    def run(
        self,
        until: Optional[float] = None,
        max_events: Optional[int] = None,
    ) -> None:
        """Process events until the queue drains.

        Parameters
        ----------
        until:
            Stop once the clock would pass this time; the clock is left
            at ``until`` (events at exactly ``until`` are processed).
        max_events:
            Safety valve: stop after this many events.
        """
        if self._running:
            raise SimulationError("run() is not reentrant")
        self._running = True
        self._stopped = False
        queue = self._queue
        processed = 0
        profiler = self.profiler
        profile_cb = self.profile_callbacks
        profile = profile_cb or profiler.enabled
        observe_cb = self._m_callback.observe
        record_prof = profiler.record if profiler.enabled else None
        self._horizon = until
        # Inline train dispatch bypasses the loop head, so it must be
        # off whenever the loop head enforces something per-event: an
        # event budget, or per-callback profiling.
        self._train_inline = max_events is None and not profile
        try:
            if self.fast and not profile:
                # Hot path: the common iteration — next slot of the
                # queue's opened sorted run holds a live entry — is
                # fully inlined here (zero queue calls per event); the
                # residue (tombstones, bucket opening, window advance,
                # horizon) falls back to the single-walk ``pop_ready``.
                # No per-event instrument tests (hoisted into the
                # branch selection), and event handles are recycled
                # when the refcount proves no caller kept them.
                pop_ready = queue.pop_ready
                recycle = queue.recycle
                free = queue._free
                pool_cap = EVENT_POOL_CAP
                while True:
                    if self._stopped:
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    s = queue._sorted
                    si = queue._si
                    if si < len(s):
                        entry = s[si]
                        ev = entry[3]
                        callback = ev.callback
                        if callback is not None:
                            t = entry[0]
                            if until is not None and t > until:
                                self.now = until
                                break
                            s[si] = None
                            queue._si = si + 1
                            queue._near -= 1
                            queue._live -= 1
                            self.now = t
                            args = ev.args
                            # Free references before the callback runs
                            # so an exception cannot pin the payload.
                            ev.callback = None
                            ev.args = ()
                            callback(*args)
                            processed += 1
                            # 3 accounted refs: the ``entry`` tuple,
                            # the ``ev`` local, getrefcount's argument.
                            # Any external handle pushes this higher
                            # and the event is left to the GC.
                            if getrefcount(ev) == 3 and len(free) < pool_cap:
                                free.append(ev)
                            continue
                    ev = pop_ready(until)
                    if ev is None:
                        # Same clock semantics as the reference loop:
                        # a non-empty queue means the next event is
                        # past the horizon (clock lands on ``until``);
                        # an empty queue advances only forward.
                        if until is not None and (queue or until > self.now):
                            self.now = until
                        break
                    self.now = ev.time
                    callback, args = ev.callback, ev.args
                    ev.callback = None
                    ev.args = ()
                    callback(*args)
                    processed += 1
                    if getrefcount(ev) == 2:  # loop local + getrefcount arg
                        recycle(ev)
            else:
                while queue:
                    if self._stopped:
                        break
                    if max_events is not None and processed >= max_events:
                        break
                    next_time = queue.peek_time()
                    if next_time is None:
                        break
                    if until is not None and next_time > until:
                        self.now = until
                        break
                    ev = queue.pop()
                    self.now = ev.time
                    callback, args = ev.callback, ev.args
                    # Free references before the callback runs so that an
                    # exception does not pin the event's payload.
                    ev.callback = None
                    ev.args = ()
                    if profile:
                        t0 = perf_counter()
                        callback(*args)
                        wall = perf_counter() - t0
                        if profile_cb:
                            observe_cb(wall)
                        if record_prof is not None:
                            record_prof(callback, wall)
                    else:
                        callback(*args)
                    processed += 1
                else:
                    if until is not None and until > self.now:
                        self.now = until
        finally:
            processed += self._extra_events
            self._extra_events = 0
            self._horizon = None
            self._train_inline = False
            self.events_processed += processed
            self._m_events.inc(processed)
            self._m_runs.inc()
            depth = len(queue) + self._deferred_deliveries
            if self.fluid is not None:
                depth += self.fluid.deferred
            self._m_queue_depth.set(depth)
            self._running = False

    def step(self) -> bool:
        """Process a single event. Returns ``False`` if none remained."""
        if not self._queue:
            return False
        ev = self._queue.pop()
        self.now = ev.time
        callback, args = ev.callback, ev.args
        ev.callback = None
        ev.args = ()
        callback(*args)
        self.events_processed += 1
        self._m_events.inc()
        self._m_queue_depth.set(len(self._queue) + self._deferred_deliveries)
        return True

    def stop(self) -> None:
        """Request the active :meth:`run` loop to stop after the current event."""
        self._stopped = True

    def next_event_time(self) -> Optional[float]:
        """Time of the earliest pending event, or ``None`` when idle.

        A safe lower bound on when this simulator can next act: pipe
        packet trains always keep their head delivery materialised in
        the queue, and the fluid flow engine keeps one event at (or
        before) its earliest pending delivery, so deferred deliveries
        never hide behind it. The
        partition driver (:mod:`repro.sim.partition`) uses this between
        barrier windows to compute the global conservative horizon.
        """
        return self._queue.peek_time()

    @property
    def stopped(self) -> bool:
        """True when the most recent :meth:`run` ended via :meth:`stop`.

        Cleared on entry to the next ``run()``. The partition driver
        reads this after each barrier window: a cell that stopped
        itself (e.g. a sub-swarm whose leechers all completed) is done
        and drops out of subsequent windows.
        """
        return self._stopped

    @property
    def pending(self) -> int:
        """Number of live scheduled events (including deliveries
        coalesced inside pipe packet trains and segments held by the
        fluid flow engine)."""
        n = len(self._queue) + self._deferred_deliveries
        if self.fluid is not None:
            n += self.fluid.deferred
        return n

    def manifest(
        self,
        topology_hash: Optional[str] = None,
        wall_time_seconds: Optional[float] = None,
        **extra: Any,
    ) -> "RunManifest":
        """Provenance record of this run (see :mod:`repro.obs.manifest`)."""
        from repro.obs.manifest import RunManifest

        return RunManifest.from_sim(
            self,
            topology_hash=topology_hash,
            wall_time_seconds=wall_time_seconds,
            **extra,
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Simulator(now={self.now:.6f}, pending={self.pending})"
