"""Parallel, fault-tolerant execution of an :class:`ExecutionPlan`.

The engine fans plan points out over a pool of persistent worker
processes: ``min(parallel, pending points)`` :class:`CommandWorker`
children per sweep, each serving one ``run`` command — one attempt of
one point — at a time. Workers start once per sweep, not once per
point: a small point (fig7) simulates for a few milliseconds, about
what a fork costs, so process start-up is not noise. Three robustness
mechanisms:

* **wall-clock timeouts** — a worker past its per-point deadline is
  killed and replaced, and the point is retried;
* **crash/exception capture** — a runner that raises ships its error
  back and the worker serves the next point; a worker that dies
  without reporting (segfault, ``os._exit``, OOM-kill) is reaped and
  replaced; either way the attempt fails instead of hanging the sweep;
* **bounded retry with exponential backoff** — each point gets up to
  ``max_attempts`` tries; a point that exhausts them is recorded as
  ``status="failed"`` and the sweep continues.

Completed points stream into an incremental JSONL checkpoint
(:mod:`repro.runtime.checkpoint`); re-running with ``resume=True``
skips them. Because every point's seed is fixed by the plan (not by
scheduling), results are byte-identical whatever ``parallel`` is —
including ``parallel=0``, which runs points inline in the calling
process through the same scheduling loop (no isolation and no
timeouts, but convenient under a debugger). The engine instruments
itself through :mod:`repro.obs` metrics (``runtime.points_*``,
``runtime.workers_active``).

Live telemetry: pass a :class:`~repro.obs.telemetry.TelemetryHub` and
workers interleave wall-clock-only ``("telemetry", event)`` messages
(heartbeats labelled with the point being run) with their protocol
replies on the same pipes; the parent folds them into the hub as they
arrive. The per-point ``started/finished/retried/crashed/failed``
records are also appended to the checkpoint JSONL (telemetry or not),
which is how a ``--resume`` run reports what previously failed. None
of this touches the deterministic path — results and aggregates are
byte-identical with telemetry on or off.
"""

from __future__ import annotations

import multiprocessing
import os
import threading
import time
import traceback
from dataclasses import dataclass, field
from multiprocessing.connection import wait as connection_wait
from typing import Any, Callable, Dict, List, Optional, Union

from repro.experiments.api import RunRequest, RunResult
from repro.obs import telemetry as obs_telemetry
from repro.obs.metrics import MetricsRegistry
from repro.obs.telemetry import TelemetryHub
from repro.runtime.aggregate import SweepOutcome
from repro.runtime.checkpoint import (
    CheckpointWriter,
    load_checkpoint,
    load_checkpoint_events,
)
from repro.runtime.plan import ExecutionPlan

#: Environment variable exposing the current attempt number (1-based)
#: to the code running a point — used by fault-injection tests.
ATTEMPT_ENV = "REPRO_RUNTIME_ATTEMPT"

Runner = Callable[[RunRequest], RunResult]


def registry_runner(request: RunRequest) -> RunResult:
    """Default runner: resolve the experiment registry entry and
    execute it through the unified RunRequest→RunResult protocol."""
    from repro.experiments import get_experiment

    return get_experiment(request.experiment_id).execute(request)


def _describe(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_point(runner: Runner, request: RunRequest, attempt: int) -> RunResult:
    """Run one attempt of one point in this process — the one place a
    point runs, inline or inside a pool worker."""
    os.environ[ATTEMPT_ENV] = str(attempt)
    return runner(request).with_attempts(attempt)


def _point_worker(runner: Runner):
    """:class:`CommandWorker` handler factory for sweep pool workers:
    each command is ``(request, attempt)``; the reply is the result
    document. A raising runner becomes an ``error`` reply and the
    worker stays up for the next point."""

    def handle(_command: str, payload) -> Dict[str, Any]:
        request, attempt = payload
        emitter = obs_telemetry.get_emitter()
        if emitter.enabled:
            emitter.static["point"] = request.key
        try:
            return _run_point(runner, request, attempt).as_dict()
        finally:
            # Probes are weakly held, so a finished point's simulators
            # may linger in the table until collected; the next point
            # (and the idle worker's heartbeats) must not report them.
            obs_telemetry.clear_probes()

    return handle


def _command_worker_main(
    conn,
    handler_factory,
    init_payload,
    telemetry_on: bool,
    name: str,
    heartbeat_interval: Optional[float],
) -> None:
    """Child entry point for a :class:`CommandWorker`.

    Builds the handler once, then serves ``(command, payload)`` requests
    until ``("close", None)``. A handler that raises ships an ``error``
    reply and the loop serves the next command; a failing factory (or
    anything that escapes the loop) ships an ``error`` and exits.

    With ``telemetry_on`` the ambient emitter and heartbeat thread are
    installed *before* ``handler_factory`` runs, so the factory (e.g.
    the partition driver building its cells) can register progress
    probes that the heartbeats will sample. Both share ``conn`` with
    the replies, serialized by a lock so a heartbeat can never tear a
    reply message.
    """
    send_lock = threading.Lock()

    def send(message) -> None:
        with send_lock:
            conn.send(message)

    def error(exc: BaseException):
        return (
            "error",
            {"error": _describe(exc), "traceback": traceback.format_exc()},
        )

    # A forked child inherits the parent's ambient emitter and probe
    # table — neither may leak into this process's stream.
    obs_telemetry.clear_probes()
    obs_telemetry.set_emitter(None)
    heartbeat: Optional[obs_telemetry.Heartbeat] = None
    if telemetry_on:
        emitter = obs_telemetry.pipe_emitter(
            conn, send_lock, name.format(pid=os.getpid())
        )
        obs_telemetry.set_emitter(emitter)
        heartbeat = obs_telemetry.Heartbeat(
            emitter,
            interval=(
                heartbeat_interval
                if heartbeat_interval is not None
                else obs_telemetry.HEARTBEAT_INTERVAL
            ),
        ).start()
    try:
        handler = handler_factory(init_payload)
        send(("ready", None))
        while True:
            command, payload = conn.recv()
            if command == "close":
                break
            try:
                reply = ("ok", handler(command, payload))
            except Exception as exc:  # noqa: BLE001 — shipped to the parent
                reply = error(exc)
            send(reply)
    except BaseException as exc:  # noqa: BLE001 — must never escape silently
        try:
            send(error(exc))
        except Exception:  # conn already broken — parent sees a crash
            pass
    finally:
        if heartbeat is not None:
            try:
                heartbeat.stop()
            except Exception:
                pass
        try:
            conn.close()
        except Exception:
            pass


class WorkerCrashed(RuntimeError):
    """A :class:`CommandWorker` child died or reported an exception.

    :attr:`error` is the one-line reason (``"ValueError: boom"``, or
    ``"worker crashed (exitcode 17)"``); the message adds the worker
    name and, for a shipped exception, the remote traceback.
    """

    def __init__(self, message: str, error: str) -> None:
        super().__init__(message)
        self.error = error


#: :meth:`CommandWorker._read` result for a message that was telemetry.
_NO_REPLY = object()


class CommandWorker:
    """A persistent worker process serving ``(command, payload)`` calls.

    The sweep pool runs one point per command on a few of these; the
    partition driver (:mod:`repro.sim.partition`) relies on them
    *retaining state* (their cells' simulators) between short
    synchronous calls.

    ``handler_factory(init_payload)`` runs once in the child and
    returns a ``handler(command, payload)`` callable; :meth:`request`
    round-trips one command. A handler that raises ships the traceback
    back — the call raises :class:`WorkerCrashed` and the child keeps
    serving; a child that dies makes every later call raise it.

    ``name`` names the child and its telemetry source; a ``{pid}``
    field in it is filled with the child's pid (the sweep pool's
    workers are ``sweep/pid{pid}``). Start method defaults to ``fork``
    where available (closures in custom runners work, module import
    cost is not repaid per worker) and ``spawn`` elsewhere; pass
    ``mp_context="spawn"`` explicitly to test the pickling path.

    With ``telemetry=True`` the child streams heartbeat events on the
    same pipe; :meth:`receive` hands each one to ``on_telemetry``
    (a hub's ``ingest``, or the ambient emitter's ``forward`` relaying
    cell events upward). When the worker is shut down or reaped,
    ``on_telemetry`` also gets a ``worker_exited`` event for its
    source, so a hub stops expecting heartbeats from it.
    """

    def __init__(
        self,
        handler_factory,
        init_payload=None,
        mp_context: Optional[str] = None,
        name: str = "repro-worker",
        telemetry: bool = False,
        on_telemetry: Optional[Callable[[Dict[str, Any]], None]] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if mp_context is None:
            mp_context = (
                "fork" if "fork" in multiprocessing.get_all_start_methods() else "spawn"
            )
        ctx = multiprocessing.get_context(mp_context)
        self._conn, child_conn = ctx.Pipe(duplex=True)
        self._on_telemetry = on_telemetry
        self._process = ctx.Process(
            target=_command_worker_main,
            args=(
                child_conn,
                handler_factory,
                init_payload,
                telemetry,
                name,
                heartbeat_interval,
            ),
            daemon=True,
            name=name,
        )
        self._process.start()
        child_conn.close()
        self.name = self._process.name = name.format(pid=self._process.pid)
        self._dead = False
        try:
            self.receive()  # wait for ("ready", None) / surface build failures
        except WorkerCrashed:
            self.close()
            raise

    def _read(self):
        """Read one message off the pipe — the one decoder of the worker
        protocol. Telemetry goes to ``on_telemetry`` and yields
        ``_NO_REPLY``; a reply returns its payload; a shipped exception
        or a dead child raises :class:`WorkerCrashed`."""
        try:
            kind, payload = self._conn.recv()
        except (EOFError, OSError):
            self._dead = True
            self._process.join(timeout=5.0)
            reason = f"crashed (exitcode {self._process.exitcode})"
            raise WorkerCrashed(
                f"{self.name} {reason}", f"worker {reason}"
            ) from None
        if kind == "telemetry":
            self._handle_telemetry(payload)
            return _NO_REPLY
        if kind == "error":
            raise WorkerCrashed(
                f"{self.name} failed: {payload['error']}\n{payload['traceback']}",
                payload["error"],
            )
        return payload

    def send(self, command: str, payload=None) -> None:
        """Dispatch a command without waiting (pair with :meth:`receive`).

        The split form lets a coordinator fan a command out to every
        worker before collecting any reply — the barrier-window driver
        would otherwise serialize its workers."""
        if self._dead:
            raise WorkerCrashed(
                f"{self.name} is no longer running", "worker is no longer running"
            )
        try:
            self._conn.send((command, payload))
        except OSError:
            pass  # the child is gone: the next read reports the crash

    def receive(self):
        """Block for the reply to the oldest un-received :meth:`send`."""
        while True:
            reply = self._read()
            if reply is not _NO_REPLY:
                return reply

    def request(self, command: str, payload=None):
        """Send one command and block for its reply."""
        self.send(command, payload)
        return self.receive()

    def _handle_telemetry(self, payload) -> None:
        if self._on_telemetry is not None:
            try:
                self._on_telemetry(payload)
            except Exception:
                pass

    def kill(self) -> None:
        """Kill the child mid-command (a timed-out point) and reap it."""
        self._process.kill()
        self._dead = True
        self.close()

    def close(self) -> None:
        """Shut the child down and reap it (idempotent)."""
        if self._conn.closed:
            return
        if not self._dead:
            try:
                self._conn.send(("close", None))
            except OSError:
                pass
            self._dead = True
        self._conn.close()
        self._process.join(timeout=5.0)
        if self._process.is_alive():  # pragma: no cover - defensive
            self._process.kill()
            self._process.join(timeout=5.0)
        self._handle_telemetry({
            "ts": time.time(), "kind": "worker_exited", "source": self.name,
            "exitcode": self._process.exitcode,
        })


def receive_all(workers: List["CommandWorker"]) -> List[Any]:
    """Collect one reply from every worker, processing messages in
    *arrival* order across all their pipes.

    The sequential alternative (``[w.receive() for w in workers]``)
    blocks on worker 0's reply while workers 1..N's telemetry queues
    unseen — a long barrier window would go dark. Multiplexing with
    :func:`multiprocessing.connection.wait` keeps every stream live.
    Replies are returned in worker order; a crash or shipped error
    raises :class:`WorkerCrashed` exactly as :meth:`CommandWorker.
    receive` would.
    """
    replies: Dict[int, Any] = {}
    by_conn = {worker._conn: worker for worker in workers}
    while len(replies) < len(workers):
        for conn in connection_wait(
            [w._conn for w in workers if id(w) not in replies]
        ):
            worker = by_conn[conn]
            reply = worker._read()
            if reply is not _NO_REPLY:
                replies[id(worker)] = reply
    return [replies[id(worker)] for worker in workers]


@dataclass
class _Attempt:
    request: RunRequest
    attempt: int = 1  # 1-based attempt number
    not_before: float = 0.0  # monotonic time gate (retry backoff)
    deadline: Optional[float] = None  # monotonic timeout, once running


@dataclass
class _Book:
    """Mutable execution state shared by the scheduling helpers."""

    results: Dict[str, RunResult] = field(default_factory=dict)
    pending: List[_Attempt] = field(default_factory=list)
    #: Live pool workers -> the attempt each is running (None = idle).
    workers: Dict[CommandWorker, Optional[_Attempt]] = field(default_factory=dict)


class SweepExecutor:
    """Drives one plan to completion; reusable only via :func:`execute_plan`."""

    def __init__(
        self,
        plan: ExecutionPlan,
        parallel: int = 1,
        runner: Optional[Runner] = None,
        timeout: Optional[float] = None,
        max_attempts: int = 3,
        retry_backoff: float = 0.05,
        checkpoint_path: Optional[Union[str, os.PathLike]] = None,
        resume: bool = False,
        mp_context: Optional[str] = None,
        metrics: Optional[MetricsRegistry] = None,
        telemetry: Optional[TelemetryHub] = None,
        heartbeat_interval: Optional[float] = None,
    ) -> None:
        if parallel < 0:
            raise ValueError("parallel must be >= 0 (0 = inline)")
        if max_attempts < 1:
            raise ValueError("max_attempts must be >= 1")
        self.plan = plan
        self.parallel = parallel
        self.runner: Runner = runner if runner is not None else registry_runner
        self.timeout = timeout
        self.max_attempts = max_attempts
        self.retry_backoff = retry_backoff
        self.checkpoint_path = checkpoint_path
        self.resume = resume
        self.telemetry = telemetry
        self.heartbeat_interval = heartbeat_interval
        self.mp_context = mp_context
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        m = self.metrics
        self._m_completed = m.counter("runtime.points_completed")
        self._m_failed = m.counter("runtime.points_failed")
        self._m_retried = m.counter("runtime.points_retried")
        self._m_timeout = m.counter("runtime.points_timeout")
        self._m_resumed = m.counter("runtime.points_resumed")
        self._m_workers = m.gauge("runtime.workers_active")

    # -- telemetry seams ------------------------------------------------
    def _emit(self, kind: str, **fields: Any) -> None:
        """Hub-only lifecycle event (no checkpoint line)."""
        if self.telemetry is not None:
            self.telemetry.ingest(
                {"ts": time.time(), "kind": kind, "source": "executor", **fields}
            )

    def _point_event(
        self,
        writer: Optional[CheckpointWriter],
        kind: str,
        key: str,
        **fields: Any,
    ) -> None:
        """Per-point lifecycle record: into the hub (when streaming)
        AND the checkpoint JSONL (always — resume reads it back)."""
        doc = {"ts": time.time(), "kind": kind, "source": "executor",
               "key": key, **fields}
        if self.telemetry is not None:
            self.telemetry.ingest(doc)
        if writer is not None:
            writer.event(doc)

    def _prior_failures(self) -> List[Dict[str, Any]]:
        """Failure/retry history from the checkpoint being resumed
        (timestamp-free, so reports stay deterministic)."""
        failures: List[Dict[str, Any]] = []
        for event in load_checkpoint_events(self.checkpoint_path):
            if event.get("kind") not in (
                "point_crashed", "point_retried", "point_failed"
            ):
                continue
            failures.append({
                "key": event.get("key"),
                "kind": event.get("kind"),
                "error": event.get("error"),
                "attempt": event.get("attempt"),
            })
        return failures

    # ------------------------------------------------------------------
    def run(self) -> SweepOutcome:
        started = time.perf_counter()
        book = _Book()
        resumed = 0
        prior_failures: List[Dict[str, Any]] = []

        if self.checkpoint_path is not None and self.resume:
            done = load_checkpoint(self.checkpoint_path)
            for point in self.plan:
                stored = done.get(point.key)
                # Only successful points are final; failed ones get a
                # fresh round of attempts on resume.
                if stored is not None and stored.is_ok:
                    book.results[point.key] = stored
                    resumed += 1
            self._m_resumed.inc(resumed)
            prior_failures = self._prior_failures()

        for point in self.plan:
            if point.key not in book.results:
                book.pending.append(_Attempt(point))

        self._emit(
            "run_started",
            experiment=self.plan.experiment_id,
            points=len(self.plan),
            pending=len(book.pending),
            resumed=resumed,
            parallel=self.parallel,
        )
        if prior_failures:
            self._emit(
                "resume_report",
                failures=prior_failures,
                resumed=resumed,
            )

        writer: Optional[CheckpointWriter] = None
        if self.checkpoint_path is not None:
            writer = CheckpointWriter(self.checkpoint_path)
        saved_attempt = os.environ.get(ATTEMPT_ENV)
        # Inline points run in *this* process: feed the hub directly
        # through the ambient emitter so partition drivers (and any
        # other deep layer) stream exactly as they would from a worker.
        emitter = (
            self.telemetry.emitter("inline")
            if self.telemetry is not None
            else obs_telemetry.NULL_EMITTER
        )
        try:
            with obs_telemetry.use_emitter(emitter):
                self._schedule(book, writer)
        finally:
            if writer is not None:
                writer.close()
            for worker in book.workers:  # interrupt path: still busy
                worker.kill()
            if saved_attempt is None:
                os.environ.pop(ATTEMPT_ENV, None)
            else:
                os.environ[ATTEMPT_ENV] = saved_attempt

        ordered = [book.results[p.key] for p in self.plan]
        outcome = SweepOutcome(
            plan=self.plan,
            results=ordered,
            metrics=self.metrics.snapshot(),
            wall_time_seconds=time.perf_counter() - started,
            resumed_points=resumed,
            prior_failures=prior_failures,
        )
        self._emit(
            "run_finished",
            completed=len(outcome.completed),
            failed=len(outcome.failed),
            wall_seconds=outcome.wall_time_seconds,
        )
        return outcome

    # -- scheduling -----------------------------------------------------
    def _schedule(self, book: _Book, writer: Optional[CheckpointWriter]) -> None:
        """The one scheduling loop: start every ready attempt a slot is
        free for (inline when ``parallel=0``, else on an idle or new
        pool worker), then collect replies, crashes and timeouts."""
        telemetry_on = self.telemetry is not None or any(
            item.request.telemetry for item in book.pending
        )
        while book.pending or any(book.workers.values()):
            now = time.monotonic()
            busy = sum(1 for item in book.workers.values() if item is not None)
            ready = [p for p in book.pending if p.not_before <= now]
            for item in ready[: max(1, self.parallel) - busy]:
                book.pending.remove(item)
                self._point_event(
                    writer, "point_started", item.request.key, attempt=item.attempt
                )
                if self.parallel == 0:
                    try:
                        result = _run_point(self.runner, item.request, item.attempt)
                    except Exception as exc:  # noqa: BLE001
                        self._failed(book, writer, item, _describe(exc))
                    else:
                        self._record(book, writer, result)
                    continue
                idle = [w for w, running in book.workers.items() if running is None]
                worker = idle[0] if idle else self._spawn(book, telemetry_on)
                worker.send("run", (item.request, item.attempt))
                if self.timeout is not None:
                    item.deadline = time.monotonic() + self.timeout
                book.workers[worker] = item

            if not any(book.workers.values()):
                # Everything left is backoff-gated; sleep until the gate.
                if book.pending:
                    gate = min(p.not_before for p in book.pending)
                    time.sleep(max(0.0, min(gate - time.monotonic(), 0.25)))
                continue

            # Wait for replies (idle workers' heartbeats too, so their
            # pipes never fill), bounded by the nearest deadline.
            wait_for = 0.25
            for item in book.workers.values():
                if item is not None and item.deadline is not None:
                    wait_for = min(wait_for, max(0.0, item.deadline - now))
            by_conn = {w._conn: w for w in book.workers}
            for conn in connection_wait(list(by_conn), timeout=wait_for):
                worker = by_conn[conn]
                item = book.workers[worker]
                try:
                    reply = worker._read()
                except WorkerCrashed as exc:
                    if worker._dead:
                        self._retire(book, worker).close()
                    else:
                        book.workers[worker] = None
                    if item is not None:
                        self._failed(book, writer, item, exc.error)
                    continue
                if reply is not _NO_REPLY:
                    book.workers[worker] = None
                    self._record(
                        book, writer,
                        RunResult.from_dict(reply).with_attempts(item.attempt),
                    )

            now = time.monotonic()
            for worker, item in list(book.workers.items()):
                if item is None or item.deadline is None or now < item.deadline:
                    continue
                self._m_timeout.inc()
                self._retire(book, worker).kill()
                self._failed(book, writer, item, f"timeout after {self.timeout:g}s")

        for worker in list(book.workers):
            self._retire(book, worker).close()

    def _spawn(self, book: _Book, telemetry_on: bool) -> CommandWorker:
        worker = CommandWorker(
            _point_worker,
            init_payload=self.runner,
            mp_context=self.mp_context,
            name="sweep/pid{pid}",
            telemetry=telemetry_on,
            on_telemetry=self.telemetry.ingest if self.telemetry is not None else None,
            heartbeat_interval=self.heartbeat_interval,
        )
        book.workers[worker] = None
        self._m_workers.inc()
        return worker

    def _retire(self, book: _Book, worker: CommandWorker) -> CommandWorker:
        del book.workers[worker]
        self._m_workers.dec()
        return worker

    def _failed(
        self,
        book: _Book,
        writer: Optional[CheckpointWriter],
        item: _Attempt,
        error: str,
    ) -> None:
        """The retry policy: requeue a failed attempt (first in line,
        behind an exponential backoff gate) or record the point failed."""
        key, attempt = item.request.key, item.attempt
        self._point_event(writer, "point_crashed", key, attempt=attempt, error=error)
        if attempt >= self.max_attempts:
            self._record(
                book, writer, RunResult.failed(item.request, error, attempts=attempt)
            )
            return
        self._m_retried.inc()
        self._point_event(writer, "point_retried", key, attempt=attempt, error=error)
        backoff = self.retry_backoff * (2 ** (attempt - 1))
        book.pending.insert(
            0,
            _Attempt(
                item.request,
                attempt=attempt + 1,
                not_before=time.monotonic() + backoff,
            ),
        )

    def _record(
        self, book: _Book, writer: Optional[CheckpointWriter], result: RunResult
    ) -> None:
        book.results[result.request.key] = result
        if result.is_ok:
            self._m_completed.inc()
            self._point_event(
                writer, "point_finished", result.request.key,
                attempt=result.attempts, status=result.status,
            )
        else:
            self._m_failed.inc()
            self._point_event(
                writer, "point_failed", result.request.key,
                attempt=result.attempts, error=result.error,
            )
        if writer is not None:
            writer.record(result)


def execute_plan(
    plan: ExecutionPlan,
    parallel: int = 1,
    runner: Optional[Runner] = None,
    timeout: Optional[float] = None,
    max_attempts: int = 3,
    retry_backoff: float = 0.05,
    checkpoint_path: Optional[Union[str, os.PathLike]] = None,
    resume: bool = False,
    mp_context: Optional[str] = None,
    metrics: Optional[MetricsRegistry] = None,
    telemetry: Optional[TelemetryHub] = None,
    heartbeat_interval: Optional[float] = None,
) -> SweepOutcome:
    """Execute ``plan`` and return its :class:`SweepOutcome`.

    ``parallel`` is the worker-process count (``0`` = inline in this
    process). ``telemetry`` streams live health into the given hub.
    See :class:`SweepExecutor` for the remaining knobs.
    """
    return SweepExecutor(
        plan,
        parallel=parallel,
        runner=runner,
        timeout=timeout,
        max_attempts=max_attempts,
        retry_backoff=retry_backoff,
        checkpoint_path=checkpoint_path,
        resume=resume,
        mp_context=mp_context,
        metrics=metrics,
        telemetry=telemetry,
        heartbeat_interval=heartbeat_interval,
    ).run()
