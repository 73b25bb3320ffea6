"""Equivalence of the calendar-queue fast path and the heap-only queue.

The hot-path overhaul must be *observationally invisible*: the bucketed
calendar/near-future queue (``EventQueue(calendar=True)``) and the
pre-optimisation binary heap (``calendar=False``, also selected
process-wide by ``REPRO_SLOW_PATH=1``) must produce the identical
``(time, priority, seq)`` total order and the identical cancellation
semantics on *any* schedule. These property-style tests drive both
queues through the same randomized push/pop/cancel sequences and
demand byte-equal outcomes.
"""

import random

import pytest

from repro.errors import SimulationError
from repro.sim.event import (
    BUCKET_WIDTH,
    NEAR_BUCKETS,
    PRIORITY_HIGH,
    PRIORITY_LOW,
    PRIORITY_NORMAL,
    SPARSE_RUN_MAX,
    EventQueue,
)
from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator

PRIORITIES = (PRIORITY_HIGH, PRIORITY_NORMAL, PRIORITY_LOW)

#: One near-window's span in seconds (events below this exercise the
#: bucket tier; far beyond it, the heap tier and window migration).
WINDOW = NEAR_BUCKETS * BUCKET_WIDTH


def _noop() -> None:
    pass


def _random_times(rng: random.Random, n: int, span: float):
    """``n`` times in [0, span] with deliberate collisions (~10%)."""
    times = []
    for _ in range(n):
        if times and rng.random() < 0.1:
            times.append(rng.choice(times))  # exact duplicate time
        else:
            times.append(rng.random() * span)
    return times


def _drain(queue: EventQueue):
    order = []
    while queue:
        ev = queue.pop()
        order.append((ev.time, ev.priority, ev.seq))
    return order


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
@pytest.mark.parametrize(
    "span",
    [
        0.5 * WINDOW,  # everything in the first near window (bucket tier)
        40 * WINDOW,  # spread far: migration, sparse windows, heap tier
        2000 * WINDOW,  # swarm-timer territory: the adaptive span engages
        500_000 * WINDOW,  # hours-wide horizon: every window re-derived
    ],
)
def test_pop_order_identical_on_random_schedules(seed, span):
    rng = random.Random(seed)
    times = _random_times(rng, 2000, span)
    prios = [rng.choice(PRIORITIES) for _ in times]

    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    for t, p in zip(times, prios):
        heap_q.push(t, _noop, (), p)
        cal_q.push(t, _noop, (), p)

    heap_order = _drain(heap_q)
    cal_order = _drain(cal_q)
    assert cal_order == heap_order
    # The order really is the (time, priority, seq) total order.
    assert heap_order == sorted(heap_order)
    assert len(heap_order) == len(times)


@pytest.mark.parametrize("seed", [10, 11, 12])
def test_cancellation_semantics_identical(seed):
    rng = random.Random(seed)
    times = _random_times(rng, 1500, 10 * WINDOW)
    prios = [rng.choice(PRIORITIES) for _ in times]

    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    heap_evs, cal_evs = [], []
    for t, p in zip(times, prios):
        heap_evs.append(heap_q.push(t, _noop, (), p))
        cal_evs.append(cal_q.push(t, _noop, (), p))

    # Cancel the same 30% on both queues (tombstones on the calendar
    # path, skipped-on-pop for the heap path).
    doomed = rng.sample(range(len(times)), k=len(times) * 3 // 10)
    for i in doomed:
        for q, evs in ((heap_q, heap_evs), (cal_q, cal_evs)):
            ev = evs[i]
            if not ev.cancelled:
                ev.cancel()
                q.note_cancelled()

    assert len(heap_q) == len(cal_q) == len(times) - len(doomed)
    heap_order = _drain(heap_q)
    cal_order = _drain(cal_q)
    assert cal_order == heap_order
    cancelled_keys = {(times[i], prios[i], i) for i in doomed}
    assert not cancelled_keys & set(heap_order)


@pytest.mark.parametrize("seed", [20, 21, 22])
def test_interleaved_push_pop_identical(seed):
    """Steady-state shape: pops interleaved with pushes of later times."""
    rng = random.Random(seed)
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    # Both queues see the *same* decision stream: seed both identically.
    for t in _random_times(rng, 64, WINDOW):
        heap_q.push(t, _noop, (), PRIORITY_NORMAL)
        cal_q.push(t, _noop, (), PRIORITY_NORMAL)

    heap_order, cal_order = [], []
    now = 0.0
    for _ in range(3000):
        a = heap_q.pop()
        b = cal_q.pop()
        heap_order.append((a.time, a.priority, a.seq))
        cal_order.append((b.time, b.priority, b.seq))
        now = a.time
        # Reschedule forward (never into the past), mixed near/far.
        if len(heap_q) < 2048:
            for _k in range(rng.choice((0, 1, 1, 2))):
                dt = rng.random() * (WINDOW if rng.random() < 0.8 else 20 * WINDOW)
                p = rng.choice(PRIORITIES)
                heap_q.push(now + dt, _noop, (), p)
                cal_q.push(now + dt, _noop, (), p)
        if not heap_q:
            break
    assert cal_order == heap_order


def test_dense_window_beyond_sparse_run_max():
    """> SPARSE_RUN_MAX events in one far window forces the dense
    bucket-distribution migration path; order must still match."""
    n = SPARSE_RUN_MAX * 3
    base = 50 * WINDOW  # far from t=0: guarantees a migration
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    rng = random.Random(7)
    for _ in range(n):
        t = base + rng.random() * WINDOW * 0.9
        p = rng.choice(PRIORITIES)
        heap_q.push(t, _noop, (), p)
        cal_q.push(t, _noop, (), p)
    assert _drain(cal_q) == _drain(heap_q)


def test_pop_ready_until_horizon_identical():
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    for i in range(100):
        t = i * 0.01
        heap_q.push(t, _noop, (), PRIORITY_NORMAL)
        cal_q.push(t, _noop, (), PRIORITY_NORMAL)
    horizon = 0.495
    a = []
    while (ev := heap_q.pop_ready(horizon)) is not None:
        a.append((ev.time, ev.seq))
    b = []
    while (ev := cal_q.pop_ready(horizon)) is not None:
        b.append((ev.time, ev.seq))
    assert a == b
    assert a and a[-1][0] <= horizon
    # The rest is still there on both.
    assert len(heap_q) == len(cal_q) == 100 - len(a)


def test_pop_from_empty_raises_on_both_paths():
    for calendar in (False, True):
        q = EventQueue(calendar=calendar)
        with pytest.raises(SimulationError):
            q.pop()
        ev = q.push(0.0, _noop, (), PRIORITY_NORMAL)
        ev.cancel()
        q.note_cancelled()
        assert not q
        with pytest.raises(SimulationError):
            q.pop()


def test_adaptive_window_widens_for_wide_spread():
    """A wide event spread must re-derive a wide window: the span after
    a migration is set by the observed gap to the TARGET_WINDOW_EVENTS-th
    event, not the fixed 256x1ms minimum geometry."""
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    rng = random.Random(99)
    span = 1000 * WINDOW  # ~256 s for the default geometry
    for _ in range(5000):
        t = rng.random() * span
        heap_q.push(t, _noop, (), PRIORITY_NORMAL)
        cal_q.push(t, _noop, (), PRIORITY_NORMAL)
    # Drain a quarter: forces at least one window migration.
    a = [cal_q.pop().seq for _ in range(1250)]
    b = [heap_q.pop().seq for _ in range(1250)]
    assert a == b
    assert cal_q._span > WINDOW  # adapted beyond the minimum geometry
    assert _drain(cal_q) == _drain(heap_q)


def test_entries_exactly_on_win_end():
    """``_win_end`` is exclusive for the near tier: entries landing
    exactly on it (and a float-ulp either side) must keep exact order
    through the tier boundary."""
    import math

    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    cal_q.push(0.0, _noop, (), PRIORITY_NORMAL)
    heap_q.push(0.0, _noop, (), PRIORITY_NORMAL)
    end = cal_q._win_end
    times = [
        math.nextafter(end, 0.0),  # one ulp inside the window
        end,  # exactly on the boundary (far tier)
        math.nextafter(end, math.inf),  # one ulp beyond
        end,  # duplicate boundary time
        end / 2,
        end * 3,
    ]
    for t in times:
        for p in PRIORITIES:
            heap_q.push(t, _noop, (), p)
            cal_q.push(t, _noop, (), p)
    # The near-tier invariant: nothing at or past _win_end sits in a
    # bucket or the opened run.
    assert cal_q._near == sum(1 for t in times if t < end) * len(PRIORITIES) + 1
    assert _drain(cal_q) == _drain(heap_q)


@pytest.mark.parametrize("seed", [40, 41, 42])
def test_cancellation_of_events_migrated_across_a_resize(seed):
    """Cancel far-tier events before migration and near-tier events
    after they have been migrated across a window resize; both queues
    must agree at every step."""
    rng = random.Random(seed)
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    heap_evs, cal_evs = [], []
    # Two regimes: a dense prefix inside the first window and a wide
    # tail that forces resized (adaptive) windows during the drain.
    times = [rng.random() * WINDOW for _ in range(400)]
    times += [WINDOW * (2 + rng.random() * 2000) for _ in range(1200)]
    for t in times:
        p = rng.choice(PRIORITIES)
        heap_evs.append(heap_q.push(t, _noop, (), p))
        cal_evs.append(cal_q.push(t, _noop, (), p))

    def cancel(i):
        for q, evs in ((heap_q, heap_evs), (cal_q, cal_evs)):
            if not evs[i].cancelled:
                evs[i].cancel()
                q.note_cancelled()

    # Cancel some far-tier events while they still sit in the heap.
    for i in rng.sample(range(400, 1600), 200):
        cancel(i)
    order = []
    popped = 0
    while cal_q:
        a = cal_q.pop()
        b = heap_q.pop()
        assert (a.time, a.priority, a.seq) == (b.time, b.priority, b.seq)
        order.append(a.seq)
        popped += 1
        # Periodically cancel a pending victim mid-drain: by now many
        # survivors have been migrated into a resized near window.
        if popped % 97 == 0:
            cancel(rng.randrange(len(times)))
        assert len(cal_q) == len(heap_q)
    assert len(order) == len(set(order))


@pytest.mark.parametrize("seed", [50, 51])
def test_mid_run_window_resizes_interleaved(seed):
    """Pops interleaved with pushes whose spread flips between dense
    (1 ms gaps) and wide (seconds) regimes: the window must re-derive
    both down and up without ever reordering."""
    rng = random.Random(seed)
    heap_q = EventQueue(calendar=False)
    cal_q = EventQueue(calendar=True)
    for t in _random_times(rng, 128, WINDOW):
        heap_q.push(t, _noop, (), PRIORITY_NORMAL)
        cal_q.push(t, _noop, (), PRIORITY_NORMAL)
    spans = []
    for i in range(6000):
        a = heap_q.pop()
        b = cal_q.pop()
        assert (a.time, a.priority, a.seq) == (b.time, b.priority, b.seq)
        now = a.time
        # Flip regime every ~500 pops.
        wide = (i // 500) % 2 == 1
        if len(heap_q) < 2048:
            for _k in range(rng.choice((1, 1, 2))):
                dt = rng.random() * (2000 * WINDOW if wide else WINDOW)
                p = rng.choice(PRIORITIES)
                heap_q.push(now + dt, _noop, (), p)
                cal_q.push(now + dt, _noop, (), p)
        spans.append(cal_q._span)
        if not heap_q:
            break
    # The window really resized in both directions during the run.
    assert max(spans) > 2 * WINDOW
    assert min(spans) == pytest.approx(WINDOW)


@pytest.mark.parametrize("seed", [30, 31])
def test_simulator_fast_and_slow_execute_identically(seed):
    """Full-kernel equivalence: same callbacks, same clock, same order —
    including runtime cancellations and self-rescheduling timers."""

    def build_and_run(fast: bool):
        sim = Simulator(seed=seed, observe=False, config=SimConfig(fast=fast))
        rng = random.Random(seed)
        log = []
        handles = {}

        def fire(tag):
            log.append((round(sim.now, 9), tag))
            r = rng.random()
            if r < 0.45 and tag < 4000:
                dt = rng.random() * (0.1 if r < 0.3 else 5.0)
                handles[tag + 1000] = sim.schedule(dt, fire, tag + 1000)
            elif r < 0.55:
                # Cancel some still-pending handle (idempotent).
                if handles:
                    victim = rng.choice(sorted(handles))
                    sim.cancel(handles.pop(victim))

        for i in range(300):
            handles[i] = sim.schedule(rng.random() * 2.0, fire, i)
        sim.run(until=50.0)
        return log, sim.events_processed, sim.now

    fast_result = build_and_run(True)
    slow_result = build_and_run(False)
    assert fast_result == slow_result
    assert fast_result[1] > 300  # the workload actually rescheduled
