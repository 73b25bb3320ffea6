"""Event-dispatch microbenchmark: calendar-queue kernel vs reference.

Pits ``SimConfig(fast=True)`` (calendar/near-future event queue, event
free list, inlined dispatch loop) against ``SimConfig(fast=False)``
(the pre-optimisation heap-only reference, also selected process-wide
by ``REPRO_SLOW_PATH=1``) on the workload the optimisation targets:
a burst of short-delay timers — the loopback / rule-scan /
serialization delays that dominate TCP and pipe traffic in the
figure-10/11 swarms.

Both paths execute the identical schedule (asserted on the processed
event counts); only wall clock differs. The hot-path gate requires the
fast path to dispatch at least **2x** faster on the burst workload.
Two secondary workloads are reported separately: steady-state
self-rescheduling timers (ungated: dominated by scheduling/callback
work the optimisation does not claim) and a wide horizon that
exercises window migration — gated at **>= 1.0x** now that the
adaptive window sizes itself to the observed event spread (the fixed
256x1ms geometry used to *lose* here; see DESIGN.md).

Every timing is the best of ``TIMING_ROUNDS`` runs: a single-shot
measurement is at the mercy of allocator/scheduler noise, which showed
up as an unexplained +14% ``wall_seconds`` drift between baseline
regenerations. The min is the standard low-noise estimator for
CPU-bound microbenchmarks.

Scale: ``REPRO_BENCH_SCALE`` (float, default 1.0) multiplies the event
counts — CI smoke runs use 0.1.
"""

import os
import time

from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator

SCALE = float(os.environ.get("REPRO_BENCH_SCALE", "1.0") or "1.0")

#: Primary gated workload: burst drain of short-delay timers.
DRAIN_EVENTS = max(1000, int(400_000 * SCALE))
DRAIN_SPAN = 0.25  # seconds of sim time: everything lands in the near window

#: Secondary (ungated) workloads.
STEADY_EVENTS = max(1000, int(200_000 * SCALE))
STEADY_TIMERS = 2000
WIDE_EVENTS = max(1000, int(200_000 * SCALE))
WIDE_SPAN = 400.0

#: Gate: fast path must dispatch at least this much faster (burst).
MIN_SPEEDUP = 2.0
#: Gate: the migration-heavy wide horizon must not lose to the heap.
MIN_WIDE_SPEEDUP = 1.0

#: Each wall-clock number is the best of this many runs (noise floor).
TIMING_ROUNDS = 3


def _noop() -> None:
    pass


def best_of(fn, *args, rounds: int = TIMING_ROUNDS, **kwargs) -> float:
    """Minimum wall-clock over ``rounds`` runs of ``fn`` (least-noise
    estimator: every source of interference only ever adds time)."""
    return min(fn(*args, **kwargs) for _ in range(rounds))


def dispatch_burst(fast: bool, events: int = DRAIN_EVENTS, span: float = DRAIN_SPAN):
    """Schedule ``events`` short-delay timers, then drain them."""
    sim = Simulator(seed=1, observe=False, config=SimConfig(fast=fast))
    dt = span / events
    schedule = sim.schedule
    for i in range(events):
        schedule(i * dt, _noop)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events
    return wall


def dispatch_steady(fast: bool, events: int = STEADY_EVENTS, timers: int = STEADY_TIMERS):
    """Self-rescheduling timer wheel: push interleaved with pop."""
    sim = Simulator(seed=1, observe=False, config=SimConfig(fast=fast))
    schedule = sim.schedule
    state = [0]

    def tick(delay: float) -> None:
        n = state[0] = state[0] + 1
        if n < events:
            schedule(delay, tick, delay)

    for i in range(timers):
        delay = 0.0001 * (1 + i % 97)
        schedule(delay, tick, delay)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events + timers - 1
    return wall


def dispatch_wide(fast: bool, events: int = WIDE_EVENTS, span: float = WIDE_SPAN):
    """Events spread over a wide horizon: stresses window migration."""
    sim = Simulator(seed=1, observe=False, config=SimConfig(fast=fast))
    dt = span / events
    schedule = sim.schedule
    for i in range(events):
        schedule(i * dt, _noop)
    t0 = time.perf_counter()
    sim.run()
    wall = time.perf_counter() - t0
    assert sim.events_processed == events
    return wall


def test_kernel_dispatch_speedup(benchmark, bench_json):
    # Warm-up both paths once (interpreter/alloc caches).
    dispatch_burst(True, events=2000)
    dispatch_burst(False, events=2000)

    # ``wall_seconds`` (what compare.py tracks across regenerations) is
    # the multi-round mean of the gated fast-path burst; the speedup
    # metrics divide best-of-N timings so one noisy round cannot move
    # a recorded ratio.
    benchmark.pedantic(
        dispatch_burst, kwargs={"fast": True}, rounds=TIMING_ROUNDS, iterations=1
    )
    fast_wall = best_of(dispatch_burst, True)
    slow_wall = best_of(dispatch_burst, False)
    speedup = slow_wall / fast_wall

    steady_fast = best_of(dispatch_steady, True)
    steady_slow = best_of(dispatch_steady, False)
    wide_fast = best_of(dispatch_wide, True)
    wide_slow = best_of(dispatch_wide, False)
    steady_speedup = steady_slow / steady_fast
    wide_speedup = wide_slow / wide_fast

    bench_json(
        "kernel",
        events=DRAIN_EVENTS,
        fast_wall_seconds=round(fast_wall, 6),
        slow_wall_seconds=round(slow_wall, 6),
        speedup=round(speedup, 3),
        events_per_second_fast=round(DRAIN_EVENTS / fast_wall),
        events_per_second_slow=round(DRAIN_EVENTS / slow_wall),
        steady_speedup=round(steady_speedup, 3),
        wide_speedup=round(wide_speedup, 3),
    )
    print(
        f"\nkernel dispatch: burst fast={fast_wall:.3f}s slow={slow_wall:.3f}s "
        f"-> {speedup:.2f}x | steady {steady_speedup:.2f}x | "
        f"wide {wide_speedup:.2f}x\n"
    )

    assert speedup >= MIN_SPEEDUP, (
        f"event-dispatch fast path only {speedup:.2f}x over the heap-only "
        f"reference (need >= {MIN_SPEEDUP}x)"
    )
    # The migration-heavy horizon must not lose to the heap: the
    # adaptive window re-derives its span from the observed spread, so
    # wide timers get a wide window. Too few events per window to
    # measure at smoke scale, so full scale only.
    if SCALE >= 1.0:
        assert wide_speedup >= MIN_WIDE_SPEEDUP, (
            f"wide-horizon dispatch only {wide_speedup:.2f}x over the "
            f"heap-only reference (need >= {MIN_WIDE_SPEEDUP}x): the "
            f"adaptive calendar window has regressed"
        )
