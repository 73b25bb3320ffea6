"""Packet-train batching: observational invisibility and bounds.

``DummynetPipe`` on the fast path coalesces back-to-back serialization
events into packet-train events (``net/pipe.py``). These tests pin the
contract down in-process: every delivery keeps the exact
``(time, priority, seq)`` identity the per-packet reference path would
have given it, so delivery timelines, ``events_processed``,
``pending`` and the clock agree with ``SimConfig(fast=False)`` under
every kernel interaction — horizons, ``stop()``, ``step()``,
``max_events`` budgets and mid-run ``reconfigure()``. The subprocess
A/B byte-identity proof (metrics + flight + trace under two hash
seeds) lives in ``tests/test_hotpath.py``.
"""

import pytest

from repro.net.addr import ip
from repro.net.packet import Packet
from repro.net.pipe import TRAIN_MAX_PACKETS, DummynetPipe
from repro.sim.config import SimConfig
from repro.sim.kernel import Simulator

SRC = ip("10.0.0.1")
DST = ip("10.0.0.2")


def _packet(size=1500, tag=None):
    return Packet(SRC, DST, "udp", size, payload=tag)


def _burst(pipe, n, size=1500, deliver=None):
    for i in range(n):
        pipe.transmit(_packet(size, tag=i), deliver)


def _run_twins(scenario, **kwargs):
    """Run ``scenario(sim, log)`` on a fast and a slow simulator and
    return both (log, sim) pairs. ``log`` records whatever the
    scenario appends — typically ``(sim.now, packet.payload)``."""
    results = []
    for fast in (True, False):
        sim = Simulator(seed=1, observe=True, config=SimConfig(fast=fast), **kwargs)
        log = []
        scenario(sim, log)
        results.append((log, sim))
    return results


def _trains(sim):
    return sim.metrics.counter("net.pipe.trains", wall=True).value


def _coalesced(sim):
    return sim.metrics.counter("net.pipe.train_coalesced", wall=True).value


# ----------------------------------------------------------------------
# Formation and bounds
# ----------------------------------------------------------------------
def test_back_to_back_burst_forms_one_train():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    got = []
    _burst(pipe, 40, deliver=lambda p: got.append((sim.now, p.payload)))
    sim.run()
    assert [tag for _, tag in got] == list(range(40))
    assert _trains(sim) == 1
    assert _coalesced(sim) == 39
    assert sim.pending == 0 and sim._deferred_deliveries == 0


def test_train_bounded_by_bandwidth_delay_product():
    """Train bytes never exceed max(BDP, floor); overflow packets fall
    back to plain per-packet events (exact reference identity)."""
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    # BDP = 1e6 * 0.001 = 1 KB < 64 KiB floor -> cap is the floor.
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.001, name="p")
    assert pipe._train_cap == 64 * 1024
    got = []
    # 16 KiB packets: head + 3 followers fill the 64 KiB cap.
    _burst(pipe, 10, size=16 * 1024, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(10))
    assert _trains(sim) == 1
    assert _coalesced(sim) == 3  # 4 * 16 KiB == cap; the 5th overflows


def test_train_bounded_by_max_packets():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e9, delay=0.0, name="p")
    n = TRAIN_MAX_PACKETS + 50
    got = []
    _burst(pipe, n, size=64, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(n))
    assert _coalesced(sim) == TRAIN_MAX_PACKETS - 1  # head + 255 coalesced


def test_unshaped_pipe_never_batches():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=None, delay=0.01, name="p")
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(20))
    assert _trains(sim) == 0 and _coalesced(sim) == 0


def test_batch_false_opts_out_on_fast_sim():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p", batch=False)
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append(p.payload))
    sim.run()
    assert got == list(range(20))
    assert _trains(sim) == 0 and _coalesced(sim) == 0


def test_slow_sim_never_batches_by_default():
    sim = Simulator(seed=1, config=SimConfig(fast=False))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    _burst(pipe, 20, deliver=lambda p: None)
    sim.run()
    assert _trains(sim) == 0 and _coalesced(sim) == 0


# ----------------------------------------------------------------------
# Fast/slow twin equivalence under kernel interactions
# ----------------------------------------------------------------------
def _two_pipe_scenario(sim, log):
    """Two shaped pipes with interleaving arrival streams plus an
    unrelated timer — trains must re-materialise whenever another
    event precedes a follower."""
    a = DummynetPipe(sim, bandwidth=1e6, delay=0.010, name="a")
    b = DummynetPipe(sim, bandwidth=2e6, delay=0.011, name="b")

    def deliver(pkt):
        log.append((sim.now, pkt.payload))

    def tick(i):
        log.append((sim.now, f"tick{i}"))

    _burst(a, 30, deliver=deliver)
    for i in range(30):
        b.transmit(_packet(tag=100 + i), deliver)
    for i in range(5):
        sim.schedule(0.005 + i * 0.004, tick, i)
    sim.run()


def test_interleaved_pipes_timeline_identical():
    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(_two_pipe_scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    assert fast_sim.now == slow_sim.now
    assert _coalesced(fast_sim) > 0  # batching actually engaged


def test_horizon_splits_train_identically():
    """run(until=...) landing mid-train: the same deliveries happen on
    both paths, the rest stay pending, and a second run finishes them."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 50, deliver=lambda p: log.append((sim.now, p.payload)))
        # 1500 B @ 1e6 B/s = 1.5 ms each; horizon lands after ~20.
        sim.run(until=0.0307)
        log.append(("pending", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "pending")
    assert marker[1] == 30  # the horizon really split the burst


def test_stop_mid_train_identical():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))
            if pkt.payload == 9:
                sim.stop()

        _burst(pipe, 30, deliver=deliver)
        sim.run()
        log.append(("stopped", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "stopped")
    assert marker[1] == 20  # stop() really interrupted the train


def test_max_events_budget_identical():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 30, deliver=lambda p: log.append((sim.now, p.payload)))
        sim.run(max_events=12)
        log.append(("budget", sim.pending, sim.now))
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    marker = next(e for e in fast_log if e[0] == "budget")
    assert marker[1] == 18


def test_step_drains_one_delivery_at_a_time():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 10, deliver=lambda p: log.append((sim.now, p.payload)))
        while sim.step():
            log.append(("after-step", sim.pending))

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed == 10


def test_reconfigure_shrinking_delay_mid_burst_identical():
    """A reconfigure that shrinks the delay makes arrivals
    non-monotone; the batched path must fall back to plain events and
    still deliver in exact (time, priority, seq) order."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.5, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        def send(tag):
            pipe.transmit(_packet(tag=tag), deliver)

        for i in range(10):
            sim.schedule(i * 0.0001, send, i)
        # Shrink the delay while the burst is still arriving: packet 5+
        # can now arrive before earlier queued deliveries.
        sim.schedule(0.00045, pipe.reconfigure, None, 0.001)
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    # The non-monotone arrivals really happened (deliveries reordered
    # relative to send order).
    tags = [tag for _, tag in fast_log]
    assert tags != sorted(tags)


def test_reconfigure_flushes_live_train_accounting():
    """Regression: ``reconfigure()`` on a pipe with a live train must
    flush the coalesced followers back into real queue events *before*
    the new parameters apply — with the deferred-delivery ledger
    zeroed, the flushed entries keeping their reference identities, and
    the train machinery re-arming for traffic sent after the change."""
    sim = Simulator(seed=1, observe=True, config=SimConfig(fast=True))
    pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.05, name="p")
    got = []
    _burst(pipe, 20, deliver=lambda p: got.append((sim.now, p.payload)))
    # The burst formed one live train: head is a queue event, the 19
    # followers are deferred (pending work, not queue entries).
    assert _trains(sim) == 1
    assert sim._deferred_deliveries == 19
    assert sim.pending == 20

    pipe.reconfigure(2e6, 0.01)
    # Flush: every follower is a real queue event again, nothing lost.
    assert sim._deferred_deliveries == 0
    assert sim.pending == 20

    sim.run()
    assert [tag for _, tag in got] == list(range(20))
    assert sim.pending == 0 and sim._deferred_deliveries == 0

    # The machinery re-arms: a post-reconfigure burst coalesces again,
    # at the new rate.
    before = _trains(sim)
    _burst(pipe, 10, deliver=lambda p: got.append((sim.now, p.payload)))
    assert sim._deferred_deliveries == 9
    sim.run()
    assert _trains(sim) == before + 1
    assert [tag for _, tag in got[20:]] == list(range(10))
    assert sim._deferred_deliveries == 0


def test_reconfigure_mid_run_train_twin_identical():
    """Reconfigure landing while a train is mid-flight *during* run():
    flushed deliveries and post-change waves stay byte-identical to the
    reference path, including the backlog the new bandwidth drains."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.02, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        _burst(pipe, 30, deliver=deliver)
        # 1.5 ms serialization each: the reconfigure lands after ~7
        # transmissions with the train still live.
        sim.schedule(0.011, pipe.reconfigure, 4e6, 0.005)
        sim.schedule(
            0.011,
            lambda: log.append(
                ("backlog", round(pipe._busy_until - sim.now, 9))
            ),
        )
        # A second wave rides the reconfigured pipe.
        sim.schedule(0.2, _burst, pipe, 10, 1500, deliver)
        sim.run()

    (fast_log, fast_sim), (slow_log, slow_sim) = _run_twins(scenario)
    assert fast_log == slow_log
    assert fast_sim.events_processed == slow_sim.events_processed
    assert fast_sim.now == slow_sim.now
    marker = next(e for e in fast_log if e[0] == "backlog")
    assert marker[1] > 0  # the reconfigure really caught a backlog
    assert _coalesced(fast_sim) > 0


def test_pending_counts_coalesced_deliveries():
    sim = Simulator(seed=1, config=SimConfig(fast=True))
    slow = Simulator(seed=1, config=SimConfig(fast=False))
    for s in (sim, slow):
        pipe = DummynetPipe(s, bandwidth=1e6, delay=0.05, name="p")
        _burst(pipe, 25, deliver=lambda p: None)
    assert sim.pending == slow.pending == 25
    sim.run()
    slow.run()
    assert sim.pending == slow.pending == 0


def test_queue_depth_gauge_matches_reference():
    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e6, delay=0.0, name="p")
        _burst(pipe, 20, deliver=lambda p: None)
        sim.run(max_events=5)
        log.append(sim.metrics.gauge("sim.kernel.queue_depth").value)
        sim.run()
        log.append(sim.metrics.gauge("sim.kernel.queue_depth").value)

    (fast_log, _), (slow_log, _) = _run_twins(scenario)
    assert fast_log == slow_log == [15, 0]


def test_wave_bursts_reuse_the_train_machinery():
    """Trains drain fully between waves and form again (the live flag
    resets); delivery order stays exact across waves."""

    def scenario(sim, log):
        pipe = DummynetPipe(sim, bandwidth=1e7, delay=0.002, name="p")

        def deliver(pkt):
            log.append((sim.now, pkt.payload))

        def wave(base):
            for i in range(15):
                pipe.transmit(_packet(tag=base + i), deliver)

        for w in range(4):
            sim.schedule(w * 1.0, wave, w * 100)
        sim.run()

    (fast_log, fast_sim), (slow_log, _) = _run_twins(scenario)
    assert fast_log == slow_log
    assert _trains(fast_sim) == 4
    assert _coalesced(fast_sim) == 4 * 14
