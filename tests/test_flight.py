"""Flight recorder: hop accounting, decomposition and the NULL path."""

import pytest

from repro.net.ping import ping
from repro.obs.flight import (
    HOP_DELIVER,
    HOP_IPFW,
    HOP_NIC,
    HOP_PIPE,
    NULL_FLIGHT,
    FlightRecorder,
    NullFlightRecorder,
    STATUS_DELIVERED,
    STATUS_DROPPED,
)
from repro.sim import SimConfig, Simulator
from repro.topology.compiler import compile_topology
from repro.topology.spec import TopologySpec
from repro.virt.deployment import Testbed


def make_two_hop_testbed(plr: float = 0.0, flight: bool = True):
    """Two vnodes on two pnodes with dyadic-exact shaping parameters.

    All latencies/bandwidths are powers of two (or dyadic rationals) so
    every scheduler timestamp is exactly representable — the test can
    then assert bit-exact hop tiling, not approximate tiling.
    """
    testbed = Testbed(
        num_pnodes=2,
        seed=0,
        port_bandwidth=float(2**27),  # bytes/s, dyadic
        port_delay=2.0**-10,
        flight=flight,
    )
    spec = TopologySpec(name="twohop")
    spec.add_group(
        "peers",
        "10.9.0.0/24",
        2,
        down_bw=float(2**14),
        up_bw=float(2**14),
        latency=0.25,
        plr=plr,
    )
    compiler = compile_topology(spec, testbed)
    a, b = compiler.vnodes("peers")
    assert a.pnode is not b.pnode  # truly two physical hops
    return testbed, a, b


def run_ping(testbed, a, b, count=1):
    probe = ping(
        testbed.sim, a.pnode.stack, a.address, b.address,
        count=count, interval=1.0, timeout=30.0,
    )
    testbed.sim.run()
    return probe.result


class TestTwoHopAccounting:
    def test_echo_records_full_lifecycle(self):
        testbed, a, b = make_two_hop_testbed()
        result = run_ping(testbed, a, b)
        assert result.received == 1
        flights = testbed.sim.flight.flights(status=STATUS_DELIVERED)
        assert len(flights) == 2  # echo + reply
        echo = flights[0]
        kinds = [h.kind for h in echo.timed_hops()]
        assert kinds[0] == HOP_NIC
        assert kinds[-1] == HOP_DELIVER
        assert HOP_IPFW in kinds and HOP_PIPE in kinds
        # Outbound eval on the sender, inbound eval on the receiver.
        directions = [
            h.detail["direction"] for h in echo.hops if h.kind == HOP_IPFW
        ]
        assert directions == ["out", "in"]

    def test_decomposition_sums_exactly_to_latency(self):
        testbed, a, b = make_two_hop_testbed()
        run_ping(testbed, a, b, count=2)
        flights = testbed.sim.flight.flights(status=STATUS_DELIVERED)
        assert flights
        for flight in flights:
            # Bit-exact hop tiling of [t_send, t_end] ...
            assert flight.contiguous(), flight.as_dict()
            # ... and the per-hop decomposition telescopes exactly to
            # the end-to-end sim latency (no approx here on purpose).
            decomposition = flight.decomposition()
            assert sum(d for _, d in decomposition) == flight.latency

    def test_pipe_hops_decompose_wait_serialize_propagate(self):
        testbed, a, b = make_two_hop_testbed()
        run_ping(testbed, a, b)
        echo = testbed.sim.flight.flights(status=STATUS_DELIVERED)[0]
        pipe_hops = [h for h in echo.hops if h.kind == HOP_PIPE]
        # up pipe on sender's pnode, switch tx/rx, down pipe on receiver's.
        assert len(pipe_hops) >= 3
        access = [h for h in pipe_hops if h.detail["pipe"].startswith(("up/", "down/"))]
        assert len(access) == 2
        for hop in access:
            d = hop.detail
            assert d["propagate"] == 0.25
            assert d["serialize"] == pytest.approx(echo.size / 2**14)
            assert d["wait"] == 0.0  # nothing queued ahead of one ping

    def test_ipfw_hop_records_rules_and_lookup_mode(self):
        testbed, a, b = make_two_hop_testbed()
        run_ping(testbed, a, b)
        echo = testbed.sim.flight.flights(status=STATUS_DELIVERED)[0]
        fw_hops = [h for h in echo.hops if h.kind == HOP_IPFW]
        for hop in fw_hops:
            assert hop.detail["scanned"] >= 1
            assert hop.detail["matched"], "a pipe rule must have matched"
            assert hop.detail["lookup"] in ("linear", "indexed")

    def test_lossy_pipe_records_drop_reason(self):
        testbed, a, b = make_two_hop_testbed(plr=0.99)
        probe = ping(
            testbed.sim, a.pnode.stack, a.address, b.address,
            count=1, timeout=5.0,
        )
        testbed.sim.run()
        assert probe.result.received == 0
        dropped = testbed.sim.flight.flights(status=STATUS_DROPPED)
        assert dropped
        reason = dropped[0].hops[-1].detail["reason"]
        assert reason.startswith("loss:")


class TestDisabledModes:
    def test_flight_off_by_default(self):
        testbed, a, b = make_two_hop_testbed(flight=False)
        run_ping(testbed, a, b)
        assert testbed.sim.flight is NULL_FLIGHT
        assert len(testbed.sim.flight) == 0
        assert testbed.sim.flight.flights() == []

    def test_observe_false_forces_null_flight(self):
        sim = Simulator(seed=0, observe=False, config=SimConfig(flight=True))
        assert sim.flight is NULL_FLIGHT

    def test_null_recorder_is_inert_singleton(self):
        assert isinstance(NULL_FLIGHT, NullFlightRecorder)
        assert not NULL_FLIGHT.enabled
        NULL_FLIGHT.ack(1, "x", 0.0)
        NULL_FLIGHT.clear()
        assert NULL_FLIGHT.get(1) is None
        assert len(NULL_FLIGHT) == 0


class TestRecorderBookkeeping:
    def test_max_flights_overflow_counted(self):
        testbed, a, b = make_two_hop_testbed()
        testbed.sim.flight.max_flights = 1
        run_ping(testbed, a, b, count=2)
        assert len(testbed.sim.flight) == 1
        assert testbed.sim.flight.flights_overflowed >= 1

    def test_flow_label_assigned_and_queryable(self):
        testbed, a, b = make_two_hop_testbed()
        run_ping(testbed, a, b)
        rec = testbed.sim.flight
        echo = rec.flights()[0]
        assert echo.flow.startswith("icmp:")
        assert rec.by_flow(echo.flow) == [
            f for f in rec.flights() if f.flow == echo.flow
        ]

    def test_as_list_is_json_ready(self):
        import json

        testbed, a, b = make_two_hop_testbed()
        run_ping(testbed, a, b)
        doc = testbed.sim.flight.as_list()
        text = json.dumps(doc, sort_keys=True)
        assert '"status": "delivered"' in text

    def test_clear_resets(self):
        rec = FlightRecorder(max_flights=0)

        class FakePkt:
            id = 7
            flow = None
            src, dst = "1.2.3.4", "5.6.7.8"
            sport = dport = 0
            proto, kind, size = "udp", "data", 10

        rec.send(FakePkt(), "n", 0.0)
        assert rec.flights_overflowed == 1
        rec.clear()
        assert rec.flights_overflowed == 0 and len(rec) == 0
