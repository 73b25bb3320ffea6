"""Million-vnode topology path: laziness must be observationally
invisible and the streaming build must stay flat in memory.

The contract under test (see ``repro.topology.compiler``): the lazy
build — streaming placement, block address registration, flyweight
shaping profiles, pipes deferred to first matching packet — produces
byte-identical emulation output to the eager reference path selected
by ``REPRO_SLOW_PATH=1``, while an idle vnode never materialises any
Dummynet state.
"""

import json
import pathlib
import subprocess
import sys
import tracemalloc

import pytest

import repro
from repro.errors import FirewallError
from repro.net.ping import ping
from repro.sim import SimConfig
from repro.topology import TopologySpec, compile_topology
from repro.topology.presets import uniform_swarm
from repro.units import kbps, ms
from repro.virt import Testbed

SRC_DIR = str(pathlib.Path(repro.__file__).resolve().parent.parent)


# ----------------------------------------------------------------------
# Subprocess A/B: lazy vs eager reference, across hash seeds
# ----------------------------------------------------------------------
#: Runs a reduced-scale fig10 swarm (the full stack: topology compile,
#: BitTorrent swarm, completion curve) and prints the result document.
#: Any divergence between the lazy and the REPRO_SLOW_PATH=1 eager
#: reference shows up as a byte diff.
FIG10_AB_SCRIPT = """
import json
from repro.experiments.fig10_scalability import run_fig10

result = run_fig10(scale=0.004, stagger=0.25, seed=7)
doc = {
    "clients": result.clients,
    "pnodes": result.pnodes,
    "completion": result.completion,
    "selected": result.selected_progress,
    "first": result.first_completion,
    "last": result.last_completion,
    "median": result.median_completion,
}
print(json.dumps(doc, sort_keys=True))
"""


def _run_fig10_child(slow_path: str, hash_seed: str) -> str:
    result = subprocess.run(
        [sys.executable, "-c", FIG10_AB_SCRIPT],
        capture_output=True,
        text=True,
        timeout=600,
        env={
            "REPRO_SLOW_PATH": slow_path,
            "PYTHONHASHSEED": hash_seed,
            "PATH": "/usr/bin:/bin",
            "PYTHONPATH": SRC_DIR,
        },
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_fig10_lazy_eager_byte_identical_across_hash_seeds():
    """Acceptance proof: the fig10 document is byte-identical between
    the lazy topology path and the eager REPRO_SLOW_PATH reference,
    under two different hash seeds."""
    lazy_a = _run_fig10_child(slow_path="0", hash_seed="1")
    eager_a = _run_fig10_child(slow_path="1", hash_seed="1")
    assert lazy_a == eager_a
    lazy_b = _run_fig10_child(slow_path="0", hash_seed="31337")
    assert lazy_b == lazy_a
    eager_b = _run_fig10_child(slow_path="1", hash_seed="31337")
    assert eager_b == lazy_a
    doc = json.loads(lazy_a)
    assert doc["completion"] and doc["clients"] >= 10


# ----------------------------------------------------------------------
# Flyweight/lazy shaping state
# ----------------------------------------------------------------------
def test_idle_vnode_never_materializes_pipes():
    """Traffic between two vnodes must not build Dummynet state for
    the other vnodes on the same physical nodes."""
    testbed = Testbed(num_pnodes=2, sim_config=SimConfig(fast=True))
    spec = uniform_swarm(4, prefix="10.0.0.0/24")
    comp = compile_topology(spec, testbed)
    v1, v2, v3, v4 = comp.vnodes("peers")

    stats = comp.stats()
    assert stats["pipes"] == 8
    assert stats["pipes_materialized"] == 0
    assert stats["lazy_pipes_pending"] == 8

    p = ping(
        testbed.sim, v1.pnode.stack, v1.address, v2.address,
        count=2, interval=0.5, timeout=5.0,
    )
    testbed.run()
    assert p.result.received == 2

    # The echo round-trip touches exactly v1 and v2, both directions.
    stats = comp.stats()
    assert stats["pipes_materialized"] == 4
    assert stats["lazy_pipes_pending"] == 4
    for vnode in (v1, v2):
        assert vnode.pnode.stack.fw.pipe(2 * vnode.address.value) is not None
        assert vnode.pnode.stack.fw.pipe(2 * vnode.address.value + 1) is not None
    for idle in (v3, v4):
        fw = idle.pnode.stack.fw
        with pytest.raises(FirewallError):
            fw.pipe(2 * idle.address.value)
        with pytest.raises(FirewallError):
            fw.pipe(2 * idle.address.value + 1)


def test_lazy_and_eager_install_identical_rule_tables():
    """The deterministic firewall footprint (rule numbers, pipe ids as
    configured, order) must not depend on the laziness mode."""
    spec = TopologySpec()
    spec.add_group("a", "10.1.0.0/24", 5, up_bw=kbps(128), latency=ms(10))
    spec.add_group("b", "10.2.0.0/24", 3, down_bw=kbps(512))
    spec.add_latency("a", "b", ms(100))

    def table(fast):
        testbed = Testbed(num_pnodes=2, sim_config=SimConfig(fast=fast))
        compile_topology(spec, testbed)
        return [
            [
                (r.number, r.action, str(r.src), str(r.dst), r.direction)
                for r in pnode.stack.fw
            ]
            for pnode in testbed.pnodes
        ]

    assert table(fast=True) == table(fast=False)


def test_access_pipes_materialize_on_demand():
    """The control-plane hook works before any packet has flowed."""
    testbed = Testbed(num_pnodes=1, sim_config=SimConfig(fast=True))
    spec = uniform_swarm(2, prefix="10.0.0.0/24")
    comp = compile_topology(spec, testbed)
    v1, _ = comp.vnodes("peers")
    up, down = comp.access_pipes(v1)
    assert up is not None and down is not None
    stats = comp.stats()
    assert stats["pipes_materialized"] == 2
    # Idempotent: a second call returns the same objects.
    assert comp.access_pipes(v1) == (up, down)


# ----------------------------------------------------------------------
# Streaming memory behaviour
# ----------------------------------------------------------------------
def test_100k_spec_streams_without_materializing_lists():
    """Iterating a 100 000-address spec allocates O(1) live memory —
    the generator never builds the address list."""
    spec = TopologySpec()
    spec.add_group("peers", "10.0.0.0/8", 100_000)
    spec.add_latency("peers", "172.16.0.0/12", ms(50))
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        count = sum(1 for _ in spec.iter_placements())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert count == 100_000
    # A materialised list alone would be ~800 kB plus 56 B per address.
    assert peak - before < 256 * 1024


def test_lazy_100k_deploy_stays_under_per_vnode_memory_budget():
    """A lazy 100k-vnode deploy retains a bounded live heap per vnode
    (the flyweight/slots/block-registration diet; the ratio gate runs
    in benchmarks/bench_topo.py)."""
    spec = TopologySpec()
    spec.add_group(
        "peers", "10.0.0.0/8", 100_000,
        down_bw=kbps(1024), up_bw=kbps(512), latency=ms(20),
    )
    testbed = Testbed(
        num_pnodes=128, observe=False, sim_config=SimConfig(fast=True)
    )
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        comp = compile_topology(spec, testbed)
        after = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert comp.stats()["vnodes"] == 100_000
    per_vnode = (after - before) / 100_000
    assert per_vnode < 1200, f"lazy deploy retains {per_vnode:.0f} B/vnode"
