"""The invariant monitor's monotonicity samples.

``check_now`` compares each watched node's rows (an IQS node's
``lastWriteLC`` and granter epochs, an OQS node's holder epochs) against
per-node baseline rows in one C-level subset test, and walks entries
only for a row that changed.  These tests lower state directly between
two samples — the shape of a real regression bug — and pin what the
fast path must still report, in order, and what it must not.
"""

import pytest

from repro.chaos.invariants import InvariantMonitor
from repro.core import DqvlConfig, build_dqvl_cluster
from repro.core.leases import OqsLeaseView, VolumeLeaseGrant
from repro.sim import ConstantDelay, Network, Simulator
from repro.types import ZERO_LC


@pytest.fixture
def world():
    """Three IQS and two OQS servers after one write and one read miss
    of ``x`` through ``oqs0``, with a granter epoch of 1 on iqs1 and a
    holder epoch of 3 from iqs2, sampled once."""
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    cluster = build_dqvl_cluster(
        sim, net, ["iqs0", "iqs1", "iqs2"], ["oqs0", "oqs1"],
        DqvlConfig(lease_length_ms=1_000.0),
    )
    client = cluster.client("c0", prefer_oqs="oqs0")

    def warm_up():
        yield from client.write("x", "v1")
        yield from client.read("x")  # miss: iqs1 and iqs2 grant vol0

    sim.run_process(warm_up())
    iqs0, iqs1, _ = cluster.iqs_nodes
    oqs0 = cluster.oqs_node("oqs0")
    iqs1.gc_volume("vol0", "oqs0")
    _grant(oqs0.view, "iqs2", epoch=3, now=sim.now)
    monitor = InvariantMonitor(sim)
    monitor.attach(net, cluster.iqs_nodes + cluster.oqs_nodes)
    monitor.check_now()
    assert monitor.violations == []
    return monitor, iqs0, iqs1, oqs0


def _grant(view, iqs, epoch, now):
    view.apply_grant(iqs, VolumeLeaseGrant(
        volume="vol0", length_ms=1_000.0, epoch=epoch, delayed=(),
        requestor_time=now,
    ))


def _holder_row(view):
    # Writes behind the raw accessor, which protocol code only reads:
    # that is the bug being simulated.
    return view.volume_row("vol0")


def _lower_holder_epoch(view, iqs, epoch):
    row = _holder_row(view)
    row[iqs] = (row[iqs][0], epoch)


def _recorded(monitor):
    return [(v.node, v.invariant, v.detail) for v in monitor.violations]


def test_an_unchanged_world_records_nothing(world):
    monitor, *_ = world
    for _ in range(3):
        monitor.check_now()
    assert monitor.violations == []


def test_each_lowered_row_entry_is_reported_in_node_order(world):
    monitor, iqs0, iqs1, oqs0 = world
    iqs0._last_write_lc["x"] = ZERO_LC
    iqs1.leases.row("vol0")["oqs0"].epoch = 0
    _lower_holder_epoch(oqs0.view, "iqs2", 2)
    monitor.check_now()
    assert _recorded(monitor) == [
        ("iqs0", "lc_monotonic", "lastWriteLC['x'] regressed: 1@c0 -> 0@-"),
        ("iqs1", "epoch_monotonic",
         "granter epoch for ('vol0', 'oqs0') regressed: 1 -> 0"),
        ("oqs0", "epoch_monotonic",
         "holder epoch for ('vol0', 'iqs2') regressed: 3 -> 2"),
    ]
    # the lowered values are the new baselines: nothing more to report
    monitor.check_now()
    assert len(monitor.violations) == 3


def test_a_key_dropped_and_readded_lower_is_still_flagged(world):
    monitor, iqs0, _, oqs0 = world
    del iqs0._last_write_lc["x"]
    del _holder_row(oqs0.view)["iqs2"]
    monitor.check_now()
    assert monitor.violations == []  # leaving a row is not a regression
    iqs0._last_write_lc["x"] = ZERO_LC
    _grant(oqs0.view, "iqs2", epoch=1, now=0.0)
    monitor.check_now()
    assert _recorded(monitor) == [
        ("iqs0", "lc_monotonic", "lastWriteLC['x'] regressed: 1@c0 -> 0@-"),
        ("oqs0", "epoch_monotonic",
         "holder epoch for ('vol0', 'iqs2') regressed: 3 -> 1"),
    ]


def test_a_replaced_view_resets_the_holder_baselines(world):
    """Volatile recovery replaces the view, possibly more than once
    between two samples; the monitor must tell the views apart by
    identity, not by an address a freed view can hand to a successor.
    The view installed here is, of 1,000 fresh ones, one at the sampled
    view's address if the allocator hands that address out again (it
    may once that view is freed, as under a monitor that keeps only
    ``id(view)``), else the last."""
    monitor, _, _, oqs0 = world
    sampled = id(oqs0.view)
    oqs0.view = OqsLeaseView()
    fresh = [OqsLeaseView() for _ in range(1_000)]
    oqs0.view = next((v for v in fresh if id(v) == sampled), fresh[-1])
    _grant(oqs0.view, "iqs2", epoch=1, now=0.0)
    monitor.check_now()
    assert monitor.violations == []  # 3 -> 1 across views is legal
    _lower_holder_epoch(oqs0.view, "iqs2", 0)
    monitor.check_now()
    assert _recorded(monitor) == [
        ("oqs0", "epoch_monotonic",
         "holder epoch for ('vol0', 'iqs2') regressed: 1 -> 0"),
    ]
