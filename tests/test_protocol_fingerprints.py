"""Fingerprints of each protocol's wire behaviour.

One controlled run per protocol — ``run_schedule`` under the canonical
schedule — is reduced to two classes of fingerprint:

* **wire**: two sha256 digests, of the run's canonical trace text
  (every operation, clock and stat) without the decision list, and of
  the per-kind count of messages the network accepted;
* **work**: the number of decisions the controlled loop made — one per
  pick among several runnable same-instant events (events that do
  nothing included) and one per deferrable delivery.

Three fixed-seed response-time runs at half locality pin
``Deployment.set_preferred_edge`` the same way, through a digest of
their histories.  Three more runners are pinned whole: two crash-storm
chaos runs with the resilience layer on (detectors, hedges, degraded
reads and catch-up) and two under the network nemeses (partitions, gray
links, loss and duplication windows), one measured-availability history
and one edge-CDN result (MMPP arrivals under a diurnal swing and a flash
crowd, behind throttled front ends).  Two histories are pinned op by op
on every field: one crash-storm run's (application clients through
front ends: degraded reads with their staleness, failed reads and
writes) and the edge-CDN run's (issuer pools: arrival-time starts,
shed and rejected operations).

A refactor of the clients, the clusters or the deployments leaves every
fingerprint alone.  A change to what goes over the wire — a new message
kind, one more round, a different quorum pick, one more RNG draw —
changes a wire digest; a change to how much kernel work carries the same
wire changes a work count.  Re-record either here, in the same change,
and say why.
"""

import functools
import hashlib
import json

import pytest

from repro.chaos import campaign
from repro.chaos.campaign import ChaosRunConfig, run_chaos
from repro.edge.cdn import CdnScenarioConfig, run_cdn
from repro.harness import ExperimentConfig, run_response_time
from repro.harness.availability import AvailabilitySimConfig, run_availability_sim
from repro.mc import McRunConfig, run_schedule
from repro.mc import runner as mc_runner

#: protocol -> (sha256 of the wire trace, sha256 of the sorted by_kind
#: counts).  The wire trace is ``trace_text`` without the controlled
#: loop's decision list and its ``stats.decisions`` count: what went over
#: the wire and what the clients saw, not how many same-instant choices
#: the kernel offered on the way.
WIRE = {
    # Re-recorded when Basic DQ became DQVL under basic_dq_config: the
    # preset renews with vlobj_renew / obj_renew (volume grant plus
    # object callback) where the old lease-free nodes sent obj_renew
    # alone, and its validations draw the favoured quorum.
    "basic_dq": (
        "37002c12c0fb089c8c738c31adae393ccd073502598edf06d2cfb3c13767404e",
        "1a71d2918b5f1f3d790d1bf86b2c5f6e42f3b3f799b755cd95b74f4b73b9f87d",
    ),
    "dqvl": (
        "7370e32b46b7fe7bfb7d0cda6ff8fea933ec150b08fe7a336a7561f900bfbaf9",
        "43092a3a842c93b753710c567a1220b3097faddc65a5ca7dadbf4f942f6eb975",
    ),
    "majority": (
        "c26f6a755834bb87cccea8d0d1e5545ea025972af9408a6f2821544f52d2e164",
        "0e81dfab67292c59736cf9472e9cd9ce6c8bbdf6f95d2d904cdacf29c3d4a65f",
    ),
    "primary_backup": (
        "6d686027453b7af32b6dfbfb378acf78c07d900d98d4bec9b765fc9baf1f356e",
        "d4551ddc579b36cbe02e76a4161b299828ec631bf760dbddf3bf0ebf2ed35481",
    ),
    "rowa": (
        "481f6a549346dc463f25dfcc2fb6516adda623b9a494c0812ec65470e8e9aef9",
        "09269517c3d6e538a0262ca60a47356e041dd3eb1341c961f9cb3b2af43e8119",
    ),
    "rowa_async": (
        "70329424ba758a5d81cc72d88540d2ff3a71fa8b40606d40541f89f7ca146599",
        "600197d253939e37bc088d64c7be201438ce8a96c1a08ce358817759667d4b2b",
    ),
}

#: protocol -> decisions the canonical controlled run offers: kernel
#: work, which may move with a stated reason while the wire stays put.
#: Re-recorded when each QRPC round came to own one deadline: the round
#: no longer leaves a dead retransmission sleep (and dead per-call
#: timeouts) sharing instants with live events — dqvl 378 -> 288,
#: majority 192 -> 161, rowa 67 -> 53, basic_dq 144 -> 129.  The
#: single-replica clients never ran QRPC.
WORK = {
    "basic_dq": 129,
    "dqvl": 288,
    "majority": 161,
    "primary_backup": 29,
    "rowa": 53,
    "rowa_async": 58,
}

#: protocol -> sha256 of a half-locality direct-mode history
PREFERRED_EDGE = {
    "dqvl": "bfbe49c1da2d31a8d2275aef81acbea874e1bf0391daab6cf604810075fa03de",
    "majority": "0a006b964255faaacfa30af93484bfd8bf6fa320a4b140e1ed23d07e89939066",
    "rowa_async": "2585893589c892f15f4a8e6f3513f87c8fa9e912813c6cf8f11404e285e2a81e",
}

#: seed -> sha256 of a resilience crash-storm chaos run's canonical JSON
#: (schedule, violations and stats; the config is the input)
RESILIENT_CHAOS = {
    0: "66fae97e424f8537cc359574cc72d5f73e37d57bc681d724c9da626b05c9fc59",
    24: "8c460be31f5a9d5f0a2c42affdf6cf373db03befb6528f4af5be3f51c552cccf",
}

#: (protocol, seed) -> sha256 of a chaos run's canonical JSON under the
#: five network nemeses.  Both schedules open all four network fault
#: kinds and close one of two overlapping windows on the same link first.
NETWORK_CHAOS = {
    ("dqvl", 32): "069f3bbfffea8e8cfd697a6a55d4160b4088fc614cf285d0ccb3dc3aa5467d28",
    ("majority", 7): "ba141b3cca18368516f0adee05284db54658d73ed05d7796f8571fac5414b9c6",
}

#: sha256 of one DQVL measured-availability history.  Re-recorded when
#: the runner's failed writes came to keep their attempted value (it used
#: to drop it, and the checker read false violations into its histories):
#: the 26 failed writes' ``value`` moved from None, no other field did.
AVAILABILITY = "90c188d0edb76265380931eb387a9275ab920cd43fe67069b2f2184bd666539a"

#: sha256 of one edge-CDN result's canonical JSON without its config.
#: Re-recorded when ``fe_counters`` lost ``writes_throttled``, a second
#: copy of ``writes_shed`` (58 and 58 here); no other field moved.
CDN = "53417b833b6e0092aa247b2c47a4433373355dcad03e6aa399111ef693d9e44b"

#: sha256 of every field of every op of the seed-4 resilience crash-storm
#: run's history: 120 ops, 7 degraded reads, 3 failed reads, 4 failed writes
STORM_HISTORY = "0ee413befd25be72a7664e85e6a900b7329a8cb91acffb8910eb3c9cf561f2ca"

#: the same over the edge-CDN run's history: 981 ops, 499 failed
CDN_HISTORY = "8c02c624cd84de1f3243c790090b5a0ae2b7341fd2ac10bd10a56c8e8e816bf1"


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=repr)


def _history_digest(ops) -> str:
    return _sha256(json.dumps([
        [op.kind, op.key, op.value, str(op.lc), op.start, op.end,
         op.client, op.ok, op.hit, op.server]
        for op in ops
    ]))


def _full_history_digest(ops) -> str:
    """Digest of every field of every op, degraded-read staleness included."""
    return _sha256(json.dumps([
        [op.kind, op.key, op.value, str(op.lc), op.start, op.end,
         op.client, op.ok, op.hit, op.server, op.degraded, op.staleness_ms,
         op.staleness_bound_ms]
        for op in ops
    ], default=repr))


def fingerprints(protocol: str):
    """((wire trace digest, per-kind message-count digest), decision
    count) of the canonical controlled run of *protocol*."""
    topologies = []
    build = mc_runner._build_deployment

    def recording_build(config, sim):
        topology, deployment = build(config, sim)
        topologies.append(topology)
        return topology, deployment

    mc_runner._build_deployment = recording_build
    try:
        result = run_schedule(McRunConfig(protocol=protocol))
    finally:
        mc_runner._build_deployment = build
    assert result.ok and result.stats["ops_failed"] == 0
    trace = json.loads(result.trace_text)
    decisions = len(trace.pop("decisions"))
    assert trace["stats"].pop("decisions") == decisions
    wire = json.dumps(trace, sort_keys=True, separators=(",", ":"))
    by_kind = sorted(topologies[0].network.stats.by_kind.items())
    return (_sha256(wire), _sha256(json.dumps(by_kind))), decisions


def preferred_edge_digest(protocol: str) -> str:
    """Digest of a direct-mode run whose clients are redirected to a
    random distant edge half the time (``set_preferred_edge`` per op)."""
    result = run_response_time(ExperimentConfig(
        protocol=protocol, write_ratio=0.2, locality=0.5, num_edges=5,
        num_clients=3, ops_per_client=30, warmup_ops=5, seed=11,
    ))
    return _history_digest(result.full_history())


def resilient_storm_config(seed: int) -> ChaosRunConfig:
    """A front-end crash-storm run with the resilience layer on."""
    return ChaosRunConfig(
        protocol="dqvl", seed=seed, nemeses=("crash_storm",),
        horizon_ms=20_000.0, client_max_attempts=2, mode="frontend",
        resilience=True,
    )


def resilient_chaos_digest(seed: int) -> str:
    """Digest of a front-end crash-storm run with the resilience layer on."""
    result = run_chaos(resilient_storm_config(seed))
    obj = result.to_json_obj()
    del obj["config"]
    return _sha256(_canonical(obj))


def network_chaos_digest(protocol: str, seed: int) -> str:
    """Digest of a chaos run under partitions, gray links, loss and
    duplication windows."""
    result = run_chaos(ChaosRunConfig(
        protocol=protocol, seed=seed, nemeses=(
            "duplication_burst", "gray_links", "loss_burst",
            "overlapping_partitions", "rolling_partition"),
    ))
    obj = result.to_json_obj()
    del obj["config"]
    return _sha256(_canonical(obj))


def availability_digest() -> str:
    result = run_availability_sim(AvailabilitySimConfig(
        protocol="dqvl", epochs=40, p=0.15, seed=3,
    ))
    return _history_digest(result.history)


def storm_history_digest(monkeypatch) -> str:
    """Full-field digest of the seed-4 resilient crash-storm history,
    captured from the campaign's own :class:`History`."""
    histories = []

    def recording_history():
        histories.append(history_class())
        return histories[-1]

    history_class = campaign.History
    monkeypatch.setattr(campaign, "History", recording_history)
    run_chaos(resilient_storm_config(4))
    (history,) = histories
    return _full_history_digest(history.ops)


@functools.lru_cache(maxsize=None)
def cdn_result():
    return run_cdn(CdnScenarioConfig(
        protocol="dqvl", seed=5, users=2_000, ops_per_user_per_s=0.02,
        arrivals="mmpp", diurnal_amplitude=0.5, diurnal_period_ms=2_000.0,
        flash_start_ms=500.0, num_objects=500, num_volumes=16, fe_max_inflight=6,
        horizon_ms=3_000.0,
    ))


def cdn_digest() -> str:
    obj = cdn_result().to_json_obj()
    del obj["config"]
    return _sha256(_canonical(obj))


@pytest.mark.parametrize("protocol", sorted(WIRE))
def test_controlled_run_wire_fingerprint(protocol):
    assert fingerprints(protocol) == (WIRE[protocol], WORK[protocol])


@pytest.mark.parametrize("protocol", sorted(PREFERRED_EDGE))
def test_preferred_edge_fingerprint(protocol):
    assert preferred_edge_digest(protocol) == PREFERRED_EDGE[protocol]


@pytest.mark.parametrize("seed", sorted(RESILIENT_CHAOS))
def test_resilient_chaos_fingerprint(seed):
    assert resilient_chaos_digest(seed) == RESILIENT_CHAOS[seed]


@pytest.mark.parametrize("protocol,seed", sorted(NETWORK_CHAOS))
def test_network_chaos_fingerprint(protocol, seed):
    assert network_chaos_digest(protocol, seed) == NETWORK_CHAOS[protocol, seed]


def test_availability_history_fingerprint():
    assert availability_digest() == AVAILABILITY


def test_cdn_result_fingerprint():
    assert cdn_digest() == CDN


def test_storm_history_fingerprint(monkeypatch):
    assert storm_history_digest(monkeypatch) == STORM_HISTORY


def test_cdn_history_fingerprint():
    assert _full_history_digest(cdn_result().history.ops) == CDN_HISTORY
