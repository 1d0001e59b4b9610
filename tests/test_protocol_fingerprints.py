"""Fingerprints of each protocol's wire behaviour.

One controlled run per protocol — ``run_schedule`` under the canonical
schedule — is reduced to two sha256 digests: the run's canonical trace
text (every decision, operation, clock and stat) and the per-kind count
of messages the network accepted.  Three fixed-seed response-time runs
at half locality pin ``Deployment.set_preferred_edge`` the same way,
through a digest of their histories.

A refactor of the clients, the clusters or the deployments leaves every
digest alone.  A change to what goes over the wire — a new message
kind, one more round, a different quorum pick, one more RNG draw —
changes a digest; re-record it here, in the same change, and say why.
"""

import hashlib
import json

import pytest

from repro.harness import ExperimentConfig, run_response_time
from repro.mc import McRunConfig, run_schedule
from repro.mc import runner as mc_runner

#: protocol -> (sha256 of trace_text, sha256 of the sorted by_kind counts)
WIRE = {
    # Re-recorded when Basic DQ became DQVL under basic_dq_config: the
    # preset renews with vlobj_renew / obj_renew (volume grant plus
    # object callback) where the old lease-free nodes sent obj_renew
    # alone, and its validations draw the favoured quorum.
    "basic_dq": (
        "3e56f3fb133a8ef71a0bcf8ac130b1334460f8df8fe42c766a0ca5536c510bcc",
        "1a71d2918b5f1f3d790d1bf86b2c5f6e42f3b3f799b755cd95b74f4b73b9f87d",
    ),
    "dqvl": (
        "f2602348d7946c27031d8c29719ae0063dbc000796e72fe88b09ef5604593933",
        "43092a3a842c93b753710c567a1220b3097faddc65a5ca7dadbf4f942f6eb975",
    ),
    "majority": (
        "24f6bfee53d222586bf47fdb5fbe46168f29c06c63123dfea72f13a525e48922",
        "0e81dfab67292c59736cf9472e9cd9ce6c8bbdf6f95d2d904cdacf29c3d4a65f",
    ),
    "primary_backup": (
        "37225bc55d2e8f76948e356bef3cd87547360052eb7b936bdd6f633f0b846144",
        "d4551ddc579b36cbe02e76a4161b299828ec631bf760dbddf3bf0ebf2ed35481",
    ),
    "rowa": (
        "1666bc72e6b42efdb2592c75f6ca04111a8fe4e536a90e742d0e5b89f415f1ca",
        "09269517c3d6e538a0262ca60a47356e041dd3eb1341c961f9cb3b2af43e8119",
    ),
    "rowa_async": (
        "a283d1aaa6cb66f91c035280b8579e3910dd01cc3d746131e37afb8a1606dfc6",
        "600197d253939e37bc088d64c7be201438ce8a96c1a08ce358817759667d4b2b",
    ),
}

#: protocol -> sha256 of a half-locality direct-mode history
PREFERRED_EDGE = {
    "dqvl": "bfbe49c1da2d31a8d2275aef81acbea874e1bf0391daab6cf604810075fa03de",
    "majority": "0a006b964255faaacfa30af93484bfd8bf6fa320a4b140e1ed23d07e89939066",
    "rowa_async": "2585893589c892f15f4a8e6f3513f87c8fa9e912813c6cf8f11404e285e2a81e",
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def wire_digests(protocol: str):
    """(trace digest, per-kind message-count digest) of the canonical
    controlled run of *protocol*."""
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
    by_kind = sorted(topologies[0].network.stats.by_kind.items())
    return _sha256(result.trace_text), _sha256(json.dumps(by_kind))


def preferred_edge_digest(protocol: str) -> str:
    """Digest of a direct-mode run whose clients are redirected to a
    random distant edge half the time (``set_preferred_edge`` per op)."""
    result = run_response_time(ExperimentConfig(
        protocol=protocol, write_ratio=0.2, locality=0.5, num_edges=5,
        num_clients=3, ops_per_client=30, warmup_ops=5, seed=11,
    ))
    ops = [
        [op.kind, op.key, op.value, str(op.lc), op.start, op.end,
         op.client, op.ok, op.hit, op.server]
        for op in result.full_history()
    ]
    return _sha256(json.dumps(ops))


@pytest.mark.parametrize("protocol", sorted(WIRE))
def test_controlled_run_wire_fingerprint(protocol):
    assert wire_digests(protocol) == WIRE[protocol]


@pytest.mark.parametrize("protocol", sorted(PREFERRED_EDGE))
def test_preferred_edge_fingerprint(protocol):
    assert preferred_edge_digest(protocol) == PREFERRED_EDGE[protocol]
