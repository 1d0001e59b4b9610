"""QRPC's one selection rule, seen from a DQVL OQS node.

Validations and keeper renewals favour the IQS servers whose volume
lease the node holds (``QuorumCall(favour=...)``).  Favouring is a bias
inside the ordinary rule, not a replacement for it: a favoured call
still escalates to broadcast, and with resilience on it still avoids
suspected replicas.
"""

from repro.core import DqvlConfig, build_dqvl_cluster
from repro.quorum import QuorumCall
from repro.resilience import NodeResilience
from repro.sim import ConstantDelay, Network, Simulator

IQS = ["iqs0", "iqs1", "iqs2"]
RENEWALS = ("obj_renew", "vlobj_renew", "vl_renew")


def make_world(**config):
    sim = Simulator(seed=0)
    net = Network(sim, ConstantDelay(10.0))
    cluster = build_dqvl_cluster(sim, net, IQS, ["oqs0"], DqvlConfig(
        qrpc_initial_timeout_ms=100.0, inval_initial_timeout_ms=100.0, **config
    ))
    sent = []
    net.add_tap(lambda m: sent.append((sim.now, m.kind, m.dst))
                if m.src == "oqs0" and m.kind in RENEWALS else None)
    return sim, cluster, cluster.oqs_node("oqs0"), sent


def held(sim, oqs):
    return [i for i in IQS if oqs.view.volume_valid("vol0", i, sim.now)]


def test_favoured_validation_escalates_past_a_crashed_granter():
    """Attempts 1–2 go to the favoured (held) quorum; attempt 3 is a
    broadcast, so the never-held server answers and Condition C holds
    long before the crashed granter's lease would lapse."""
    sim, cluster, oqs, sent = make_world(lease_length_ms=60_000.0)
    sim.run_process(oqs.ensure_validated("x"))
    granters = held(sim, oqs)
    assert len(granters) == 2
    (spare,) = set(IQS) - set(granters)
    cluster.iqs_node(granters[0]).crash()
    del sent[:]

    sim.run_process(oqs.ensure_validated("y"), until=sim.now + 5_000.0)
    assert oqs.is_local_valid("y")
    rounds = {}
    for at, _kind, dst in sent:
        rounds.setdefault(at, set()).add(dst)
    targets = [rounds[at] for at in sorted(rounds)]
    assert len(targets) == 3
    assert targets[0] <= set(granters) and targets[1] <= set(granters)
    assert spare in targets[2]


def test_resilient_oqs_node_avoids_a_suspected_granter(monkeypatch):
    """A held granter the detector suspects is left out of the targets
    of both the validation rounds and the keeper's renewal rounds.  (A
    round's hedge probe is no round target: it falls back to a suspect
    once no healthy IQS server is left untargeted.)"""
    sim, cluster, oqs, sent = make_world(
        lease_length_ms=2_000.0, proactive_renewal=True, renewal_margin_ms=1_000.0,
    )
    oqs.resilience = NodeResilience(sim, "oqs0")
    client = cluster.client("c0", prefer_oqs="oqs0")
    sim.run_process(client.read("x"))
    suspect = held(sim, oqs)[0]
    while suspect not in oqs.resilience.detector.suspects:
        oqs.resilience.detector.observe_timeout(suspect, 100.0)
    del sent[:]
    rounds = []
    sample_targets = QuorumCall._sample_targets

    def recording(call):
        targets = sample_targets(call)
        if call.node is oqs:
            rounds.append(targets)
        return targets

    monkeypatch.setattr(QuorumCall, "_sample_targets", recording)
    sim.run_process(client.read("y"))
    sim.run(until=sim.now + 3_000.0)
    kinds = {kind for _at, kind, _dst in sent}
    assert {"vlobj_renew", "vl_renew"} <= kinds  # validation and keeper rounds
    assert rounds and all(suspect not in targets for targets in rounds)
