"""QRPC round deadlines: one cancellable deadline per round, no timer per
request, and the same same-instant behaviour as a timer per request plus
a retransmission sleep per round.

The recorded sequences below were taken from that older design (a
``Node.call`` timeout per request and an ``any_of`` race against a
``sim.sleep`` per round) on the same scenarios; they pin that nothing on
the wire or in the failure detector moved when the timers went.
"""

from repro.harness import ExperimentConfig, run_response_time
from repro.quorum import READ, QrpcError, QuorumCall, QuorumSpec
from repro.quorum.qrpc import _Round
from repro.resilience import NodeResilience
from repro.sim import ConstantDelay, Network, Node, RpcTimeout, Simulator
from repro.sim.kernel import Timer


class EchoServer(Node):
    def on_q(self, msg):
        self.reply(msg, payload={"from": self.node_id})


class RecordingClient(Node):
    """A client that keeps the outcome of every request it issues:
    ``(issued at, dst, [reply or exception])``, the list empty until the
    request's callback runs."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.issued = []

    def request(self, dst, kind, payload, span, on_reply, timeout=None):
        outcome = []

        def record(result):
            outcome.append(result)
            on_reply(result)

        self.issued.append((self.sim.now, dst, outcome))
        return super().request(dst, kind, payload, span, record, timeout)


def make_world(seed=0, delay=10.0, client_cls=Node):
    sim = Simulator(seed=seed)
    net = Network(sim, ConstantDelay(delay))
    servers = [EchoServer(sim, net, f"n{i}") for i in range(5)]
    client = client_cls(sim, net, "client")
    return sim, net, servers, client, QuorumSpec.parse("majority").build([s.node_id for s in servers])


def test_reply_at_the_deadline_instant_is_dropped_as_a_timeout():
    """Replies land at t=20, the round's deadline: the deadline was
    scheduled first, so it runs first, fails the requests with
    RpcTimeout and the replies find nothing pending."""
    sim, net, servers, client, system = make_world(client_cls=RecordingClient)

    def proc():
        replies = yield from QuorumCall(client, system, READ, lambda target: ("q", {}),
                                        initial_timeout_ms=20.0).run()
        return sim.now, sorted(replies)

    when, replies = sim.run_process(proc())
    assert when == 40.0 and len(replies) == 3
    first_round = [outcome for at, _dst, outcome in client.issued if at == 0.0]
    assert len(first_round) == 3
    for [exception] in first_round:
        assert isinstance(exception, RpcTimeout)
        assert exception.timeout == 20.0
    assert sum(s.node_id in replies for s in servers) == 3
    assert net.stats.by_kind["q_reply"] == 6  # round 1's three were delivered
    assert client._pending_rpcs == {}


def test_resilience_sees_timeouts_in_sorted_target_order():
    """Two silent replicas (n1, n3) under broadcast rounds: a round that
    completes with them as stragglers still times them out at its
    deadline, and every deadline reports them in sorted-target order."""
    sim, net, servers, client, system = make_world(seed=4)
    servers[1].crash()
    servers[3].crash()
    res = NodeResilience(sim, "client")
    seen = []
    observe = res.detector.observe_timeout
    res.detector.observe_timeout = lambda target, interval: (
        seen.append((sim.now, target, interval)) or observe(target, interval))

    def proc():
        first = QuorumCall(client, system, READ, lambda t: ("q", {}),
                           broadcast_after=0, resilience=res)
        replies = yield from first.run()
        completed = (sim.now, sorted(replies))
        second = QuorumCall(client, system, READ, lambda t: ("q", {}),
                            done=lambda r: len(r) >= 4, broadcast_after=0,
                            max_attempts=3, resilience=res)
        try:
            yield from second.run()
        except QrpcError as exc:
            return completed, exc.attempts

    assert sim.run_process(proc()) == ((20.0, ["n0", "n2", "n4"]), 3)
    assert seen == [
        (400.0, "n1", 400.0),
        (400.0, "n3", 400.0),
        (420.0, "n1", 400.0),
        (420.0, "n3", 400.0),
        (1220.0, "n1", 800.0),
        (1220.0, "n3", 800.0),
        (2820.0, "n1", 1600.0),
        (2820.0, "n3", 1600.0),
    ]
    assert client._pending_rpcs == {}


def test_completed_round_still_expires_its_straggler():
    """n4 answers after the quorum formed but after the deadline too:
    the deadline survives completion, fails n4's request, and leaves
    nothing pending; n4's late reply is dropped."""
    sim, net, servers, client, system = make_world(client_cls=RecordingClient)
    net.add_fault([("n4", "client")], extra_delay_ms=500.0)

    def proc():
        replies = yield from QuorumCall(client, system, READ, lambda target: ("q", {}),
                                  initial_timeout_ms=100.0, broadcast_after=0).run()
        return sim.now, sorted(replies), len(client._pending_rpcs)

    # n4 is still pending when the call returns; the run drains past the
    # deadline (t=100) and n4's reply (t=520)
    assert sim.run_process(proc()) == (20.0, ["n0", "n1", "n2", "n3"], 1)
    assert sim.now == 520.0
    assert client._pending_rpcs == {}
    straggler = [outcome for _at, dst, outcome in client.issued if dst == "n4"]
    assert len(straggler) == 1
    [exception] = straggler[0]
    assert isinstance(exception, RpcTimeout)


def test_majority_run_fires_no_sleep_and_cancels_at_most_one_timer_per_round(
        monkeypatch):
    """The frames-per-message run: a round's deadline is its only timer,
    cancelled once its quorum has formed and every request is answered;
    no retransmission sleep is made to fire dead after the round."""
    sleeps, cancels, rounds = [], [], []
    sleep, cancel, start = Simulator.sleep, Timer.cancel, _Round.__init__

    def start_round(record, call, interval, in_round, *args):
        if in_round:  # a round, not a hedge probe
            rounds.append(record)
        start(record, call, interval, in_round, *args)

    monkeypatch.setattr(Simulator, "sleep",
                        lambda sim, delay: sleeps.append(sleep(sim, delay)) or sleeps[-1])
    monkeypatch.setattr(Timer, "cancel",
                        lambda timer: cancels.append(timer) or cancel(timer))
    monkeypatch.setattr(_Round, "__init__", start_round)
    result = run_response_time(ExperimentConfig(
        protocol="majority", write_ratio=0.2, locality=0.9, num_edges=9,
        num_clients=3, ops_per_client=200, seed=7,
    ))
    assert len(result.history) > 500
    assert not any(future.done for future in sleeps)
    assert rounds and len(cancels) <= len(rounds)
