"""Units for the resilience layer: failure detector, derived QRPC
timeouts, and the NodeResilience policy streams.

Everything here is deterministic by construction — the detector draws
no randomness, and the NodeResilience streams are string-seeded per
(simulation seed, node), so same-seed assertions are exact equalities,
not tolerances.
"""

import pytest

from repro.edge.topology import EdgeTopologyConfig
from repro.quorum import QuorumSpec
from repro.resilience import (
    FailureDetector,
    NodeResilience,
    ResilienceConfig,
    derive_qrpc_timeouts,
)
from repro.sim import Simulator


def make_detector(**overrides):
    clock = {"now": 0.0}
    config = ResilienceConfig(**overrides)
    det = FailureDetector(lambda: clock["now"], config)
    return det, clock


class TestFailureDetector:
    def test_first_reply_seeds_the_rtt_estimate(self):
        det, _ = make_detector()
        det.observe_reply("n1", 100.0)
        # First sample: srtt = rtt, rttvar = rtt/2 -> expected = rtt * 3.
        assert det.expected_rtt("n1") == pytest.approx(300.0)

    def test_ewma_converges_toward_the_observed_rtt(self):
        det, _ = make_detector()
        det.observe_reply("n1", 400.0)
        for _ in range(200):
            det.observe_reply("n1", 100.0)
        assert det.expected_rtt("n1") == pytest.approx(100.0, rel=0.05)

    def test_suspicion_accrues_on_timeouts_and_resets_on_reply(self):
        det, _ = make_detector(suspicion_threshold=2.0)
        assert not det.is_suspect("n1")
        det.observe_timeout("n1", 400.0)
        assert not det.is_suspect("n1")
        det.observe_timeout("n1", 400.0)
        assert det.is_suspect("n1")
        det.observe_reply("n1", 50.0)
        assert not det.is_suspect("n1")
        assert det.suspicion("n1") == 0.0

    def test_suspicions_counter_counts_transitions_not_timeouts(self):
        det, _ = make_detector(suspicion_threshold=2.0)
        for _ in range(5):
            det.observe_timeout("n1", 400.0)
        assert det.suspicions == 1  # one healthy -> suspect transition
        det.observe_reply("n1", 10.0)
        det.observe_timeout("n1", 400.0)
        det.observe_timeout("n1", 400.0)
        assert det.suspicions == 2

    def test_long_waits_are_stronger_evidence(self):
        det, _ = make_detector(suspicion_threshold=100.0)
        det.observe_reply("n1", 10.0)  # expected ~ 30ms
        det.observe_timeout("n1", 400.0)  # way past expectation
        heavy = det.suspicion("n1")
        det2, _ = make_detector(suspicion_threshold=100.0)
        det2.observe_reply("n1", 10.0)
        det2.observe_timeout("n1", 31.0)  # barely past expectation
        assert heavy > det2.suspicion("n1")
        assert heavy <= 4.0  # increment is clamped

    def test_quantile_needs_min_samples(self):
        det, _ = make_detector(min_rtt_samples=4)
        for rtt in (10.0, 20.0, 30.0):
            det.observe_reply("n1", rtt)
        assert det.rtt_quantile(0.95) is None
        det.observe_reply("n1", 40.0)
        assert det.rtt_quantile(0.95) == 40.0  # nearest rank of 4 samples

    def test_timeout_for_falls_back_cold_and_adapts_warm(self):
        det, _ = make_detector(
            min_rtt_samples=4, timeout_quantile=0.95, timeout_multiplier=2.0
        )
        assert det.timeout_for(400.0, 6_400.0) == 400.0
        for rtt in (100.0, 110.0, 120.0, 130.0):
            det.observe_reply("n1", rtt)
        warm = det.timeout_for(400.0, 6_400.0)
        assert warm == pytest.approx(260.0)  # q95 = 130, x2
        assert det.timeout_for(400.0, 200.0) == 200.0  # capped

    def test_hedge_delay_none_when_it_cannot_beat_the_round(self):
        det, _ = make_detector(min_rtt_samples=4, hedge_quantile=0.9)
        assert det.hedge_delay(400.0) is None  # no estimate yet
        for rtt in (100.0, 100.0, 100.0, 100.0):
            det.observe_reply("n1", rtt)
        assert det.hedge_delay(400.0) == pytest.approx(100.0)
        assert det.hedge_delay(90.0) is None  # would fire after the timer


class TestDerivedTimeouts:
    def test_default_topology_derivation(self):
        initial, cap = derive_qrpc_timeouts(EdgeTopologyConfig())
        # 2 * (86ms one-way + 5ms jitter + processing) * 2 safety.
        assert initial == pytest.approx(344.0)
        assert cap == pytest.approx(initial * 16.0)

    def test_scales_with_the_delay_distribution(self):
        lan = derive_qrpc_timeouts(
            EdgeTopologyConfig(server_wan_ms=1.0, client_wan_ms=1.0)
        )
        wan = derive_qrpc_timeouts(
            EdgeTopologyConfig(server_wan_ms=300.0)
        )
        assert lan[0] < derive_qrpc_timeouts(EdgeTopologyConfig())[0] < wan[0]
        assert lan[0] >= 1.0  # floor

    def test_cap_never_below_initial(self):
        initial, cap = derive_qrpc_timeouts(EdgeTopologyConfig(), rounds=0)
        assert cap == initial


class TestNodeResilience:
    def test_same_seed_same_streams(self):
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])

        def draws(seed):
            res = NodeResilience(Simulator(seed=seed), "c0")
            quorums = [res.sample_quorum(system, "READ") for _ in range(10)]
            intervals = [res.next_interval(100.0, 100.0, 6_400.0)
                         for _ in range(10)]
            return quorums, intervals

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)

    def test_streams_are_independent(self):
        """Burning the backoff stream must not shift quorum selection."""
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        a = NodeResilience(Simulator(seed=0), "c0")
        b = NodeResilience(Simulator(seed=0), "c0")
        for _ in range(50):
            b.next_interval(100.0, 100.0, 6_400.0)
        quorums_a = [a.sample_quorum(system, "READ") for _ in range(10)]
        quorums_b = [b.sample_quorum(system, "READ") for _ in range(10)]
        assert quorums_a == quorums_b

    def test_resilience_draws_nothing_from_sim_rng(self):
        sim = Simulator(seed=0)
        state = sim.rng.getstate()
        res = NodeResilience(sim, "c0")
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        res.sample_quorum(system, "READ")
        res.next_interval(100.0, 100.0, 6_400.0)
        res.pick_hedge(system, frozenset(["n0"]), {})
        assert sim.rng.getstate() == state

    def test_suspected_members_are_swapped_out(self):
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        res = NodeResilience(Simulator(seed=0), "c0")
        for _ in range(3):
            res.detector.observe_timeout("n0", 400.0)
            res.detector.observe_timeout("n1", 400.0)
        for _ in range(20):
            quorum = res.sample_quorum(system, "READ", prefer="n0")
            # Three healthy nodes remain; a 3-of-5 majority never needs
            # a suspect, and the suspected prefer loses its privilege.
            assert "n0" not in quorum and "n1" not in quorum

    def test_swap_keeps_suspects_when_unavoidable(self):
        system = QuorumSpec.parse("majority").build(["n0", "n1", "n2"])
        res = NodeResilience(Simulator(seed=0), "c0")
        for _ in range(3):
            res.detector.observe_timeout("n0", 400.0)
            res.detector.observe_timeout("n1", 400.0)
        quorum = res.sample_quorum(system, "READ")
        assert system.is_read_quorum(set(quorum))  # still a real quorum

    def test_pick_hedge_prefers_healthy_untargeted(self):
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        res = NodeResilience(Simulator(seed=0), "c0")
        for _ in range(3):
            res.detector.observe_timeout("n3", 400.0)
        for _ in range(20):
            pick = res.pick_hedge(system, frozenset(["n0", "n1"]), {"n2": object()})
            assert pick == "n4"  # the only healthy untargeted non-responder
        assert res.pick_hedge(
            system, frozenset(["n0", "n1", "n2", "n3", "n4"]), {}
        ) is None

    def test_round_timeout_counts_adaptive_rounds(self):
        res = NodeResilience(Simulator(seed=0), "c0")
        res.round_timeout(400.0, 6_400.0)
        assert res.adaptive_rounds == 0  # cold: fallback used
        for rtt in (50.0, 50.0, 50.0, 50.0):
            res.detector.observe_reply("n1", rtt)
        assert res.round_timeout(400.0, 6_400.0) == pytest.approx(100.0)
        assert res.adaptive_rounds == 1

    def test_unjittered_backoff_is_plain_exponential(self):
        res = NodeResilience(
            Simulator(seed=0), "c0", ResilienceConfig(jittered_backoff=False)
        )
        assert res.next_interval(100.0, 100.0, 6_400.0) == 200.0
        assert res.next_interval(6_000.0, 100.0, 6_400.0) == 6_400.0

    def test_jittered_backoff_stays_in_the_decorrelated_envelope(self):
        res = NodeResilience(Simulator(seed=0), "c0")
        prev = 100.0
        for _ in range(100):
            nxt = res.next_interval(prev, 100.0, 6_400.0)
            assert 100.0 <= nxt <= min(6_400.0, max(100.0, prev * 3.0))
            prev = nxt
