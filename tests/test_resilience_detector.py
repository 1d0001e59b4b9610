"""Units for the resilience layer: failure detector, the QRPC timeout
schedule derived from a topology, and the NodeResilience policy streams.

Everything here is deterministic by construction — the detector draws
no randomness, and the NodeResilience streams are string-seeded per
(simulation seed, node), so same-seed assertions are exact equalities,
not tolerances.
"""

from collections import deque

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.edge.deployments import _qrpc_schedule
from repro.edge.topology import EdgeTopology, EdgeTopologyConfig
from repro.quorum import QuorumSpec
from repro.resilience import FailureDetector, NodeResilience
from repro.resilience.detector import (
    MIN_RTT_SAMPLES,
    RTT_WINDOW,
    SUSPICION_THRESHOLD,
)
from repro.sim import Simulator


def derived_timeouts(topology_config, **overrides):
    """(first timeout, cap) of the QRPC schedule derived for a topology."""
    topology = EdgeTopology(Simulator(seed=0), topology_config)
    schedule = _qrpc_schedule(topology, **overrides)
    return schedule["initial_timeout_ms"], schedule["max_timeout_ms"]


class TestFailureDetector:
    def test_first_reply_seeds_the_rtt_estimate(self):
        det = FailureDetector()
        det.observe_reply("n1", 100.0)
        # First sample: srtt = rtt, rttvar = rtt/2 -> expected = rtt * 3.
        assert det.expected_rtt("n1") == pytest.approx(300.0)

    def test_ewma_converges_toward_the_observed_rtt(self):
        det = FailureDetector()
        det.observe_reply("n1", 400.0)
        for _ in range(200):
            det.observe_reply("n1", 100.0)
        assert det.expected_rtt("n1") == pytest.approx(100.0, rel=0.05)

    def test_suspicion_accrues_on_timeouts_and_resets_on_reply(self):
        # With no RTT estimate each timeout accrues one unit: the second
        # crosses the 2.0 threshold.
        assert SUSPICION_THRESHOLD == 2.0
        det = FailureDetector()
        assert not det.is_suspect("n1")
        det.observe_timeout("n1", 400.0)
        assert not det.is_suspect("n1")
        det.observe_timeout("n1", 400.0)
        assert det.is_suspect("n1")
        det.observe_reply("n1", 50.0)
        assert not det.is_suspect("n1")
        assert det.suspicion("n1") == 0.0

    def test_suspicions_counter_counts_transitions_not_timeouts(self):
        det = FailureDetector()
        for _ in range(5):
            det.observe_timeout("n1", 400.0)
        assert det.suspicions == 1  # one healthy -> suspect transition
        det.observe_reply("n1", 10.0)
        det.observe_timeout("n1", 400.0)
        det.observe_timeout("n1", 400.0)
        assert det.suspicions == 2

    def test_long_waits_are_stronger_evidence(self):
        det = FailureDetector()
        det.observe_reply("n1", 10.0)  # expected ~ 30ms
        det.observe_timeout("n1", 400.0)  # way past expectation
        heavy = det.suspicion("n1")
        det2 = FailureDetector()
        det2.observe_reply("n1", 10.0)
        det2.observe_timeout("n1", 31.0)  # barely past expectation
        assert heavy > det2.suspicion("n1")
        assert heavy <= 4.0  # increment is clamped

    def test_quantile_needs_min_samples(self):
        assert MIN_RTT_SAMPLES == 4
        det = FailureDetector()
        for rtt in (10.0, 20.0, 30.0):
            det.observe_reply("n1", rtt)
        assert det.rtt_quantile(0.95) is None
        det.observe_reply("n1", 40.0)
        assert det.rtt_quantile(0.95) == 40.0  # nearest rank of 4 samples

    def test_timeout_for_falls_back_cold_and_adapts_warm(self):
        det = FailureDetector()
        assert det.timeout_for(400.0, 6_400.0) == 400.0
        for rtt in (100.0, 110.0, 120.0, 130.0):
            det.observe_reply("n1", rtt)
        warm = det.timeout_for(400.0, 6_400.0)
        assert warm == pytest.approx(260.0)  # q95 = 130, x2
        assert det.timeout_for(400.0, 200.0) == 200.0  # capped
        fast = FailureDetector()
        for _ in range(4):
            fast.observe_reply("n1", 1.0)
        assert fast.timeout_for(400.0, 6_400.0) == 10.0  # floored at 10 ms

    def test_hedge_delay_none_when_it_cannot_beat_the_round(self):
        det = FailureDetector()
        assert det.hedge_delay(400.0) is None  # no estimate yet
        for rtt in (100.0, 100.0, 100.0, 100.0):
            det.observe_reply("n1", rtt)
        assert det.hedge_delay(400.0) == pytest.approx(100.0)
        assert det.hedge_delay(90.0) is None  # would fire after the timer

    def test_hedges_at_q90_and_times_out_at_twice_q95(self):
        det = FailureDetector()
        for rtt in range(1, 21):  # nearest rank over 20 samples
            det.observe_reply("n1", float(rtt))
        assert det.hedge_delay(400.0) == 19.0  # rank int(0.9 * 20) = 18
        assert det.timeout_for(400.0, 6_400.0) == 40.0  # rank 19, x2

    def test_the_rtt_window_keeps_the_last_64_replies(self):
        assert RTT_WINDOW == 64
        det = FailureDetector()
        for rtt in range(1, RTT_WINDOW + 1):
            det.observe_reply("n1", float(rtt))
        assert det.rtt_quantile(0.0) == 1.0
        assert det.rtt_quantile(1.0) == 64.0
        det.observe_reply("n2", 0.5)  # evicts the oldest sample, 1.0
        assert det.rtt_quantile(0.0) == 0.5
        assert det.rtt_quantile(1.0 / RTT_WINDOW) == 2.0
        assert det.rtt_quantile(1.0) == 64.0


_TARGETS = ("n0", "n1", "n2")


@settings(max_examples=300, deadline=None)
@given(
    # replies observed before the steps: up to past a full window, so
    # the steps also run against eviction
    warm=st.integers(0, RTT_WINDOW + 8),
    steps=st.lists(st.one_of(
        # few distinct RTTs, so the window holds duplicates and evicts them
        st.tuples(st.just("reply"), st.sampled_from(_TARGETS),
                  st.sampled_from([1.0, 2.0, 2.0, 5.0, 40.0])),
        st.tuples(st.just("timeout"), st.sampled_from(_TARGETS),
                  st.sampled_from([1.0, 30.0, 400.0])),
    ), max_size=60),
)
def test_kept_state_matches_recomputation(warm, steps):
    """The suspect set, the transition counter and the sorted window are
    kept incrementally; after every observation they must equal what a
    recomputation from suspicion levels and the last ``RTT_WINDOW`` RTTs
    gives (nearest rank over ``sorted(window)``)."""
    det = FailureDetector()
    recent = deque(maxlen=RTT_WINDOW)
    suspected, transitions = set(), 0
    warm_steps = [("reply", _TARGETS[i % 3], float(i % 7)) for i in range(warm)]
    for kind, target, ms in warm_steps + steps:
        if kind == "reply":
            det.observe_reply(target, ms)
            recent.append(ms)
        else:
            det.observe_timeout(target, ms)
        now_suspected = {
            t for t in _TARGETS if det.suspicion(t) >= SUSPICION_THRESHOLD
        }
        transitions += len(now_suspected - suspected)
        suspected = now_suspected
        assert det.suspects == suspected
        assert det.suspicions == transitions
        assert all(det.is_suspect(t) == (t in suspected) for t in _TARGETS)
        ordered = sorted(recent)
        n = len(ordered)
        for q in (0.5, 0.9, 0.95, 1.0):
            expected = (
                ordered[min(n - 1, int(q * n))] if n >= MIN_RTT_SAMPLES else None
            )
            assert det.rtt_quantile(q) == expected


def _reference_sample_quorum(res, system, mode, prefer, favour):
    """``NodeResilience.sample_quorum`` as a per-node walk over
    suspicion levels (the code the suspect-set version replaced)."""

    def suspect(t):
        return res.detector.suspicion(t) >= SUSPICION_THRESHOLD

    if prefer is not None and suspect(prefer):
        prefer = None
    if favour is not None:
        healthy = {t for t in favour if not suspect(t)}
        quorum = set(system.sample_read_quorum_biased(res.sim.rng, healthy))
        is_quorum = system.is_read_quorum
    elif mode == "READ":
        quorum = set(system.sample_read_quorum(res._select_rng, prefer=prefer))
        is_quorum = system.is_read_quorum
    else:
        quorum = set(system.sample_write_quorum(res._select_rng, prefer=prefer))
        is_quorum = system.is_write_quorum
    suspects = sorted(t for t in quorum if suspect(t))
    healthy_outside = sorted(
        t for t in system.nodes if t not in quorum and not suspect(t)
    )
    for member in suspects:
        for candidate in healthy_outside:
            trial = (quorum - {member}) | {candidate}
            if is_quorum(trial):
                quorum = trial
                healthy_outside.remove(candidate)
                break
    return frozenset(quorum)


def _reference_pick_hedge(res, system, targets, replies):
    candidates = [t for t in sorted(system.nodes)
                  if t not in targets and t not in replies]
    if not candidates:
        return None
    healthy = [t for t in candidates
               if res.detector.suspicion(t) < SUSPICION_THRESHOLD]
    return res._hedge_rng.choice(healthy or candidates)


@settings(max_examples=100, deadline=None)
@given(
    shape=st.sampled_from([("majority", 5), ("majority:r=2,w=4", 5),
                           ("grid:3x3", 9), ("rowa", 3)]),
    seed=st.integers(0, 3),
    data=st.data(),
)
def test_set_algebra_selection_matches_the_per_node_walk(shape, seed, data):
    """Quorum and hedge choices read the kept suspect set; two runtimes
    on the same seed, one asked through the reference, draw identically
    from every stream (``sim.rng`` included)."""
    spec, n = shape
    nodes = [f"n{i}" for i in range(n)]
    system = QuorumSpec.parse(spec).build(nodes)
    res = NodeResilience(Simulator(seed=seed), "c0")
    ref = NodeResilience(Simulator(seed=seed), "c0")
    node = st.sampled_from(nodes)
    for _ in range(data.draw(st.integers(1, 8))):
        target, timeouts = data.draw(node), data.draw(st.integers(0, 3))
        for side in (res, ref):
            if timeouts:
                for _ in range(timeouts):
                    side.detector.observe_timeout(target, 400.0)
            else:
                side.detector.observe_reply(target, 20.0)
        mode = data.draw(st.sampled_from(["READ", "WRITE"]))
        prefer = data.draw(st.none() | node)
        favour = data.draw(st.none() | st.sets(node)) if mode == "READ" else None
        quorum = res.sample_quorum(system, mode, prefer=prefer, favour=favour)
        assert quorum == _reference_sample_quorum(ref, system, mode, prefer, favour)
        replies = dict.fromkeys(data.draw(st.sets(node)))
        assert res.pick_hedge(system, quorum, replies) == _reference_pick_hedge(
            ref, system, quorum, replies
        )


class TestDerivedTimeouts:
    def test_default_topology_derivation(self):
        initial, cap = derived_timeouts(EdgeTopologyConfig())
        # 2 * (86ms one-way + 5ms jitter + processing) * 2 safety.
        assert initial == pytest.approx(344.0)
        assert cap == pytest.approx(initial * 16.0)  # four 2x steps

    def test_scales_with_the_delay_distribution(self):
        lan = derived_timeouts(
            EdgeTopologyConfig(server_wan_ms=1.0, client_wan_ms=1.0)
        )
        wan = derived_timeouts(
            EdgeTopologyConfig(server_wan_ms=300.0)
        )
        assert lan[0] < derived_timeouts(EdgeTopologyConfig())[0] < wan[0]
        assert lan[0] >= 1.0  # floor

    def test_cap_never_below_initial(self):
        initial, cap = derived_timeouts(EdgeTopologyConfig(), max_ms=100.0)
        assert cap == initial == pytest.approx(344.0)
        initial, cap = derived_timeouts(EdgeTopologyConfig(), initial_ms=8_000.0)
        assert cap == initial == 8_000.0


class TestNodeResilience:
    def test_same_seed_same_streams(self):
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])

        def draws(seed):
            res = NodeResilience(Simulator(seed=seed), "c0")
            quorums = [res.sample_quorum(system, "READ") for _ in range(10)]
            hedges = [res.pick_hedge(system, frozenset(["n0"]), {})
                      for _ in range(10)]
            return quorums, hedges

        assert draws(3) == draws(3)
        assert draws(3) != draws(4)

    def test_streams_are_independent(self):
        """Burning the hedge stream must not shift quorum selection."""
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        a = NodeResilience(Simulator(seed=0), "c0")
        b = NodeResilience(Simulator(seed=0), "c0")
        for _ in range(50):
            b.pick_hedge(system, frozenset(["n0"]), {})
        quorums_a = [a.sample_quorum(system, "READ") for _ in range(10)]
        quorums_b = [b.sample_quorum(system, "READ") for _ in range(10)]
        assert quorums_a == quorums_b

    def test_resilience_draws_nothing_from_sim_rng(self):
        sim = Simulator(seed=0)
        state = sim.rng.getstate()
        res = NodeResilience(sim, "c0")
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(5)])
        res.sample_quorum(system, "READ")
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
