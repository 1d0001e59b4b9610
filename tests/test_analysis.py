"""Tests for the analytical models (Figures 8 and 9)."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    default_grid_shape,
    dqvl_availability,
    dqvl_messages_per_request,
    expected_latency,
    grid_protocol_availability,
    majority_availability,
    majority_messages_per_request,
    majority_protocol_availability,
    primary_backup_availability,
    protocol_messages_per_request,
    protocol_unavailability,
    rowa_async_availability,
    rowa_availability,
    rowa_messages_per_request,
)

P = 0.01  # the paper's per-node unavailability


class TestAvailabilityFormulas:
    def test_majority_single_node(self):
        assert majority_availability(1, 1, 0.1) == pytest.approx(0.9)

    def test_majority_grows_with_n(self):
        values = [
            majority_availability(n, n // 2 + 1, P) for n in (3, 5, 9, 15)
        ]
        assert values == sorted(values)
        assert values[-1] > 1 - 1e-8

    def test_dqvl_formula_matches_paper_structure(self):
        """av = (1-w) min(orq, irq) + w min(iwq, irq), verified manually."""
        w, n = 0.25, 5
        av_orq = 1 - P**n
        av_maj = majority_availability(n, 3, P)
        expected = (1 - w) * min(av_orq, av_maj) + w * min(av_maj, av_maj)
        assert dqvl_availability(w, n, n, P) == pytest.approx(expected)

    def test_dqvl_tracks_majority(self):
        """The paper's key Figure 8 result: DQVL ~ majority quorum."""
        for w in (0.0, 0.25, 0.5, 1.0):
            dq = 1 - dqvl_availability(w, 15, 15, P)
            mj = 1 - majority_protocol_availability(w, 15, P)
            assert dq == pytest.approx(mj, rel=0.5)

    def test_rowa_write_cliff(self):
        """ROWA's write availability collapses as n grows."""
        un_writes = [1 - rowa_availability(1.0, n, P) for n in (3, 9, 15)]
        assert un_writes == sorted(un_writes)
        assert un_writes[-1] > 0.1  # 15 nodes, all must be up

    def test_rowa_async_stale_is_best(self):
        av = rowa_async_availability(0.25, 15, P, allow_stale=True)
        assert 1 - av < 1e-25

    def test_rowa_async_no_stale_is_orders_worse(self):
        """The paper: several orders of magnitude worse than quorums."""
        no_stale = 1 - rowa_async_availability(0.25, 15, P, allow_stale=False)
        quorum = 1 - majority_protocol_availability(0.25, 15, P)
        assert no_stale > quorum * 1e4

    def test_primary_backup_flat(self):
        assert primary_backup_availability(0.1, 3, P) == pytest.approx(1 - P)
        assert primary_backup_availability(0.9, 15, P) == pytest.approx(1 - P)

    def test_grid_shape_near_square(self):
        assert default_grid_shape(16) == (4, 4)
        assert default_grid_shape(15) == (3, 5)
        # prime sizes get a ragged near-square grid, not a 1 x n strip
        assert default_grid_shape(7) == (2, 4)
        assert default_grid_shape(11) == (3, 4)

    def test_grid_availability_between_rowa_and_majority_for_reads(self):
        w = 0.0
        grid = grid_protocol_availability(w, 16, P)
        rowa = rowa_availability(w, 16, P)
        assert grid <= rowa  # read-one beats column covers

    def test_dispatcher_known_protocols(self):
        for name in (
            "dqvl", "majority", "grid", "rowa",
            "rowa_async", "rowa_async_no_stale", "primary_backup",
        ):
            u = protocol_unavailability(name, 0.25, 15, P)
            assert 0.0 <= u <= 1.0

    def test_dispatcher_unknown(self):
        with pytest.raises(KeyError):
            protocol_unavailability("paxos", 0.5, 9, P)

    def test_input_validation(self):
        with pytest.raises(ValueError):
            dqvl_availability(-0.1, 9, 9, P)
        with pytest.raises(ValueError):
            rowa_availability(0.5, 9, 1.5)


@given(
    w=st.floats(min_value=0.0, max_value=1.0),
    n=st.integers(min_value=1, max_value=25),
    p=st.floats(min_value=0.0, max_value=0.5),
)
@settings(max_examples=150, deadline=None)
def test_property_availabilities_are_probabilities(w, n, p):
    for name in (
        "dqvl", "majority", "grid", "rowa",
        "rowa_async", "rowa_async_no_stale", "primary_backup",
    ):
        u = protocol_unavailability(name, w, n, p)
        assert -1e-9 <= u <= 1.0 + 1e-9


@given(
    n=st.integers(min_value=3, max_value=21),
    p=st.floats(min_value=0.001, max_value=0.2),
)
@settings(max_examples=60, deadline=None)
def test_property_dqvl_unavailability_close_to_majority(n, p):
    """Figure 8's claim holds across the whole parameter range: DQVL's
    unavailability is within a small constant factor of majority's."""
    for w in (0.1, 0.5, 0.9):
        dq = protocol_unavailability("dqvl", w, n, p)
        mj = protocol_unavailability("majority", w, n, p)
        assert dq <= mj * 2 + 1e-15
        assert dq >= mj * 0.4 - 1e-15


class TestOverheadFormulas:
    def test_majority_counts(self):
        # n=9: quorum 5; read 10 msgs, write 20
        assert majority_messages_per_request(0.0, 9) == pytest.approx(10.0)
        assert majority_messages_per_request(1.0, 9) == pytest.approx(20.0)

    def test_rowa_counts(self):
        assert rowa_messages_per_request(0.0, 9) == pytest.approx(2.0)
        assert rowa_messages_per_request(1.0, 9) == pytest.approx(18.0)

    def test_dqvl_read_only_workload_is_cheap(self):
        """All-read workloads hit: 2 messages per read, like ROWA-Async."""
        msgs = dqvl_messages_per_request(0.0, n_iqs=9, n_oqs=9)
        assert msgs == pytest.approx(2.0)

    def test_dqvl_write_only_workload_suppresses(self):
        """All-write workloads suppress invalidations: the cost is the
        two IQS rounds only."""
        msgs = dqvl_messages_per_request(1.0, n_iqs=9, n_oqs=9)
        assert msgs == pytest.approx(2 * 5 + 2 * 5)

    def test_dqvl_worst_case_at_half(self):
        """Figure 9(a): interleaving peaks DQVL's overhead near w=0.5
        above the majority protocol."""
        points = {
            w: dqvl_messages_per_request(w, n_iqs=9, n_oqs=9)
            for w in (0.1, 0.3, 0.5, 0.7, 0.9)
        }
        assert points[0.5] > points[0.1]
        assert points[0.5] > points[0.9]
        assert points[0.5] > majority_messages_per_request(0.5, 9)

    def test_dqvl_burst_rates_shrink_overhead(self):
        """Measured hit rates (bursty workloads) pull DQVL back under
        its worst case."""
        worst = dqvl_messages_per_request(0.5, n_iqs=9, n_oqs=9)
        bursty = dqvl_messages_per_request(
            0.5, n_iqs=9, n_oqs=9, read_miss_rate=0.1, write_through_rate=0.1
        )
        assert bursty < worst * 0.6

    def test_fig9b_fixed_iqs_keeps_dqvl_comparable(self):
        """Figure 9(b): with IQS fixed at a moderate size, DQVL's
        overhead stays comparable to majority as the OQS grows."""
        for n_oqs in (9, 15, 21, 27):
            dq = dqvl_messages_per_request(0.5, n_iqs=5, n_oqs=n_oqs)
            mj = majority_messages_per_request(0.5, n_oqs)
            assert dq < mj * 3.0

    def test_dispatcher(self):
        for name in ("dqvl", "majority", "grid", "rowa", "rowa_async", "primary_backup"):
            assert protocol_messages_per_request(name, 0.3, 9) > 0
        with pytest.raises(KeyError):
            protocol_messages_per_request("nope", 0.3, 9)

    def test_validation(self):
        with pytest.raises(ValueError):
            majority_messages_per_request(-0.1, 9)


class TestResponseTimeModel:
    def test_paper_delay_defaults(self):
        from repro.tune import LatencyModel

        d = LatencyModel(jitter_ms=0.0)
        assert (d.lan_ms, d.client_wan_ms, d.server_wan_ms) == (8.0, 86.0, 80.0)
        assert d.qrpc_ms(d.client_wan_ms, 5) == 172.0  # no jitter: the round trip

    def test_dqvl_read_hit_local(self):
        assert expected_latency("dqvl", "read", local=True, miss=False) == 16.0

    def test_dqvl_read_miss_remote(self):
        assert expected_latency("dqvl", "read", local=False, miss=True) == 172.0 + 160.0

    def test_majority_flat_in_locality(self):
        local = expected_latency("majority", "read", local=True)
        remote = expected_latency("majority", "read", local=False)
        assert local == remote == 172.0

    def test_write_ordering_matches_paper(self):
        """ROWA and primary/backup writes are one round; majority and
        DQVL two (plus DQVL's invalidation when writing through)."""
        rowa = expected_latency("rowa", "write")
        pb = expected_latency("primary_backup", "write", primary_local=False)
        maj = expected_latency("majority", "write")
        dq_thru = expected_latency("dqvl", "write", write_through=True)
        dq_sup = expected_latency("dqvl", "write", write_through=False)
        assert rowa < maj
        assert pb < maj
        assert dq_sup == maj
        assert dq_thru > maj

    def test_unknown_protocol(self):
        with pytest.raises(KeyError):
            expected_latency("zab", "read")


class TestMeanLatencyModel:
    def test_input_validation(self):
        from repro.analysis import expected_mean_latency

        with pytest.raises(ValueError):
            expected_mean_latency("dqvl", -0.1)
        with pytest.raises(ValueError):
            expected_mean_latency("dqvl", 0.5, locality=2.0)
        with pytest.raises(KeyError):
            expected_mean_latency("paxos", 0.5)

    def test_known_endpoints(self):
        from repro.analysis import expected_mean_latency

        # all-read, full locality: DQVL = local hit; majority = quorum RT
        assert expected_mean_latency("dqvl", 0.0, 1.0) == pytest.approx(16.0)
        assert expected_mean_latency("majority", 0.0, 1.0) == pytest.approx(172.0)
        assert expected_mean_latency("rowa_async", 0.3, 1.0) == pytest.approx(16.0)
        # all-write: DQVL = two quorum rounds (suppressed) = majority
        assert expected_mean_latency("dqvl", 1.0, 1.0) == pytest.approx(
            expected_mean_latency("majority", 1.0, 1.0)
        )

    def test_locality_monotonicity_for_dqvl(self):
        from repro.analysis import expected_mean_latency

        values = [
            expected_mean_latency("dqvl", 0.05, loc)
            for loc in (0.0, 0.25, 0.5, 0.75, 1.0)
        ]
        assert values == sorted(values, reverse=True)

    def test_locality_flat_for_strong_baselines(self):
        from repro.analysis import expected_mean_latency

        for protocol in ("majority", "primary_backup"):
            values = {
                expected_mean_latency(protocol, 0.05, loc)
                for loc in (0.0, 0.5, 1.0)
            }
            assert len(values) == 1

    @pytest.mark.parametrize(
        "protocol", ["dqvl", "majority", "primary_backup", "rowa", "rowa_async"]
    )
    @pytest.mark.parametrize("w,loc", [(0.05, 1.0), (0.5, 1.0), (0.05, 0.5)])
    def test_model_matches_simulation(self, protocol, w, loc):
        """The closed-form workload mean agrees with the simulator to
        within 15% across protocols, write ratios, and localities."""
        from repro.analysis import expected_mean_latency
        from repro.harness import ExperimentConfig, run_response_time

        model = expected_mean_latency(protocol, w, loc)
        sim = run_response_time(
            ExperimentConfig(
                protocol=protocol, write_ratio=w, locality=loc,
                ops_per_client=120, warmup_ops=10, seed=6,
            )
        ).summary.overall.mean
        assert model == pytest.approx(sim, rel=0.15)
