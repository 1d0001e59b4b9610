"""Tests for the session-guarantee checkers, and protocol conformance."""

import pytest

from repro.consistency import (
    History,
    check_monotonic_reads,
    check_read_your_writes,
    check_session_guarantees,
)
from repro.types import ZERO_LC, LogicalClock, Op


def lc(n, node="w"):
    return LogicalClock(n, node)


def w(key, n, start, client="c"):
    return Op("write", key, f"v{n}", lc(n), start, start + 1, client)


def r(key, n, start, client="c"):
    return Op("read", key, f"v{n}" if n else None,
              lc(n) if n else ZERO_LC, start, start + 1, client)


def history_of(*ops):
    h = History()
    h.ops = list(ops)
    return h


class TestReadYourWrites:
    def test_fresh_session_reads_anything(self):
        assert check_read_your_writes(history_of(r("x", 0, 0))) == []

    def test_own_write_then_fresh_read_ok(self):
        h = history_of(w("x", 3, 0), r("x", 3, 10))
        assert check_read_your_writes(h) == []

    def test_newer_than_own_write_ok(self):
        h = history_of(w("x", 3, 0), r("x", 7, 10))
        assert check_read_your_writes(h) == []

    def test_missing_own_write_violates(self):
        h = history_of(w("x", 3, 0), r("x", 1, 10))
        violations = check_read_your_writes(h)
        assert len(violations) == 1
        assert violations[0].guarantee == "read-your-writes"
        assert "read-your-writes" in str(violations[0])

    def test_per_key_scoping(self):
        h = history_of(w("x", 3, 0), r("y", 0, 10))
        assert check_read_your_writes(h) == []

    def test_per_client_scoping(self):
        h = history_of(
            w("x", 3, 0, client="alice"),
            r("x", 0, 10, client="bob"),  # bob never wrote: fine
        )
        assert check_read_your_writes(h) == []

    def test_failed_ops_ignored(self):
        h = history_of(
            Op("write", "x", "v3", lc(3), 0, 1, "c", ok=False),
            r("x", 0, 10),
        )
        assert check_read_your_writes(h) == []


class TestMonotonicReads:
    def test_forward_progress_ok(self):
        h = history_of(r("x", 1, 0), r("x", 1, 10), r("x", 4, 20))
        assert check_monotonic_reads(h) == []

    def test_regression_violates(self):
        h = history_of(r("x", 4, 0), r("x", 1, 10))
        violations = check_monotonic_reads(h)
        assert len(violations) == 1
        assert violations[0].guarantee == "monotonic-reads"

    def test_other_clients_do_not_interfere(self):
        h = history_of(
            r("x", 4, 0, client="alice"),
            r("x", 1, 10, client="bob"),
        )
        assert check_monotonic_reads(h) == []

    def test_combined_checker_unions(self):
        h = history_of(w("x", 5, 0), r("x", 7, 10), r("x", 2, 20))
        violations = check_session_guarantees(h)
        kinds = {v.guarantee for v in violations}
        assert kinds == {"read-your-writes", "monotonic-reads"}


class TestProtocolsSessionConformance:
    def _run(self, protocol, locality, seed=19):
        from repro.harness import ExperimentConfig, run_response_time

        result = run_response_time(
            ExperimentConfig(
                protocol=protocol, write_ratio=0.3, locality=locality,
                ops_per_client=60, warmup_ops=5, seed=seed,
            )
        )
        return result.full_history()

    @pytest.mark.parametrize("protocol", ["dqvl", "majority", "rowa", "primary_backup"])
    def test_strong_protocols_keep_session_guarantees(self, protocol):
        history = self._run(protocol, locality=0.5)
        assert check_session_guarantees(history) == []

    def test_rowa_async_violates_when_redirected(self):
        """The user-visible ROWA-Async failure: a redirected session does
        not see its own writes / sees time run backwards.

        With the paper's delays an eager push always beats a sequential
        client across the WAN, so the anomaly needs what real systems
        have: lost pushes (here) or propagation lag.  One lost update is
        enough for the session to read past its own write.
        """
        from repro.protocols import build_rowa_async_cluster
        from repro.sim import ConstantDelay, Network, Simulator

        sim = Simulator(seed=4)
        net = Network(sim, ConstantDelay(20.0), loss_probability=0.25)
        cluster = build_rowa_async_cluster(
            sim, net, ["s0", "s1", "s2"], gossip_interval_ms=30_000.0,
        )
        history = History()

        def roaming_session():
            client = cluster.client("alice", prefer="s0")
            for i in range(12):
                # alternate replicas, as a redirected session would
                client.target = f"s{i % 3}"
                w_res = yield from client.write("cart", f"v{i}")
                history.ops.append(w_res)
                client.target = f"s{(i + 1) % 3}"
                r_res = yield from client.read("cart")
                history.ops.append(r_res)

        sim.run_process(roaming_session(), until=3_600_000.0)
        violations = check_session_guarantees(history)
        assert len(violations) > 0

    def test_rowa_async_fine_with_full_locality(self):
        """Pinned to one replica, the epidemic store is session-safe —
        exactly the locality assumption the paper leans on."""
        history = self._run("rowa_async", locality=1.0)
        assert check_session_guarantees(history) == []
