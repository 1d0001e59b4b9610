"""Sharded scenario execution (repro.harness.shards).

The load-bearing property is the determinism contract: the merged
result is a pure function of ``(base config, num_groups)`` and never of
the worker count.  These tests run small but real simulations.
"""

import dataclasses

import pytest

from repro.harness import ExperimentConfig
from repro.harness.shards import (
    ShardedResult,
    merge_points,
    run_sharded,
    shard_configs,
)


def _base(**kw):
    kw.setdefault("protocol", "rowa")
    kw.setdefault("num_clients", 6)
    kw.setdefault("ops_per_client", 30)
    kw.setdefault("warmup_ops", 2)
    kw.setdefault("seed", 21)
    return ExperimentConfig(**kw)


def _summary_key(result: ShardedResult):
    """Everything observable about a merged result, for equality."""
    s = result.summary
    return (
        dataclasses.astuple(s.reads),
        dataclasses.astuple(s.writes),
        dataclasses.astuple(s.overall),
        s.read_hit_rate,
        s.failures,
        s.availability,
        result.messages_per_request,
        result.total_requests,
        result.sim_time_ms,
        tuple(sorted(result.metrics.items())),
    )


class TestShardConfigs:
    def test_round_robin_sizes_and_distinct_seeds(self):
        parts = shard_configs(_base(num_clients=7), 3)
        assert [p.num_clients for p in parts] == [3, 2, 2]
        assert len({p.seed for p in parts}) == 3
        assert all(p.seed != 21 for p in parts)

    def test_clamped_to_client_count(self):
        parts = shard_configs(_base(num_clients=2), 8)
        assert len(parts) == 2
        assert [p.num_clients for p in parts] == [1, 1]

    def test_rejects_nonpositive_groups(self):
        with pytest.raises(ValueError):
            shard_configs(_base(), 0)

    def test_seeds_are_stable_functions_of_base_seed_and_group(self):
        first = [p.seed for p in shard_configs(_base(), 4)]
        again = [p.seed for p in shard_configs(_base(), 4)]
        assert first == again
        other = [p.seed for p in shard_configs(_base(seed=22), 4)]
        assert first != other

    def test_topologies_are_independent_copies(self):
        base = _base()
        parts = shard_configs(base, 2)
        assert parts[0].topology is not parts[1].topology
        assert parts[0].topology is not base.topology
        # __post_init__ resized each copy to its own group
        assert parts[0].topology.num_clients == parts[0].num_clients


class TestMergeDeterminism:
    def test_worker_count_does_not_change_the_merge(self, tmp_path):
        base = _base()
        serial = run_sharded(base, num_groups=3, workers=1)
        wide = run_sharded(base, num_groups=3, workers=3)
        assert _summary_key(serial) == _summary_key(wide)

    def test_merge_is_order_independent(self):
        base = _base()
        result = run_sharded(base, num_groups=3, workers=1)
        reversed_merge = merge_points(base, list(reversed(result.points)))
        forward = _summary_key(result)
        backward = _summary_key(reversed_merge)
        # sim_time/percentiles/counters all order-independent
        assert forward == backward

    def test_merge_accounts_for_every_group(self):
        base = _base()
        result = run_sharded(base, num_groups=3, workers=1)
        assert result.num_groups == 3
        assert result.total_requests == sum(
            p.total_requests for p in result.points
        )
        assert result.sim_time_ms == max(p.sim_time_ms for p in result.points)
        per_group_events = sum(
            p.extras["events_processed"] for p in result.points
        )
        assert result.metrics["kernel.events_processed"] == per_group_events

    def test_single_group_equals_whole_scenario_reseeded(self):
        # One group is still reseeded by the shard plan: the merge of a
        # 1-group run must equal running that group's config directly.
        base = _base()
        one = run_sharded(base, num_groups=1, workers=1)
        again = run_sharded(base, num_groups=1, workers=1)
        assert _summary_key(one) == _summary_key(again)
        assert one.num_groups == 1
