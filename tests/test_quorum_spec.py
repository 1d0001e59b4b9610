"""Tests for the declarative QuorumSpec API (parse/serialise/build)."""

import pytest

from repro.core.config import DqvlConfig
from repro.quorum import (
    DEFAULT_IQS_SPEC,
    DEFAULT_OQS_SPEC,
    QuorumSpec,
    all_of,
    any_of,
    choose,
    node,
)


def nodes(n):
    return [f"n{i}" for i in range(n)]


ROUND_TRIP_SPECS = [
    QuorumSpec(kind="majority"),
    QuorumSpec(kind="majority", read_size=2, write_size=4),
    QuorumSpec(kind="grid"),
    QuorumSpec(kind="grid", rows=3, cols=3),
    QuorumSpec(kind="rowa"),
    QuorumSpec(kind="single"),
    QuorumSpec(kind="weighted", votes=(3, 1, 1, 1, 1),
               read_threshold=4, write_threshold=4),
]


class TestRoundTrips:
    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=str)
    def test_string_round_trip(self, spec):
        assert QuorumSpec.parse(str(spec)) == spec

    @pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=str)
    def test_json_round_trip(self, spec):
        assert QuorumSpec.from_json(spec.to_json()) == spec

    def test_parse_accepts_spec_and_dict(self):
        spec = QuorumSpec(kind="grid", rows=3, cols=3)
        assert QuorumSpec.parse(spec) is spec
        assert QuorumSpec.parse(spec.to_json()) == spec

    def test_canonical_strings(self):
        assert str(QuorumSpec(kind="majority")) == "majority"
        assert (
            str(QuorumSpec(kind="majority", read_size=2, write_size=4))
            == "majority:r=2,w=4"
        )
        assert str(QuorumSpec(kind="grid", rows=3, cols=3)) == "grid:3x3"
        assert str(QuorumSpec(kind="rowa")) == "rowa"


class TestBuild:
    def test_default_specs_match_seed_construction(self):
        iqs = DEFAULT_IQS_SPEC.build(nodes(5))
        assert (iqs.read, iqs.write) == (choose(3, nodes(5)), choose(3, nodes(5)))
        oqs = DEFAULT_OQS_SPEC.build(nodes(5))
        assert (oqs.read, oqs.write) == (any_of(nodes(5)), all_of(nodes(5)))

    def test_each_kind_builds_the_right_system(self):
        majority = QuorumSpec.parse("majority:r=2,w=4").build(nodes(5))
        assert (majority.read, majority.write) == (choose(2, nodes(5)), choose(4, nodes(5)))
        grid = QuorumSpec.parse("grid:3x2").build(nodes(6))
        columns = [nodes(6)[:3], nodes(6)[3:]]
        assert grid.read == all_of(any_of(col) for col in columns)
        assert grid.write == any_of([
            all_of([all_of(columns[0]), any_of(columns[1])]),
            all_of([all_of(columns[1]), any_of(columns[0])]),
        ])
        single = QuorumSpec.parse("single").build(nodes(3))
        assert (single.nodes, single.read, single.write) == (("n0",), node("n0"), node("n0"))
        weighted = QuorumSpec.parse("weighted:votes=3-1-1,r=3,w=3").build(["c", "b", "a"])
        assert weighted.nodes == ("a", "b", "c")
        assert weighted.read == choose(3, ["a", "b", "c"], votes=[1, 1, 3])

    def test_grid_without_dims_is_near_square(self):
        grid = QuorumSpec(kind="grid").build(nodes(9))
        assert grid.read == all_of(any_of(nodes(9)[c:c + 3]) for c in (0, 3, 6))


class TestRejection:
    def test_non_intersecting_majority_rejected_at_build(self):
        spec = QuorumSpec(kind="majority", read_size=2, write_size=3)
        with pytest.raises(ValueError, match="intersection"):
            spec.build(nodes(9))

    def test_grid_dims_must_fit_node_count(self):
        with pytest.raises(ValueError):
            QuorumSpec(kind="grid", rows=2, cols=2).build(nodes(9))

    def test_zero_weight_voters_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(
                kind="weighted", votes=(0, 1, 1),
                read_threshold=2, write_threshold=2,
            )

    def test_weighted_thresholds_must_intersect(self):
        with pytest.raises(ValueError):
            QuorumSpec(
                kind="weighted", votes=(1, 1, 1),
                read_threshold=1, write_threshold=1,
            )

    def test_weighted_votes_must_match_node_count(self):
        spec = QuorumSpec(
            kind="weighted", votes=(2, 1, 1),
            read_threshold=3, write_threshold=2,
        )
        with pytest.raises(ValueError):
            spec.build(nodes(5))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(kind="paxos")
        with pytest.raises(ValueError):
            QuorumSpec.parse("paxos")

    def test_foreign_params_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(kind="rowa", read_size=1)
        with pytest.raises(ValueError):
            QuorumSpec.parse("grid:r=2,w=2")
        with pytest.raises(ValueError):
            QuorumSpec.from_json({"kind": "majority", "bogus": 1})

    def test_empty_node_list_rejected(self):
        with pytest.raises(ValueError):
            QuorumSpec(kind="rowa").build([])

    @pytest.mark.parametrize("text,param", [
        ("majority:r=2,r=3", "r"),
        ("majority:w=3,r=2,w=4", "w"),
        ("grid:3x3,2x2", "<rows>x<cols>"),
        ("weighted:votes=3-1-1,r=3,w=3,votes=1-1-1", "votes"),
    ])
    def test_repeated_parameter_rejected(self, text, param):
        with pytest.raises(ValueError, match=f"parameter {param!r} given twice"):
            QuorumSpec.parse(text)

    @pytest.mark.parametrize("obj", [
        {"kind": "majority", "read_size": 2.0},
        {"kind": "majority", "write_size": True},
        {"kind": "grid", "rows": 1.5, "cols": 2},
        {"kind": "grid", "rows": 2, "cols": "2"},
        {"kind": "weighted", "votes": [2.5, 1, 1], "read_threshold": 3, "write_threshold": 3},
        {"kind": "weighted", "votes": [True, 1, 1], "read_threshold": 2, "write_threshold": 2},
        {"kind": "weighted", "votes": [2, 1, 1], "read_threshold": 3.0, "write_threshold": 2},
    ])
    def test_json_non_integers_rejected(self, obj):
        with pytest.raises(ValueError, match="integer"):
            QuorumSpec.from_json(obj)


class TestConfigIntegration:
    def test_dqvl_config_normalises_spec_strings(self):
        config = DqvlConfig(iqs_spec="majority:r=2,w=4", oqs_spec="rowa")
        assert config.iqs_spec == QuorumSpec(
            kind="majority", read_size=2, write_size=4
        )
        assert config.oqs_spec == QuorumSpec(kind="rowa")

    def test_cluster_uses_specs(self):
        from repro.core.cluster import build_dqvl_cluster
        from repro.sim.kernel import Simulator
        from repro.sim.network import ConstantDelay, Network

        sim = Simulator(seed=1)
        net = Network(sim, ConstantDelay(5.0))
        cluster = build_dqvl_cluster(
            sim, net,
            [f"iqs{i}" for i in range(5)],
            [f"oqs{i}" for i in range(5)],
            DqvlConfig(iqs_spec="majority:r=2,w=4"),
        )
        assert cluster.iqs_system.read.min_size == 2
        assert cluster.iqs_system.write.min_size == 4
        assert cluster.oqs_system.write == all_of(f"oqs{i}" for i in range(5))
