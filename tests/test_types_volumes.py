"""Tests for logical clocks and volume maps."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.volumes import (
    ExplicitVolumeMap,
    HashVolumeMap,
    SingleVolumeMap,
)
from repro.types import ZERO_LC, LogicalClock


class TestLogicalClock:
    def test_zero_is_smallest(self):
        assert ZERO_LC < LogicalClock(1, "a")
        assert ZERO_LC < LogicalClock(0, "a")

    def test_counter_dominates(self):
        assert LogicalClock(2, "a") > LogicalClock(1, "z")

    def test_node_breaks_ties(self):
        assert LogicalClock(1, "b") > LogicalClock(1, "a")

    def test_next_is_strictly_greater(self):
        lc = LogicalClock(5, "z")
        nxt = lc.next("a")
        assert nxt > lc
        assert nxt.node_id == "a"

    def test_merge(self):
        a, b = LogicalClock(3, "x"), LogicalClock(5, "a")
        assert a.merge(b) == b
        assert b.merge(a) == b

    def test_str(self):
        assert str(LogicalClock(3, "n1")) == "3@n1"
        assert str(ZERO_LC) == "0@-"

    def test_hashable_and_frozen(self):
        lc = LogicalClock(1, "a")
        assert lc in {lc}
        with pytest.raises(Exception):
            lc.counter = 2


lc_strategy = st.builds(
    LogicalClock,
    st.integers(min_value=0, max_value=1000),
    st.text(alphabet="abcdef", min_size=0, max_size=3),
)


@given(a=lc_strategy, b=lc_strategy, c=lc_strategy)
@settings(max_examples=200, deadline=None)
def test_property_total_order(a, b, c):
    """Logical clocks form a total order (trichotomy + transitivity)."""
    assert (a < b) + (a == b) + (a > b) == 1
    if a <= b and b <= c:
        assert a <= c


@given(a=lc_strategy, node=st.text(alphabet="xyz", min_size=1, max_size=2))
@settings(max_examples=100, deadline=None)
def test_property_next_strictly_increases(a, node):
    assert a.next(node) > a


@given(a=lc_strategy, b=lc_strategy)
@settings(max_examples=100, deadline=None)
def test_property_merge_is_max(a, b):
    m = a.merge(b)
    assert m >= a and m >= b
    assert m in (a, b)


class TestVolumeMaps:
    def test_single_volume(self):
        vm = SingleVolumeMap()
        assert vm.volume_of("anything") == "vol0"

    def test_hash_map_deterministic_and_in_range(self):
        vm = HashVolumeMap(4)
        names = set()
        for i in range(100):
            v = vm.volume_of(f"obj{i}")
            assert v == vm.volume_of(f"obj{i}")
            names.add(v)
        assert names <= {f"vol{i}" for i in range(4)}
        assert len(names) > 1  # spreads across buckets

    def test_hash_map_validates(self):
        with pytest.raises(ValueError):
            HashVolumeMap(0)

    def test_explicit_with_fallback(self):
        vm = ExplicitVolumeMap({"a": "cust-1"}, fallback=HashVolumeMap(2, prefix="h"))
        assert vm.volume_of("a") == "cust-1"
        assert vm.volume_of("b").startswith("h")

    def test_explicit_default_fallback(self):
        vm = ExplicitVolumeMap({"a": "v9"})
        assert vm.volume_of("zzz") == "vol0"


@given(
    num_volumes=st.integers(min_value=1, max_value=16),
    obj=st.text(min_size=0, max_size=20),
)
@settings(max_examples=150, deadline=None)
def test_property_hash_volume_stable_and_bounded(num_volumes, obj):
    vm = HashVolumeMap(num_volumes)
    v = vm.volume_of(obj)
    assert v == vm.volume_of(obj)
    assert v in {f"vol{i}" for i in range(num_volumes)}
