"""The one bounds rule (:mod:`repro.bounds`): every numeric field of the
runner configs declares its range, and construction refuses any value
outside it with one message format."""

import dataclasses
import math
from typing import Optional

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.bounds import bounded, bounded_fields, check_bounds, require
from repro.chaos.campaign import ChaosRunConfig
from repro.core.config import DqvlConfig
from repro.edge.cdn import CdnScenarioConfig
from repro.edge.topology import EdgeTopologyConfig
from repro.harness.availability import AvailabilitySimConfig
from repro.harness.experiment import ExperimentConfig
from repro.mc.runner import McRunConfig
from repro.tune.runner import TuneConfig

CONFIGS = [
    DqvlConfig, EdgeTopologyConfig, CdnScenarioConfig, ChaosRunConfig,
    McRunConfig, ExperimentConfig, AvailabilitySimConfig, TuneConfig,
]


def numeric_fields(cls):
    """The fields annotated ``int`` or ``float`` (optional or not),
    except the seed, which any integer is."""
    return [
        f for f in dataclasses.fields(cls)
        if f.name != "seed" and ("int" in f.type or "float" in f.type)
    ]


CASES = [(cls, f.name) for cls in CONFIGS for f in numeric_fields(cls)]
INTEGRAL = {(cls, f.name) for cls in CONFIGS for f in numeric_fields(cls)
            if "int" in f.type}


def declared(cls, name):
    (row,) = [row for row in bounded_fields(cls) if row[0] == name]
    return row[2:]


def inside(value, lo, hi, lo_open, hi_open):
    """The interval test, written out apart from the rule under test."""
    above = value > lo if lo_open else value >= lo
    below = value < hi if hi_open else value <= hi
    return above and below


def build(cls, name, value):
    return cls(**{name: value})


@pytest.mark.parametrize("cls", CONFIGS, ids=lambda c: c.__name__)
def test_every_numeric_field_declares_a_range(cls):
    assert {f.name for f in numeric_fields(cls)} == {
        row[0] for row in bounded_fields(cls)
    }
    cls()  # every default lies inside its own range


@pytest.mark.parametrize("cls, name", CASES,
                         ids=[f"{c.__name__}.{n}" for c, n in CASES])
def test_nan_is_refused_naming_the_field(cls, name):
    with pytest.raises(ValueError, match=rf"^{name} must be in .*, got nan$"):
        build(cls, name, math.nan)


@pytest.mark.parametrize("value", [math.inf, -math.inf, -1, 0])
@pytest.mark.parametrize("cls, name", CASES,
                         ids=[f"{c.__name__}.{n}" for c, n in CASES])
def test_edge_values_are_refused_or_in_range(cls, name, value):
    try:
        build(cls, name, value)
    except ValueError:
        return
    assert inside(value, *declared(cls, name))


@settings(max_examples=400, deadline=None)
@given(st.data())
def test_construction_refuses_every_value_outside_the_range(data):
    cls, name = data.draw(st.sampled_from(CASES))
    if (cls, name) in INTEGRAL:
        value = data.draw(st.integers(-10**18, 10**18))
    else:
        value = data.draw(st.floats(allow_nan=True, allow_infinity=True))
    if not inside(value, *declared(cls, name)):
        with pytest.raises(ValueError):
            build(cls, name, value)


@pytest.mark.parametrize("cls", [ChaosRunConfig, McRunConfig, ExperimentConfig],
                         ids=lambda c: c.__name__)
@pytest.mark.parametrize("limit", [math.nan, -5.0, -1.0, 0.0])
def test_runner_time_limit_is_refused_at_construction(cls, limit):
    """A NaN or negative time limit used to construct: the model checker
    then reported every client "stuck" (a false liveness witness), and a
    chaos or response-time run died mid-run scheduling into the past."""
    with pytest.raises(ValueError, match="time_limit_ms must be in"):
        cls(time_limit_ms=limit)


class TestRequire:
    @pytest.mark.parametrize("args, kwargs, message", [
        ((0,), {}, "x must be in [0, inf), got nan"),
        ((0, 1), {}, "x must be in [0, 1], got nan"),
        ((0, 1), {"lo_open": True, "hi_open": True}, "x must be in (0, 1), got nan"),
        ((0.0, math.inf), {"hi_open": False}, "x must be in [0, inf], got nan"),
        ((0.5, 2.5), {}, "x must be in [0.5, 2.5], got nan"),
    ])
    def test_message_names_the_interval(self, args, kwargs, message):
        with pytest.raises(ValueError) as err:
            require("x", math.nan, *args, **kwargs)
        assert str(err.value) == message

    @pytest.mark.parametrize("value, ok", [
        (0, False), (1e-300, True), (1, True), (1.0000001, False),
    ])
    def test_open_and_closed_ends(self, value, ok):
        if ok:
            require("x", value, 0, 1, lo_open=True)
        else:
            with pytest.raises(ValueError):
                require("x", value, 0, 1, lo_open=True)

    def test_infinity_needs_a_closed_upper_end(self):
        with pytest.raises(ValueError, match=r"\[0, inf\), got inf"):
            require("x", math.inf, 0)
        require("x", math.inf, 0, math.inf, hi_open=False)

    @pytest.mark.parametrize("value", [None, "3"])
    def test_a_non_number_is_a_value_error(self, value):
        with pytest.raises(ValueError, match=f"got {value!r}"):
            require("x", value, 0)


def test_none_passes_only_for_an_optional_field():
    @dataclasses.dataclass
    class Config:
        limit: float = bounded(1.0, 0)
        cap: Optional[int] = bounded(4, 1)

    check_bounds(Config(cap=None))
    with pytest.raises(ValueError, match="limit must be in"):
        check_bounds(Config(limit=None))
    with pytest.raises(ValueError, match="cap must be in"):
        check_bounds(Config(cap=0))
