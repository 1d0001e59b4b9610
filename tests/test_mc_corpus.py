"""Replay every shrunk schedule repro in ``tests/mc_corpus/``.

Each corpus entry is a ddmin-minimized *scheduling* witness: a choice
list (same-instant event orderings + delivery deferrals) under which a
deliberately weakened protocol variant violates.  The contract,
re-checked here on every test run, mirrors the chaos corpus:

* replayed **weakened**, the recorded violation types reappear, and
  replaying twice is byte-identical (the explorer's determinism
  contract);
* replayed **healthy** (same schedule, same seed, weakener off), the
  run is clean — the schedule is legal behaviour, the bug lives in the
  weakened code path.
"""

import glob
import os

import pytest

from repro.mc import load_mc_repro, replay_mc_repro, run_schedule

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "mc_corpus")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))


def test_corpus_is_not_empty():
    assert CORPUS, f"no repros found in {CORPUS_DIR}"


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_weakened_replay_reproduces_violations(path):
    config, choices, expected = load_mc_repro(path)
    assert config.weaken, "corpus entries must name the weakener they expose"
    result = run_schedule(config, choices)
    observed = {v["type"] for v in result.violations}
    assert set(expected) <= observed, (
        f"{os.path.basename(path)}: expected {expected}, observed "
        f"{sorted(observed)}"
    )


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_replay_is_byte_identical(path):
    first = replay_mc_repro(path)
    second = replay_mc_repro(path)
    assert first.trace_text == second.trace_text


@pytest.mark.parametrize(
    "path", CORPUS, ids=[os.path.basename(p) for p in CORPUS]
)
def test_healthy_replay_is_clean(path):
    result = replay_mc_repro(path, healthy=True)
    assert not result.violations, (
        f"{os.path.basename(path)}: healthy replay violated: "
        f"{result.violations}"
    )
