"""Start-up: a process imports only the layers it runs (DESIGN.md §4).

Every check runs in a fresh interpreter, since what an import loads
depends on what the process has loaded before.  Package ``__init__``s
export lazily (``repro._lazy``), cold layers are imported where they
are used, and no ``repro`` module is first imported inside a run: a
module a workload uses is loaded before its first ``Simulator.run``, so
import cost never lands in a timed region.  No entry point loads
``hashlib``, and so OpenSSL: a run that hashes objects to volumes (the
CDN) takes md5 from the built-in ``_md5``, at deploy time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

import pytest

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")


def _run(code: str) -> object:
    """Run *code* in a clean interpreter; return the JSON it prints last."""
    env = dict(os.environ, PYTHONPATH=SRC)
    out = subprocess.run(
        [sys.executable, "-c", textwrap.dedent(code)],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return json.loads(out.stdout.strip().splitlines()[-1])


def _loaded_by(statement: str) -> list:
    return _run(f"""
        import json, sys
        {statement}
        print(json.dumps(sorted(m for m in sys.modules if m.split(".")[0] == "repro")))
    """)


def _under(modules: list, *prefixes: str) -> list:
    return [m for m in modules if any(m == p or m.startswith(p + ".") for p in prefixes)]


def test_experiment_import_budget():
    modules = _loaded_by("import repro.harness.experiment")
    assert len(modules) <= 36, modules
    assert _under(modules, *(f"repro.{p}" for p in (
        "core", "chaos", "obs", "mc", "tune", "analysis", "apps"))) == []
    cold = {f"repro.harness.{m}" for m in (
        "availability", "sweeps", "report", "figures")}
    cold |= {f"repro.workload.{m}" for m in ("population", "tpcw")}
    assert cold.isdisjoint(modules), sorted(cold & set(modules))


def test_cli_import_loads_no_cold_layer():
    modules = _loaded_by("import repro.cli")
    assert _under(modules, *(f"repro.{p}" for p in (
        "core", "chaos", "obs", "mc", "tune"))) == []


# -- no late imports --------------------------------------------------------------

#: each workload entry point, imported as the benchmark's workloads import
#: it, then run tiny; the result is used the way a workload uses it
ENTRY_POINTS = {
    "run_response_time[majority]": """
        from repro.consistency.regular import check_regular
        from repro.harness.experiment import ExperimentConfig, run_response_time
        result = run_response_time(ExperimentConfig(
            protocol="majority", num_clients=2, ops_per_client=5, warmup_ops=0))
        check_regular(result.history)
    """,
    "run_response_time[dqvl]": """
        from repro.consistency.regular import check_regular
        from repro.harness.experiment import ExperimentConfig, run_response_time
        result = run_response_time(ExperimentConfig(
            protocol="dqvl", num_clients=2, ops_per_client=5, warmup_ops=0))
        check_regular(result.history)
    """,
    "run_cdn": """
        from repro.consistency.regular import check_regular
        from repro.edge.cdn import CdnScenarioConfig, run_cdn
        result = run_cdn(CdnScenarioConfig(
            protocol="dqvl", seed=3, users=200, ops_per_user_per_s=0.5,
            num_objects=100, num_volumes=8, issuers_per_pop=4,
            horizon_ms=400.0, flash_start_ms=100.0))
        check_regular(result.history)
    """,
    "run_chaos": """
        from repro.chaos.campaign import ChaosRunConfig, run_chaos
        run_chaos(ChaosRunConfig(
            protocol="dqvl", seed=1, nemeses=("crash_storm",), num_edges=3,
            num_clients=2, ops_per_client=5, mode="frontend", resilience=True))
    """,
    "explore": """
        from repro.mc import McRunConfig, explore
        explore(McRunConfig(seed=1), strategy="dfs", budget=2, por=True,
                shrink=False)
    """,
}


@pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
def test_no_module_is_first_imported_inside_a_run(entry):
    body = textwrap.indent(textwrap.dedent(ENTRY_POINTS[entry]), " " * 8)
    at_first_run, at_end = _run(f"""
        import json, sys
        from repro.sim.kernel import Simulator

        def loaded():
            return sorted(m for m in sys.modules
                          if m.split(".")[0] in ("repro", "hashlib", "_hashlib", "_md5"))

        first = []
        run = Simulator.run

        def spy(self, *args, **kwargs):
            if not first:
                first.append(loaded())
            return run(self, *args, **kwargs)

        Simulator.run = spy
{body}
        print(json.dumps([first[0], loaded()]))
    """)
    assert sorted(set(at_end) - set(at_first_run)) == []
    assert {"hashlib", "_hashlib"} & set(at_end) == set()
    if entry == "run_cdn":
        assert "_md5" in at_first_run


#: ``pickle.dumps(HashVolumeMap(128), protocol=4).hex()``, recorded while
#: ``core/volumes.py`` still imported ``hashlib`` at module top
PICKLED_MAP = (
    "8004954f000000000000008c12726570726f2e636f72652e766f6c756d6573948c0d4861736856"
    "6f6c756d654d61709493942981947d94288c0b6e756d5f766f6c756d6573944b808c067072656669"
    "78948c03766f6c9475622e"
)


def test_hashed_volume_map_is_unchanged():
    """``hashlib`` moved from import time to construction: every md5
    bucket and the pickled map stay as they were, and an unpickled map
    hashes in a process that never built one."""
    assert _run("""
        import json, pickle, sys
        from repro.core.volumes import HashVolumeMap
        keys = ["obj:00000000", "obj:00000001", "obj:00099999", "x"]
        before = "hashlib" in sys.modules
        maps = [HashVolumeMap(128), HashVolumeMap(1000)]
        print(json.dumps([before, pickle.dumps(maps[0], protocol=4).hex()]
                         + [[m.volume_of(k) for k in keys] for m in maps]))
    """) == [False, PICKLED_MAP, ["vol12", "vol53", "vol33", "vol97"],
             ["vol204", "vol269", "vol353", "vol9"]]
    assert _run(f"""
        import json, pickle
        print(json.dumps(pickle.loads(bytes.fromhex("{PICKLED_MAP}")).volume_of("x")))
    """) == "vol97"


def test_hashlib_fallback_gives_the_same_map():
    """On a CPython built without ``_md5`` the map falls back to
    ``hashlib``: the same buckets and the same pickle."""
    assert _run("""
        import json, pickle, sys
        sys.modules["_md5"] = None
        from repro.core.volumes import HashVolumeMap
        keys = ["obj:00000000", "obj:00000001", "obj:00099999", "x"]
        maps = [HashVolumeMap(128), HashVolumeMap(1000)]
        print(json.dumps(["hashlib" in sys.modules, pickle.dumps(maps[0], protocol=4).hex()]
                         + [[m.volume_of(k) for k in keys] for m in maps]))
    """) == [True, PICKLED_MAP, ["vol12", "vol53", "vol33", "vol97"],
             ["vol204", "vol269", "vol353", "vol9"]]


# -- lazy exports -----------------------------------------------------------------


def test_every_exported_name_resolves():
    missing = _run("""
        import importlib, json, pkgutil
        import repro
        packages = ["repro"] + sorted(
            m.name for m in pkgutil.walk_packages(repro.__path__, "repro.") if m.ispkg)
        missing = []
        for name in packages:
            package = importlib.import_module(name)
            assert package.__all__, name
            missing += [f"{name}.{n}" for n in package.__all__ if not hasattr(package, n)]
        print(json.dumps(missing))
    """)
    assert missing == []


def test_a_lazy_name_is_bound_once_resolved():
    assert _run("""
        import json
        import repro.sim as sim
        before = "Simulator" in vars(sim)
        from repro.sim import Simulator
        print(json.dumps([before, vars(sim)["Simulator"] is Simulator,
                          "Simulator" in dir(sim), "kernel" in dir(sim)]))
    """) == [False, True, True, True]


@pytest.mark.parametrize("package, name", [("repro.mc", "explore")])
@pytest.mark.parametrize("submodule_first", [True, False])
def test_a_function_named_like_its_module_stays_callable(package, name, submodule_first):
    """``repro.mc.explore`` is a function in a submodule of the same
    name; whichever is imported first, the package attribute is the
    function."""
    first, second = f"import {package}.{name}", f"from {package} import {name}"
    if not submodule_first:
        first, second = second, first
    assert _run(f"""
        import json, sys
        {first}
        {second}
        from {package} import {name} as value
        print(json.dumps([callable(value), isinstance(sys.modules["{package}.{name}"],
                                                       type(sys))]))
    """) == [True, True]
