"""The benchmark's seam: the names ``bench/probe.py`` wraps are the ones
the runners call.

The probe times deployment, summarising and checking by replacing
``PROTOCOL_DEPLOYERS`` entries and the ``summarize``/``check_regular``
globals of the runner modules, and counts QRPC rounds and model-checker
decisions the same way.  A runner that stops reading one of those names
at run time silently zeroes a benchmark metric, so one tiny run of each
workload entry point must move every counter.  The probe runs in a child
process, so none of its wrappers outlives the check.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import textwrap

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

CHILD = """
    import json, sys
    sys.path.insert(0, {bench!r})
    from probe import Probe

    probe = Probe()
    probe.install()
    probe.start_tracing()
    from repro.chaos.campaign import ChaosRunConfig, run_chaos
    from repro.edge.cdn import CdnScenarioConfig, run_cdn
    from repro.harness.experiment import ExperimentConfig, run_response_time
    from repro.mc import McRunConfig, explore

    run_response_time(ExperimentConfig(
        protocol="dqvl", num_clients=2, ops_per_client=5, warmup_ops=0))
    run_cdn(CdnScenarioConfig(
        protocol="dqvl", seed=3, users=200, ops_per_user_per_s=0.5,
        num_objects=100, num_volumes=8, issuers_per_pop=4, horizon_ms=400.0))
    run_chaos(ChaosRunConfig(
        protocol="dqvl", seed=1, nemeses=("crash_storm",), num_clients=2,
        ops_per_client=5))
    result = explore(McRunConfig(seed=1), strategy="dfs", budget=2, por=True,
                     shrink=False)
    probe.stop_tracing()
    print(json.dumps(dict(probe.counts, mc_runs=result.runs)))
"""


def test_every_seam_counter_moves():
    # no bytecode cache is written next to the benchmark's sources
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"),
               PYTHONDONTWRITEBYTECODE="1")
    out = subprocess.run(
        [sys.executable, "-c",
         textwrap.dedent(CHILD).format(bench=os.path.join(ROOT, "bench"))],
        capture_output=True, text=True, env=env, cwd=ROOT, timeout=300,
    )
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout.strip().splitlines()[-1])
    runs = counts["mc_runs"]
    assert runs >= 1
    # every run deploys through the registry; chaos and each mc schedule
    # check through their module's check_regular
    assert counts["deploy_calls"] == 3 + runs, counts
    assert counts["summarize_calls"] == 2, counts
    assert counts["check_calls"] == 1 + runs, counts
    for key in ("qrpc_calls", "qrpc_rounds", "mc_decisions"):
        assert counts[key] > 0, (key, counts)
