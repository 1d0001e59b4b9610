"""Figure 6 — response time vs. write rate (Section 4.1).

Panel (a): per-protocol read/write/overall response time at the paper's
target 5 % write ratio (the TPC-W profile-object update rate), full
access locality.

Panel (b): sensitivity of the overall response time to the write ratio.

Expected shape (the paper's findings):

* DQVL's read time is within a small factor of ROWA / ROWA-Async
  (local reads) and **at least 6x better** than primary/backup and
  majority quorum;
* as writes dominate, DQVL's overall response time approaches the
  majority quorum's (both pay two client-WAN rounds per write) and
  exceeds primary/backup and ROWA (one round each).
"""

import dataclasses

import pytest

from repro.harness import ExperimentConfig, format_series, format_table, run_sweep
from repro.harness.experiment import run_response_time
from repro.obs import format_budget

PROTOCOLS = ["dqvl", "majority", "primary_backup", "rowa", "rowa_async"]
OPS = 150
WARMUP = 10
SEED = 2005


def _config(protocol: str, write_ratio: float, locality: float = 1.0):
    return ExperimentConfig(
        protocol=protocol,
        write_ratio=write_ratio,
        locality=locality,
        ops_per_client=OPS,
        warmup_ops=WARMUP,
        seed=SEED,
    )


def _traced_budget(config: ExperimentConfig):
    """One traced run's latency budget.  Traced runs bypass the sweep
    runner: the span tracer does not survive the result-reduction
    boundary."""
    result = run_response_time(dataclasses.replace(config, trace=True))
    assert result.obs is not None
    return result.obs.latency_budget()


def test_fig6a_write_rate_5pct(benchmark, emit):
    """Figure 6(a): response times at the 5 % write rate."""

    def experiment():
        points = run_sweep([_config(p, 0.05) for p in PROTOCOLS])
        return dict(zip(PROTOCOLS, points))

    results = benchmark.pedantic(experiment, rounds=1, iterations=1)

    rows = []
    for name, res in results.items():
        s = res.summary
        rows.append(
            [name, s.overall.mean, s.reads.mean, s.writes.mean,
             s.read_hit_rate if s.read_hit_rate is not None else "-"]
        )
    emit(
        "fig6a_response_time_w005",
        format_table(
            ["protocol", "overall ms", "read ms", "write ms", "hit rate"],
            rows,
            title="Fig 6(a): response time at write ratio 0.05, locality 1.0",
        ),
    )

    dqvl = results["dqvl"].summary
    majority = results["majority"].summary
    pb = results["primary_backup"].summary
    rowa = results["rowa"].summary
    rowa_async = results["rowa_async"].summary

    # The paper's headline: >= 6x read improvement over the strong
    # baselines.  DQVL's read distribution is bimodal (LAN hits, rare
    # renewal misses), so the common-case comparison uses the median;
    # the mean still shows a large factor.
    assert majority.reads.median >= 6.0 * dqvl.reads.median
    assert pb.reads.median >= 6.0 * dqvl.reads.median
    assert majority.reads.mean >= 4.0 * dqvl.reads.mean
    assert pb.reads.mean >= 3.0 * dqvl.reads.mean
    # ... and read time comparable to the ROWA family.
    assert dqvl.reads.mean <= 2.0 * rowa.reads.mean
    assert dqvl.reads.mean <= 2.0 * rowa_async.reads.mean
    # Overall at 5% writes: DQVL beats the strong baselines.
    assert dqvl.overall.mean < majority.overall.mean
    assert dqvl.overall.mean < pb.overall.mean


def test_fig6b_write_rate_sweep(benchmark, emit):
    """Figure 6(b): overall response time vs. write ratio."""
    ratios = [0.0, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0]

    def experiment():
        points = iter(run_sweep(
            [_config(p, w) for p in PROTOCOLS for w in ratios]
        ))
        return {
            p: [next(points).summary.overall.mean for _ in ratios]
            for p in PROTOCOLS
        }

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "fig6b_write_rate_sweep",
        format_series(
            "write_ratio",
            ratios,
            [(p, table[p]) for p in PROTOCOLS],
            title="Fig 6(b): overall response time (ms) vs write ratio",
        ),
    )

    dqvl, majority = table["dqvl"], table["majority"]
    pb, rowa = table["primary_backup"], table["rowa"]
    # Read-dominated end: DQVL far below majority and primary/backup.
    assert dqvl[0] < majority[0] / 4
    assert dqvl[0] < pb[0] / 4
    # Write-dominated end: DQVL approaches majority (same two-round
    # write path) and exceeds primary/backup and ROWA (one round each).
    assert dqvl[-1] == pytest.approx(majority[-1], rel=0.15)
    assert dqvl[-1] > pb[-1]
    assert dqvl[-1] > rowa[-1]
    # DQVL response time trends upward with the write ratio.  Small dips
    # are legitimate: at high write ratios consecutive writes suppress
    # invalidations, cutting the per-write cost from three rounds to two.
    assert dqvl[0] < dqvl[-1]
    assert all(a <= b + 40.0 for a, b in zip(dqvl, dqvl[1:]))


def test_fig6_phase_budget(emit):
    """Latency budget decomposition of the Fig 6(a) scenario.

    The paper's local-read story as a measured decomposition: DQVL
    local-hit reads carry ~zero quorum straggler wait (one LAN round
    trip, no stragglers), while writes and renewal misses pay the
    quorum cost.
    """
    budgets = {p: _traced_budget(_config(p, 0.05)) for p in ("dqvl", "majority")}

    emit(
        "fig6_phase_budget",
        "".join(
            format_budget(
                budgets[p],
                title=f"Fig 6 latency budget — {p} (write ratio 0.05)",
            )
            for p in budgets
        ),
    )

    dqvl = budgets["dqvl"].groups
    hits = dqvl["read[hit]"]
    writes = dqvl["write"]
    # Local hits: pure network, no straggler wait, no lease detour.
    assert hits["quorum_wait"].mean < 1.0
    assert hits["lease"].mean < 1.0
    # Writes pay the quorum cost (two IQS rounds + invalidation waits).
    assert writes["quorum_wait"].mean > 10.0 * max(hits["quorum_wait"].mean, 0.1)
    # Renewal misses, when present, carry the lease detour.
    misses = dqvl.get("read[miss]")
    if misses is not None and misses["total"].count:
        assert misses["lease"].mean + misses["quorum_wait"].mean > 1.0
    # Conservation holds group by group: phase means sum to the total mean.
    for group, phases in dqvl.items():
        phase_sum = sum(
            h.mean for name, h in phases.items() if name != "total"
        )
        assert phase_sum == pytest.approx(phases["total"].mean, abs=1e-6), group


def test_why_canonical_budget(emit):
    """The two canonical attribution runs, pinned as a budget table.

    Seed 0, write ratio 0.2, 2 clients x 40 ops on 3 edges, full
    locality, traced; each block is the budget that ``repro why
    --protocol P --seed 0 --ops 40 --clients 2 --edges 3`` prints.
    Everything is simulated time, so the table is a function of the
    code alone: a phase that moves by 0.0005 ms or more, appears, or
    vanishes changes the committed file.
    """
    budgets = {
        p: _traced_budget(ExperimentConfig(
            protocol=p, seed=0, write_ratio=0.2, ops_per_client=40,
            num_clients=2, num_edges=3, locality=1.0,
        ))
        for p in ("dqvl", "majority")
    }

    emit(
        "why_canonical_budget",
        "".join(
            format_budget(
                budgets[p],
                title=f"why canonical budget — {p} (seed 0, write ratio 0.2)",
            )
            for p in budgets
        ),
    )

    dqvl = budgets["dqvl"].groups
    # A hit is one LAN round trip; a miss pays the lease detour.
    assert dqvl["read[hit]"]["quorum_wait"].sum == 0.0
    assert dqvl["read[miss]"]["lease"].mean > 0.0
    # Every majority read waits on a WAN quorum.
    majority_reads = budgets["majority"].groups["read"]
    assert majority_reads["quorum_wait"].mean > dqvl["read[hit]"]["total"].mean
