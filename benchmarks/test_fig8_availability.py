"""Figure 8 — system unavailability (Section 4.2, analytical).

Panel (a): unavailability (log scale) vs. write ratio at n = 15
replicas, per-node unavailability p = 0.01.

Panel (b): unavailability vs. number of replicas at a 25 % write ratio.

Expected shape:

* **DQVL tracks the majority quorum** across both sweeps — the paper's
  key availability result;
* ROWA's availability collapses as writes appear (write-all);
* ROWA-Async with stale reads allowed is near-perfect; with stale reads
  rejected (the fair comparison) it is orders of magnitude *worse* than
  the quorum protocols;
* quorum protocols improve with the replica count; ROWA and the
  no-stale ROWA-Async do not.

A Monte-Carlo simulation cross-check validates the closed forms at one
parameter point (sampling cannot reach 1e-8, so the check uses a large
p where both are measurable).
"""

import pytest

from repro.analysis import monte_carlo_quorum_availability, protocol_unavailability
from repro.harness import format_series, log_axis_note
from repro.quorum import QuorumSpec

P = 0.01
PROTOCOLS = [
    "dqvl",
    "majority",
    "grid",
    "rowa",
    "rowa_async",
    "rowa_async_no_stale",
    "primary_backup",
]


def test_fig8a_unavailability_vs_write_ratio(benchmark, emit):
    """Figure 8(a): unavailability vs. write ratio, n = 15, p = 0.01."""
    ratios = [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0]

    def experiment():
        return {
            p: [protocol_unavailability(p, w, 15, P) for w in ratios]
            for p in PROTOCOLS
        }

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)
    note = log_axis_note([u for series in table.values() for u in series])
    emit(
        "fig8a_unavailability_vs_write_ratio",
        format_series(
            "write_ratio", ratios, [(p, table[p]) for p in PROTOCOLS],
            title=f"Fig 8(a): unavailability, n=15, p=0.01 {note}",
        ),
    )

    dqvl, majority = table["dqvl"], table["majority"]
    # DQVL tracks majority within a small factor at every write ratio.
    for dq, mj in zip(dqvl, majority):
        assert dq <= 2 * mj + 1e-15 and dq >= 0.4 * mj - 1e-15
    # ROWA collapses under writes; fine for reads.
    assert table["rowa"][0] < 1e-20
    assert table["rowa"][-1] > 0.1
    # ROWA-Async (stale OK) is near-perfect; the no-stale variant is
    # orders of magnitude worse than the quorum protocols.
    assert max(table["rowa_async"]) < 1e-20
    assert table["rowa_async_no_stale"][1] > 1e3 * majority[1]
    # primary/backup is pinned at ~p.
    assert table["primary_backup"][0] == pytest.approx(P, rel=1e-6)


def test_fig8b_unavailability_vs_replicas(benchmark, emit):
    """Figure 8(b): unavailability vs. replica count, w = 0.25."""
    sizes = [3, 5, 7, 9, 11, 15, 19, 21]
    w = 0.25

    def experiment():
        return {
            p: [protocol_unavailability(p, w, n, P) for n in sizes]
            for p in PROTOCOLS
        }

    table = benchmark.pedantic(experiment, rounds=1, iterations=1)
    note = log_axis_note([u for series in table.values() for u in series])
    emit(
        "fig8b_unavailability_vs_replicas",
        format_series(
            "replicas", sizes, [(p, table[p]) for p in PROTOCOLS],
            title=f"Fig 8(b): unavailability, w=0.25, p=0.01 {note}",
        ),
    )

    dqvl, majority = table["dqvl"], table["majority"]
    # DQVL ~ majority at every size.
    for dq, mj in zip(dqvl, majority):
        assert dq <= 2 * mj + 1e-15
    # Quorum protocols improve (strictly) with more replicas...
    assert all(a > b for a, b in zip(majority, majority[1:]))
    assert all(a > b for a, b in zip(dqvl, dqvl[1:]))
    # ...while ROWA gets *worse* with more replicas (write-all) and the
    # no-stale ROWA-Async stays flat.
    assert all(a <= b for a, b in zip(table["rowa"], table["rowa"][1:]))
    flat = table["rowa_async_no_stale"]
    assert max(flat) - min(flat) < 0.05 * max(flat)


def test_fig8_measured_availability_cross_check(benchmark, emit):
    """End-to-end measured availability on the simulator (Bernoulli
    per-epoch outages, open-loop clients, bounded retries) vs. the
    analytic model — at p = 0.15 where rejections are measurable.

    Includes the effect the analytic model cannot show: DQVL's measured
    availability *beats* its pessimistic formula because valid volume
    leases mask failures shorter than the lease (the paper's remark in
    Section 4.2).
    """
    from repro.harness.availability import AvailabilitySimConfig, run_availability_sim

    p_meas = 0.15
    n, w = 5, 0.25
    protocols = ["dqvl", "majority", "rowa", "primary_backup",
                 "rowa_async", "rowa_async_no_stale"]

    def experiment():
        rows = []
        for name in protocols:
            res = run_availability_sim(
                AvailabilitySimConfig(
                    protocol=name, write_ratio=w, num_replicas=n,
                    p=p_meas, epochs=200, seed=3,
                )
            )
            analytic = protocol_unavailability(name, w, n, p_meas)
            rows.append([name, res.unavailability, analytic])
        return rows

    rows = benchmark.pedantic(experiment, rounds=1, iterations=1)
    from repro.harness import format_table

    emit(
        "fig8_measured_availability",
        format_table(
            ["protocol", "measured unavail", "analytic unavail"],
            rows,
            title=f"Fig 8 cross-check: measured vs analytic (n={n}, w={w}, p={p_meas})",
        ),
    )
    measured = {name: m for name, m, _a in rows}
    analytic = {name: a for name, _m, a in rows}
    # DQVL tracks majority and beats its own pessimistic bound.
    assert measured["dqvl"] == pytest.approx(measured["majority"], abs=0.03)
    assert measured["dqvl"] <= analytic["dqvl"] * 1.5
    # ROWA and primary/backup are far less available than the quorums.
    assert measured["rowa"] > 2 * measured["majority"]
    assert measured["primary_backup"] > 2 * measured["majority"]
    # The no-stale accounting costs ROWA-Async heavily.
    assert measured["rowa_async_no_stale"] > 3 * measured["rowa_async"]


def test_fig8_monte_carlo_cross_check(benchmark, emit):
    """Closed forms vs. Monte Carlo at a measurable parameter point."""
    p_big = 0.2
    n = 9

    def experiment():
        system = QuorumSpec.parse("majority").build([f"n{i}" for i in range(n)])
        mc = 1.0 - monte_carlo_quorum_availability(
            system.nodes, system.is_read_quorum, p_big, trials=100_000, seed=5
        )
        analytic = protocol_unavailability("majority", 0.5, n, p_big)
        return mc, analytic

    mc, analytic = benchmark.pedantic(experiment, rounds=1, iterations=1)
    emit(
        "fig8_monte_carlo_cross_check",
        f"majority n={n} p={p_big}: analytic={analytic:.6f} monte_carlo={mc:.6f}",
    )
    assert mc == pytest.approx(analytic, rel=0.05)
