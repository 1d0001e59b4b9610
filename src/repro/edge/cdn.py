"""The edge-CDN scenario family: multi-region PoPs, aggregate users.

The paper's north star is "edge services serving millions of users";
its prototype experiment drives each edge server with a handful of
closed-loop clients.  This module closes that gap with scenarios built
from three scalable pieces:

* a **multi-PoP topology** — ``regions × pops_per_region`` edge servers
  over :class:`~repro.edge.topology.EdgeTopology`, PoPs within a region
  at metro delay and regions at WAN delay;
* **aggregate client populations**
  (:mod:`repro.workload.population`) — one open-loop arrival process
  per region (Poisson or MMPP, modulated by diurnal / flash-crowd
  profiles) feeding a bounded issuer pool per PoP through a front-end
  load balancer, so a million modeled users costs thousands of kernel
  events per simulated second;
* a **scalable key universe** — Zipf object popularity over a lazily
  generated population of ``num_objects`` keys spread across
  ``num_volumes`` volumes (DQVL-family protocols lease per volume).

Determinism: every random draw comes from dedicated string-seeded
streams (``cdn-arrivals:{seed}:r{r}``, ``cdn-ops:{seed}:r{r}``), the
dispatcher and the pools are FIFO, and :meth:`CdnResult.to_json` is a
canonical serialisation — a same-seed double run is byte-identical,
which the CI smoke locks in.
"""

from __future__ import annotations

import dataclasses
import json
import math
import random
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Any, Dict, List, Optional

from ..consistency.history import History
from ..sim.kernel import Simulator
from ..workload.generators import BernoulliOpStream, KeyUniverse, ZipfKeyChooser
from ..workload.population import (
    ArrivalProcess,
    CompositeProfile,
    DiurnalProfile,
    FlashCrowdProfile,
    IssuerPool,
    MmppArrivals,
    PoissonArrivals,
    PopulationStats,
    RateProfile,
    drive_population,
    pick_least_loaded,
    pick_round_robin,
)
from ..harness.metrics import HistorySummary, summarize
from .deployments import PROTOCOL_DEPLOYERS, Deployment, check_dq_fields, deploy
from .frontend import AppClient, LocalityRedirection
from .topology import EdgeTopology, EdgeTopologyConfig

if TYPE_CHECKING:  # the obs layer loads only in traced runs
    from ..obs import Observability

__all__ = ["CdnScenarioConfig", "CdnResult", "run_cdn"]

_BALANCERS = {
    "round_robin": pick_round_robin,
    "least_loaded": pick_least_loaded,
}

#: simulated time allowed past the horizon for queued work to drain
DRAIN_MS = 30_000.0


@dataclass
class CdnScenarioConfig:
    """One edge-CDN scenario (population model + topology + protocol).

    ``users`` is the number of *modeled* users; each issues
    ``ops_per_user_per_s`` requests per second, and only the product
    (the aggregate arrival rate) affects simulation cost.  The
    population is split evenly across regions.
    """

    protocol: str = "dqvl"
    seed: int = 0
    # -- geometry --------------------------------------------------------
    regions: int = 2
    pops_per_region: int = 2
    jitter_ms: float = 0.0
    # -- population ------------------------------------------------------
    users: int = 100_000
    ops_per_user_per_s: float = 0.01
    write_ratio: float = 0.05
    #: arrival model: "poisson" | "mmpp" (:class:`MmppArrivals`' defaults)
    arrivals: str = "poisson"
    #: sinusoidal day/night swing (0 = off) and its compressed period
    diurnal_amplitude: float = 0.0
    diurnal_period_ms: float = 60_000.0
    #: flash crowd (None = off) hitting every region simultaneously
    flash_start_ms: Optional[float] = None
    flash_peak_multiplier: float = 5.0
    flash_ramp_ms: float = 500.0
    flash_hold_ms: float = 1_000.0
    flash_decay_ms: float = 1_000.0
    # -- content ---------------------------------------------------------
    num_objects: int = 100_000
    num_volumes: int = 1_000
    zipf_s: float = 0.9
    # -- service capacity ------------------------------------------------
    issuers_per_pop: int = 8
    queue_limit: int = 256
    #: per-PoP front-end admission cap (None = unthrottled)
    fe_max_inflight: Optional[int] = None
    balance: str = "least_loaded"
    # -- horizon ---------------------------------------------------------
    horizon_ms: float = 2_000.0
    # -- quorum shapes (dual-quorum protocols; None = the paper's) --------
    iqs_spec: Optional[str] = None
    oqs_spec: Optional[str] = None
    # -- instrumentation -------------------------------------------------
    trace: bool = False

    def __post_init__(self) -> None:
        if self.protocol not in PROTOCOL_DEPLOYERS:
            raise KeyError(
                f"unknown protocol {self.protocol!r}; "
                f"choose from {sorted(PROTOCOL_DEPLOYERS)}"
            )
        check_dq_fields(self, "iqs_spec", "oqs_spec")
        if self.regions < 1 or self.pops_per_region < 1:
            raise ValueError("need at least one region and one PoP per region")
        if self.users < 1:
            raise ValueError("population must have at least one user")
        if not 0 < self.ops_per_user_per_s < math.inf:
            raise ValueError("per-user rate must be positive and finite")
        if self.arrivals not in ("poisson", "mmpp"):
            raise ValueError("arrivals must be 'poisson' or 'mmpp'")
        if self.balance not in _BALANCERS:
            raise ValueError(f"balance must be one of {sorted(_BALANCERS)}")
        if self.num_objects < 1 or self.num_volumes < 1:
            raise ValueError("need at least one object and one volume")
        if not self.zipf_s >= 0:
            raise ValueError("zipf exponent must be non-negative")
        _build_profile(self)  # the profiles reject bad diurnal and flash fields
        if self.issuers_per_pop < 1:
            raise ValueError("need at least one issuer per PoP")
        if self.fe_max_inflight is not None and self.fe_max_inflight < 1:
            raise ValueError("fe_max_inflight must be at least 1")
        if not 0 < self.horizon_ms < math.inf:
            raise ValueError("horizon must be positive and finite")

    @property
    def num_pops(self) -> int:
        return self.regions * self.pops_per_region

    def region_users(self, r: int) -> int:
        """Modeled users homed in region *r* (even split, remainder to
        the lowest-numbered regions)."""
        base, extra = divmod(self.users, self.regions)
        return base + (1 if r < extra else 0)


@dataclass
class CdnResult:
    """Outcome of one CDN scenario run.

    A sweep point is this result without its world: ``history``,
    ``deployment`` and ``obs`` are ``None`` there, and ``extras`` holds
    what the sweep's ``collect`` hook read off them.
    """

    config: CdnScenarioConfig
    summary: HistorySummary
    #: merged population counters across regions
    stats: PopulationStats
    #: per-region population counters, region order
    region_stats: List[PopulationStats]
    #: front-end counters summed over PoPs
    fe_counters: Dict[str, int]
    events_processed: int
    sim_time_ms: float
    history: Optional[History] = None
    deployment: Optional[Deployment] = None
    obs: Optional[Observability] = None
    #: phase-budget table (PR-8 attribution), present when trace was on
    budget: Optional[Dict[str, Any]] = None
    extras: Dict[str, Any] = field(default_factory=dict)

    @property
    def events_per_arrival(self) -> float:
        return self.events_processed / self.stats.arrivals if self.stats.arrivals else 0.0

    def to_json_obj(self) -> Dict[str, Any]:
        """Canonical reduced form (no sim objects): the byte-compare
        payload."""
        return {
            "config": dataclasses.asdict(self.config),
            "summary": dataclasses.asdict(self.summary),
            "stats": self.stats.to_json_obj(),
            "region_stats": [s.to_json_obj() for s in self.region_stats],
            "fe_counters": {k: self.fe_counters[k] for k in sorted(self.fe_counters)},
            "events_processed": self.events_processed,
            "sim_time_ms": self.sim_time_ms,
            "budget": self.budget,
        }

    def to_json(self) -> str:
        return json.dumps(self.to_json_obj(), sort_keys=True,
                          separators=(",", ":"), default=repr) + "\n"


def _build_profile(config: CdnScenarioConfig) -> Optional[RateProfile]:
    parts: List[RateProfile] = []
    if config.diurnal_amplitude != 0:
        parts.append(DiurnalProfile(
            period_ms=config.diurnal_period_ms,
            amplitude=config.diurnal_amplitude,
        ))
    if config.flash_start_ms is not None:
        parts.append(FlashCrowdProfile(
            start_ms=config.flash_start_ms,
            peak_multiplier=config.flash_peak_multiplier,
            ramp_ms=config.flash_ramp_ms,
            hold_ms=config.flash_hold_ms,
            decay_ms=config.flash_decay_ms,
        ))
    if not parts:
        return None
    if len(parts) == 1:
        return parts[0]
    return CompositeProfile(parts)


def _build_arrivals(config: CdnScenarioConfig, region: int,
                    rate_per_s: float) -> ArrivalProcess:
    rng = random.Random(f"cdn-arrivals:{config.seed}:r{region}")
    profile = _build_profile(config)
    if config.arrivals == "mmpp":
        return MmppArrivals(rng, rate_per_s, profile=profile)
    return PoissonArrivals(rng, rate_per_s, profile=profile)


def run_cdn(config: CdnScenarioConfig) -> CdnResult:
    """Execute one CDN scenario.

    Per region: one arrival process at ``region_users × rate`` drives a
    balancer over the region's PoP issuer pools; each pool's issuers are
    :class:`~repro.edge.frontend.AppClient`\\ s homed at their PoP's
    front end, so every request crosses the client↔front-end link and
    the front end's protocol service client — the full Figure 1 path at
    population scale.
    """
    sim = Simulator(seed=config.seed)
    topo_config = EdgeTopologyConfig(
        num_edges=config.num_pops,
        num_clients=config.num_pops,
        regions=config.regions,
        jitter_ms=config.jitter_ms,
    )
    topology = EdgeTopology(sim, topo_config)
    try:
        return _run_cdn(config, sim, topology)
    finally:
        sim.close()
        topology.network.close()


def _run_cdn(
    config: CdnScenarioConfig, sim: Simulator, topology: EdgeTopology
) -> CdnResult:
    deployment = deploy(
        config.protocol, topology, num_volumes=config.num_volumes,
        iqs_spec=config.iqs_spec, oqs_spec=config.oqs_spec,
    )

    obs: Optional[Observability] = None
    if config.trace:
        from ..obs import Observability, attribute_trace, latency_budget

        obs = Observability(sim).install(topology.network)

    if config.fe_max_inflight is not None:
        for fe in deployment.front_ends:
            fe.max_inflight = config.fe_max_inflight

    history = History()
    universe = KeyUniverse(config.num_objects)
    balancer = _BALANCERS[config.balance]
    region_stats: List[PopulationStats] = []
    dispatchers = []
    all_pools: List[IssuerPool] = []
    for r in range(config.regions):
        stats = PopulationStats()
        region_stats.append(stats)
        pools = []
        for i in range(config.pops_per_region):
            p = r * config.pops_per_region + i  # global PoP index
            clients = []
            for j in range(config.issuers_per_pop):
                node_id = f"cdn{p}u{j}"
                app = AppClient(
                    sim, topology.network, node_id,
                    LocalityRedirection(
                        home=deployment.front_end_ids[p],
                        all_front_ends=deployment.front_end_ids,
                        locality=1.0,
                    ),
                )
                topology.place_on_client(node_id, p)
                clients.append(app)
            pools.append(IssuerPool(
                sim, clients, history,
                queue_limit=config.queue_limit,
                name=f"pop{p}", stats=stats,
            ))
        all_pools.extend(pools)
        rate_per_s = config.region_users(r) * config.ops_per_user_per_s
        arrivals = _build_arrivals(config, r, rate_per_s)
        stream = BernoulliOpStream(
            random.Random(f"cdn-ops:{config.seed}:r{r}"),
            ZipfKeyChooser(universe, s=config.zipf_s),
            config.write_ratio,
            label=f"r{r}-",
        )
        dispatchers.append(sim.spawn(
            drive_population(
                sim, arrivals, stream, pools, config.horizon_ms,
                balancer=balancer,
            ),
            name=f"region{r}",
        ))

    # Warm volumes keep renewing their leases, so the queue never drains
    # and the run must be bounded; the horizon stops new arrivals and
    # DRAIN_MS bounds how long queued work may take to finish.  Drain
    # in slices and stop at the first quiet point so a long drain
    # allowance costs nothing when queues are short.
    def _pending():
        return [d for d in dispatchers if not d.done] + [
            proc for pool in all_pools for proc in pool.processes if not proc.done
        ]

    deadline = config.horizon_ms + DRAIN_MS
    sim.run(until=config.horizon_ms)
    while _pending() and sim.now < deadline:
        sim.run(until=min(sim.now + 500.0, deadline))
    unfinished = _pending()
    if unfinished:
        names = ", ".join(proc.name for proc in unfinished[:5])
        raise RuntimeError(
            f"cdn scenario hit the time limit with work pending ({names}); "
            "lower the arrival rate or raise the service capacity"
        )

    budget: Optional[Dict[str, Any]] = None
    if obs is not None:
        obs.finalize(topology.network, deployment)
        budget = latency_budget(attribute_trace(obs.tracer)).to_json_obj()

    merged = PopulationStats()
    for stats in region_stats:
        merged = merged.merged(stats)
    fe_counters = {
        "requests_served": sum(fe.requests_served for fe in deployment.front_ends),
        "requests_failed": sum(fe.requests_failed for fe in deployment.front_ends),
        "writes_shed": sum(fe.writes_shed for fe in deployment.front_ends),
        "reads_throttled": sum(fe.reads_throttled for fe in deployment.front_ends),
        "degraded_reads": sum(fe.degraded_reads for fe in deployment.front_ends),
    }
    return CdnResult(
        config=config,
        summary=summarize(history),
        stats=merged,
        region_stats=region_stats,
        fe_counters=fe_counters,
        events_processed=sim.events_processed,
        sim_time_ms=sim.now,
        history=history,
        deployment=deployment,
        obs=obs,
        budget=budget,
    )
