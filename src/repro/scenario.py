"""Unified scenario description shared by every runner in the repo.

Three runners grew three overlapping config dataclasses:

* :class:`~repro.harness.experiment.ExperimentConfig` — response-time
  experiments (``repro run`` / figures / sweeps);
* :class:`~repro.chaos.campaign.ChaosRunConfig` — randomized fault
  campaigns (``repro chaos``);
* :class:`~repro.mc.runner.McRunConfig` — controlled-schedule model
  checking (``repro explore``).

They agree on a core of *scenario* fields (protocol, seed, topology
size, workload shape, lease parameters) and differ only in
runner-specific knobs (fault horizons, deferral quanta, warm-up ops).
:class:`ScenarioConfig` owns that shared core once, with explicit
converters — ``to_experiment()`` / ``to_chaos()`` / ``to_mc()`` — whose
keyword overrides reach every runner-specific field of the legacy
configs.  The legacy constructors keep working unchanged; internally
``McRunConfig`` now derives its validation config through this module
instead of hand-copying fields (the old private
``McRunConfig._chaos_config`` duplication).

Unset semantics
---------------
A field left at :data:`UNSET` means "use the target config's own
default", which differs per runner (e.g. ``num_edges`` defaults to 9
for experiments, 3 for chaos, 2 for mc).  ``None`` is therefore
preserved as a *real* value where the legacy configs use it (e.g.
``client_max_attempts=None`` = retry forever).
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from typing import Any, Optional

__all__ = ["UNSET", "ScenarioConfig"]


class _Unset:
    """Sentinel: 'use the target config's own default'."""

    _instance: Optional["_Unset"] = None

    def __new__(cls) -> "_Unset":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNSET"

    def __bool__(self) -> bool:
        return False


UNSET = _Unset()

#: the shared scenario fields, in declaration order
SHARED_FIELDS = (
    "protocol",
    "seed",
    "weaken",
    "num_edges",
    "num_clients",
    "ops_per_client",
    "write_ratio",
    "num_keys",
    "lease_length_ms",
    "max_drift",
    "jitter_ms",
    "client_max_attempts",
    "time_limit_ms",
)


@dataclass(frozen=True)
class ScenarioConfig:
    """The scenario core common to experiments, chaos runs, and mc runs.

    Fields with concrete defaults (``protocol``, ``seed``, ``weaken``)
    agree across all three legacy configs; everything else defaults to
    :data:`UNSET` and falls back to the target runner's own default on
    conversion.
    """

    protocol: str = "dqvl"
    seed: int = 0
    #: named bug injection from :mod:`repro.chaos.weaken` ('' = healthy)
    weaken: str = ""
    num_edges: Any = UNSET
    num_clients: Any = UNSET
    ops_per_client: Any = UNSET
    write_ratio: Any = UNSET
    num_keys: Any = UNSET
    lease_length_ms: Any = UNSET
    max_drift: Any = UNSET
    jitter_ms: Any = UNSET
    client_max_attempts: Any = UNSET
    time_limit_ms: Any = UNSET
    #: adaptive resilience layer (failure detectors, hedged QRPCs,
    #: degraded-mode front ends); chaos + experiment runners only
    resilience: Any = UNSET
    #: QRPC retransmission schedule override (DQVL-family protocols);
    #: unset = derive from the topology's delay distribution
    qrpc_initial_timeout_ms: Any = UNSET
    qrpc_max_timeout_ms: Any = UNSET
    #: declarative IQS/OQS quorum shapes (DQVL-family protocols);
    #: accepts spec strings, JSON dicts, or QuorumSpec objects and
    #: normalises to the canonical string form (e.g. ``"grid:3x3"``,
    #: ``"majority:r=2,w=4"``) so the frozen scenario stays hashable
    iqs_spec: Any = UNSET
    oqs_spec: Any = UNSET

    def __post_init__(self) -> None:
        from .quorum.spec import QuorumSpec

        for name in ("iqs_spec", "oqs_spec"):
            value = getattr(self, name)
            if value is None:
                # ``None`` is every runner config's own "default shape"
                object.__setattr__(self, name, UNSET)
            elif value is not UNSET:
                object.__setattr__(self, name, str(QuorumSpec.parse(value)))

    # -- extraction --------------------------------------------------------

    def _set_kwargs(self, *names: str) -> dict:
        """The named fields that are actually set (not UNSET)."""
        out = {}
        for name in names:
            value = getattr(self, name)
            if value is not UNSET:
                out[name] = value
        return out

    @classmethod
    def _from_obj(cls, obj: Any) -> "ScenarioConfig":
        kwargs = {}
        for f in fields(cls):
            if hasattr(obj, f.name):
                kwargs[f.name] = getattr(obj, f.name)
        return cls(**kwargs)

    @classmethod
    def from_experiment(cls, config: Any) -> "ScenarioConfig":
        """Extract the shared core of an :class:`ExperimentConfig`."""
        return cls._from_obj(config)

    @classmethod
    def from_chaos(cls, config: Any) -> "ScenarioConfig":
        """Extract the shared core of a :class:`ChaosRunConfig`."""
        return cls._from_obj(config)

    @classmethod
    def from_mc(cls, config: Any) -> "ScenarioConfig":
        """Extract the shared core of an :class:`McRunConfig`."""
        return cls._from_obj(config)

    # -- conversion --------------------------------------------------------

    def to_chaos(self, **overrides: Any):
        """Build a :class:`~repro.chaos.campaign.ChaosRunConfig`.

        Runner-specific fields (``nemeses``, ``horizon_ms``,
        ``sample_interval_ms``, ``trace``) are reachable through
        *overrides*; explicit overrides also win over scenario fields.
        """
        from .chaos.campaign import ChaosRunConfig

        kwargs = self._set_kwargs(*SHARED_FIELDS)
        kwargs.update(self._set_kwargs(
            "resilience", "qrpc_initial_timeout_ms", "qrpc_max_timeout_ms",
            "iqs_spec", "oqs_spec",
        ))
        kwargs.update(overrides)
        return ChaosRunConfig(**kwargs)

    def to_mc(self, **overrides: Any):
        """Build a :class:`~repro.mc.runner.McRunConfig`.

        Runner-specific fields (``defer_ms``, ``max_defer``) are
        reachable through *overrides*.
        """
        from .mc.runner import McRunConfig

        if (self.resilience is not UNSET and self.resilience) or any(
            getattr(self, f) is not UNSET
            for f in ("qrpc_initial_timeout_ms", "qrpc_max_timeout_ms")
        ):
            raise ValueError(
                "the model checker controls timing itself; resilience and "
                "qrpc timeout overrides do not apply — use to_chaos() / "
                "to_experiment() for those"
            )
        if self.iqs_spec is not UNSET or self.oqs_spec is not UNSET:
            raise ValueError(
                "the model checker's state space is calibrated for the "
                "default quorum shapes; iqs_spec/oqs_spec do not apply — "
                "use to_chaos() / to_experiment() for tuned shapes"
            )
        kwargs = self._set_kwargs(*SHARED_FIELDS)
        kwargs.update(overrides)
        return McRunConfig(**kwargs)

    def to_cdn(self, **overrides: Any):
        """Build a :class:`~repro.edge.cdn.CdnScenarioConfig`.

        Field mapping: ``num_keys`` becomes ``num_objects``;
        ``time_limit_ms`` becomes the arrival ``horizon_ms``; a set
        ``num_edges`` becomes a single-region topology with that many
        PoPs (pass ``regions``/``pops_per_region`` overrides for
        multi-region geometries).  ``num_clients``/``ops_per_client``
        describe closed-loop fleets and have no aggregate-population
        equivalent — they are ignored, as ``to_experiment`` ignores
        ``num_keys``.  The lease/QRPC/resilience fields map into
        ``deploy_kwargs`` for DQVL-family protocols, with the scenario's
        volume map preserved.  Every other
        :class:`CdnScenarioConfig` field (``users``, ``arrivals``,
        ``flash_start_ms``, ...) is reachable via *overrides*.
        """
        from .core.config import DqvlConfig
        from .core.volumes import HashVolumeMap
        from .edge.cdn import CdnScenarioConfig

        if self.weaken:
            raise ValueError(
                "cdn scenarios have no weakener hook; use to_chaos()/to_mc() "
                f"for weakened runs (weaken={self.weaken!r})"
            )
        kwargs = self._set_kwargs("protocol", "seed", "write_ratio", "jitter_ms")
        if self.num_keys is not UNSET:
            kwargs["num_objects"] = self.num_keys
        if self.time_limit_ms is not UNSET:
            kwargs["horizon_ms"] = self.time_limit_ms
        if self.num_edges is not UNSET and not (
            {"regions", "pops_per_region"} & overrides.keys()
        ):
            kwargs["regions"] = 1
            kwargs["pops_per_region"] = self.num_edges
        lease_kwargs = self._set_kwargs("lease_length_ms", "max_drift")
        qrpc_kwargs = self._set_kwargs(
            "qrpc_initial_timeout_ms", "qrpc_max_timeout_ms"
        )
        spec_kwargs = self._set_kwargs("iqs_spec", "oqs_spec")
        wants_resilience = self.resilience is not UNSET and bool(self.resilience)
        wants_deploy = (
            lease_kwargs or qrpc_kwargs or spec_kwargs or wants_resilience
            or self.client_max_attempts is not UNSET
        ) and "deploy_kwargs" not in overrides
        if wants_deploy:
            protocol = kwargs.get("protocol", "dqvl")
            if protocol not in ("dqvl", "basic_dq"):
                raise ValueError(
                    "lease_length_ms/max_drift/client_max_attempts/resilience"
                    "/qrpc timeouts/iqs_spec/oqs_spec only map to DQVL-family "
                    f"deployments, not {protocol!r}; pass deploy_kwargs "
                    "explicitly"
                )
            num_volumes = overrides.get(
                "num_volumes",
                CdnScenarioConfig.__dataclass_fields__["num_volumes"].default,
            )
            deploy: dict = {}
            if lease_kwargs or qrpc_kwargs:
                deploy["config"] = DqvlConfig(
                    proactive_renewal=True,
                    volume_map=HashVolumeMap(num_volumes),
                    **lease_kwargs, **qrpc_kwargs, **spec_kwargs,
                )
            else:
                # deploy-level specs keep the runner's derived defaults
                # (QRPC timeouts, volume maps) intact
                deploy.update(spec_kwargs)
            if self.client_max_attempts is not UNSET:
                deploy["client_max_attempts"] = self.client_max_attempts
            if wants_resilience:
                from .resilience import ResilienceConfig

                deploy["resilience"] = ResilienceConfig()
            kwargs["deploy_kwargs"] = deploy
        kwargs.update(overrides)
        return CdnScenarioConfig(**kwargs)

    def to_experiment(self, **overrides: Any):
        """Build an :class:`~repro.harness.experiment.ExperimentConfig`.

        Experiments have no bug-injection hook, so a set ``weaken``
        raises rather than being dropped silently.  ``num_keys`` has no
        experiment equivalent (the response-time workload derives its
        key population from locality) and is ignored.  The lease fields
        (``lease_length_ms``, ``max_drift``, ``client_max_attempts``)
        map into ``deploy_kwargs`` for the DQVL-family protocols;
        ``jitter_ms`` maps into the topology config.  Every other
        :class:`ExperimentConfig` field (``locality``, ``mode``,
        ``warmup_ops``, ``mean_write_burst``, ``think_time_ms``,
        ``trace``, ``fault_schedule``, ...) is reachable via
        *overrides*.
        """
        from .core.config import DqvlConfig
        from .edge.topology import EdgeTopologyConfig
        from .harness.experiment import ExperimentConfig

        if self.weaken:
            raise ValueError(
                "experiments have no weakener hook; use to_chaos()/to_mc() "
                f"for weakened runs (weaken={self.weaken!r})"
            )
        kwargs = self._set_kwargs(
            "protocol", "seed", "num_edges", "num_clients",
            "ops_per_client", "write_ratio", "time_limit_ms",
        )
        if self.jitter_ms is not UNSET and "topology" not in overrides:
            kwargs["topology"] = EdgeTopologyConfig(jitter_ms=self.jitter_ms)
        lease_kwargs = self._set_kwargs("lease_length_ms", "max_drift")
        qrpc_kwargs = self._set_kwargs(
            "qrpc_initial_timeout_ms", "qrpc_max_timeout_ms"
        )
        spec_kwargs = self._set_kwargs("iqs_spec", "oqs_spec")
        wants_resilience = self.resilience is not UNSET and bool(self.resilience)
        wants_deploy = (
            lease_kwargs or qrpc_kwargs or spec_kwargs or wants_resilience
            or self.client_max_attempts is not UNSET
        ) and "deploy_kwargs" not in overrides
        if wants_deploy:
            if self.protocol in ("dqvl", "basic_dq"):
                deploy: dict = {}
                if lease_kwargs or qrpc_kwargs:
                    deploy["config"] = DqvlConfig(
                        proactive_renewal=True,
                        **lease_kwargs, **qrpc_kwargs, **spec_kwargs,
                    )
                else:
                    # deploy-level specs keep the deployment's derived
                    # QRPC timeouts intact
                    deploy.update(spec_kwargs)
                if self.client_max_attempts is not UNSET:
                    deploy["client_max_attempts"] = self.client_max_attempts
                if wants_resilience:
                    from .resilience import ResilienceConfig

                    deploy["resilience"] = ResilienceConfig()
                kwargs["deploy_kwargs"] = deploy
            else:
                raise ValueError(
                    "lease_length_ms/max_drift/client_max_attempts/resilience"
                    "/qrpc timeouts/iqs_spec/oqs_spec only map to DQVL-family "
                    f"deployments, not {self.protocol!r}; pass deploy_kwargs "
                    "explicitly"
                )
        kwargs.update(overrides)
        return ExperimentConfig(**kwargs)
