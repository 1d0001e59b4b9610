"""Edge-service architecture: topology, front ends, deployments.

Models Figure 1 of the paper: application clients reach nearby front-end
edge servers, which execute service logic and act as service clients of
the replicated storage system.
"""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "topology": ("EdgeTopology", "EdgeTopologyConfig", "EdgeDelayModel"),
    "frontend": (
        "FrontEnd", "AppClient", "LocalityRedirection", "OperationFailed",
    ),
    "deployments": (
        "Deployment", "deploy_dqvl", "deploy_basic_dq", "deploy_majority",
        "deploy_primary_backup", "deploy_rowa", "deploy_rowa_async",
        "PROTOCOL_DEPLOYERS",
    ),
    "cdn": ("CdnScenarioConfig", "CdnResult", "run_cdn"),
})
