"""Analytical models: availability (Fig 8), overhead (Fig 9), latency."""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "availability": (
        "binomial_tail", "exact_quorum_availability",
        "monte_carlo_quorum_availability", "quorum_availability",
        "majority_availability", "default_grid_shape", "dqvl_availability",
        "dqvl_system_availability", "majority_protocol_availability",
        "grid_protocol_availability", "rowa_availability",
        "rowa_async_availability", "primary_backup_availability",
        "protocol_unavailability",
    ),
    "overhead": (
        "dqvl_messages_per_request", "majority_messages_per_request",
        "grid_messages_per_request", "rowa_messages_per_request",
        "rowa_async_messages_per_request",
        "primary_backup_messages_per_request", "protocol_messages_per_request",
    ),
    "response_time": (
        "DelayParams", "expected_latency", "expected_mean_latency",
    ),
    "sizes": ("EdgeServiceSizeModel", "VALUE_BEARING_KINDS"),
})
