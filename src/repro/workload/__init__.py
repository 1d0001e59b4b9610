"""Workload generation and execution."""

from .._lazy import lazy_exports

lazy_exports(globals(), {
    "generators": (
        "OpSpec", "KeyChooser", "FixedKeyChooser", "UniformKeyChooser",
        "ZipfKeyChooser", "PartitionedKeyChooser", "LazyKeys", "KeyUniverse",
        "BernoulliOpStream", "MarkovBurstStream",
    ),
    "runner": ("closed_loop",),
    "population": (
        "RateProfile", "ConstantProfile", "DiurnalProfile", "FlashCrowdProfile",
        "CompositeProfile", "PoissonArrivals", "MmppArrivals",
        "PopulationStats", "IssuerPool", "drive_population", "pick_round_robin",
        "pick_least_loaded", "spawn_per_user_clients",
    ),
    "tpcw": (
        "TPCW_WRITE_RATIO", "profile_key", "profile_keys", "tpcw_profile_stream",
    ),
})
