"""Performance infrastructure: caching tiers and observability.

The optimisers re-derive per-component evaluation tables constantly — the
capacity-exploration experiments build a fresh :class:`CacheModel` for every
candidate size, and the tuple problem revisits the same (cache, grid) pair
for every budget.  :mod:`repro.perf.table_cache` memoises those tables
process-wide, keyed by a structural fingerprint of the model and the design
space, so repeated sweeps pay for each grid exactly once.

:mod:`repro.perf.disk_cache` is the persistent tier: fingerprint-keyed
JSON entries that survive the process, used by
:func:`repro.archsim.missmodel.measure_miss_model` to make re-calibration
against multi-million-access traces a file read.

:mod:`repro.perf.profile_store` combines both tiers (plus single-flight
computation) around dense per-workload (size, assoc) miss surfaces, so
every calibration grid after the first is a slice instead of a trace
pass.

:mod:`repro.perf.records` is the worker-shared record format (owner
stamp, liveness, client view, remote long-poll) behind durable jobs and
campaigns.
"""

from repro.perf.table_cache import (
    TableCacheInfo,
    cache_info,
    cached_tables,
    clear_cache,
)
from repro.perf.disk_cache import (
    DiskCache,
    DiskCacheInfo,
    default_cache_dir,
    disk_cache_info,
    make_fingerprint,
    reset_disk_cache_stats,
)
from repro.perf.profile_store import (
    MissSurface,
    ProfileStore,
    ProfileStoreInfo,
    clear_profile_stores,
    get_store,
    profile_store_info,
    reset_profile_store_stats,
)

__all__ = [
    "TableCacheInfo",
    "cache_info",
    "cached_tables",
    "clear_cache",
    "DiskCache",
    "DiskCacheInfo",
    "default_cache_dir",
    "disk_cache_info",
    "make_fingerprint",
    "reset_disk_cache_stats",
    "MissSurface",
    "ProfileStore",
    "ProfileStoreInfo",
    "clear_profile_stores",
    "get_store",
    "profile_store_info",
    "reset_profile_store_stats",
]
