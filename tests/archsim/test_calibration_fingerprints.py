"""On-disk calibration caches stay readable: pinned fingerprints.

Measured curves (namespace ``missmodel``) and dense surfaces (namespace
``profiles``) are stored under a fingerprint of every input.  A change
to any fingerprint byte turns every existing cache entry into a silent
miss, so the literals below were computed once and must not move unless
``_CALIBRATION_FORMAT`` / ``PROFILE_STORE_FORMAT`` is bumped on purpose.
The file names pin :class:`repro.perf.DiskCache`'s key hashing too.
"""

import os

from repro.archsim.missmodel import (
    L1_GRID_KB,
    L2_GRID_KB,
    _calibration_fingerprint,
    measure_miss_model,
)
from repro.archsim.workloads import SPEC2000_LIKE, SPECWEB_LIKE, TPCC_LIKE
from repro.perf.disk_cache import DiskCache
from repro.perf.profile_store import surface_fingerprint

SPEC2000 = (
    "WorkloadSpec(name='spec2000',footprint_bytes=i16777216,"
    "hot_bytes=i2048,warm_bytes=i1572864,hot_fraction=f0.9,"
    "stream_fraction=f0.06,cold_fraction=f0.1,hot_zipf_alpha=f1.2,"
    "write_fraction=f0.3)"
)
TPCC = (
    "WorkloadSpec(name='tpcc',footprint_bytes=i67108864,hot_bytes=i3072,"
    "warm_bytes=i8388608,hot_fraction=f0.87,stream_fraction=f0.03,"
    "cold_fraction=f0.25,hot_zipf_alpha=f1.2,write_fraction=f0.3)"
)
SPECWEB = (
    "WorkloadSpec(name='specweb',footprint_bytes=i33554432,"
    "hot_bytes=i3072,warm_bytes=i3145728,hot_fraction=f0.85,"
    "stream_fraction=f0.1,cold_fraction=f0.2,hot_zipf_alpha=f1.2,"
    "write_fraction=f0.3)"
)
REFERENCES = "[i32,i2,i16],[i64,i8,i1024]"
SURFACE_AXES = (
    "[i8,i16,i32,i64,i128,i256,i512,i1024,i2048],"
    "[i128,i256,i512,i1024,i2048,i4096,i8192,i16384,i32768,i65536,"
    "i131072],[i1,i2,i4,i8,i16]"
)

#: The default grid, reference shapes only.
DEFAULT_GRID = (
    f"fp1(i9,{SPEC2000},i300000,i1,[i4,i8,i16,i32,i64],"
    f"[i128,i256,i512,i1024,i2048,i4096,i8192],{REFERENCES},'lru',"
    f"[i2],[i8])"
)
#: A small FIFO grid with associativity axes (measured below).
SMALL_GRID = (
    f"fp1(i9,{TPCC},i20000,i3,[i8,i32],[i256,i1024],{REFERENCES},"
    f"'fifo',[i1,i2,i4],[i8,i16])"
)
SMALL_GRID_FILE = "691ec11028f29439e19dcff85ca676bd.json"
#: The table-provenance LRU surface and a small one (computed below).
TABLE_SURFACE = (
    f"fp1('profile-surface',i1,{SPEC2000},'lru',i2000000,i1,"
    f"{REFERENCES},{SURFACE_AXES})"
)
SMALL_SURFACE = (
    f"fp1('profile-surface',i1,{SPECWEB},'lru',i20000,i3,"
    f"{REFERENCES},{SURFACE_AXES})"
)
SMALL_SURFACE_FILE = "be1a769b262e467e25d1726cc4821cea.json"


def _entries(directory) -> list:
    return sorted(name for name in os.listdir(directory)
                  if name.endswith(".json"))


class TestPinnedFingerprints:
    def test_default_grid(self):
        assert _calibration_fingerprint(
            SPEC2000_LIKE, 300_000, 1, L1_GRID_KB, L2_GRID_KB, "lru",
            (2,), (8,),
        ) == DEFAULT_GRID

    def test_grid_with_assoc_axes(self):
        assert _calibration_fingerprint(
            TPCC_LIKE, 20_000, 3, (8, 32), (256, 1024), "fifo",
            (1, 2, 4), (8, 16),
        ) == SMALL_GRID

    def test_surfaces(self):
        assert surface_fingerprint(
            SPEC2000_LIKE, "lru", 2_000_000, 1
        ) == TABLE_SURFACE
        assert surface_fingerprint(
            SPECWEB_LIKE, "lru", 20_000, 3
        ) == SMALL_SURFACE


class TestStoredUnderPinnedKeys:
    def test_measured_grid(self, tmp_path):
        """The axes arrive unsorted and without the reference; the key
        is the measured (sorted, reference-included) one."""
        model = measure_miss_model(
            TPCC_LIKE, n_accesses=20_000, seed=3, l1_grid_kb=(8, 32),
            l2_grid_kb=(256, 1024), cache_dir=tmp_path, policy="fifo",
            l1_assocs=(4, 1), l2_assocs=(16,), profile_store="off",
        )
        assert _entries(tmp_path / "missmodel") == [SMALL_GRID_FILE]
        stored = DiskCache("missmodel", directory=tmp_path).load(SMALL_GRID)
        assert stored["workload"] == model.workload

    def test_dense_surface(self, tmp_path):
        measure_miss_model(
            SPECWEB_LIKE, n_accesses=20_000, seed=3, cache_dir=tmp_path,
            use_disk_cache=False, profile_store="always",
        )
        assert _entries(tmp_path / "profiles") == [SMALL_SURFACE_FILE]
        stored = DiskCache("profiles", directory=tmp_path).load(
            SMALL_SURFACE
        )
        assert stored["workload"] == "specweb"
