"""The evaluation-table cache: correctness, sharing, observability."""

import numpy as np
import pytest

from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, l1_config
from repro.optimize.single_cache import component_tables
from repro.perf import cache_info, clear_cache
from repro.perf.table_cache import (
    cached_tables,
    fingerprint_model,
    fingerprint_space,
)
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology


@pytest.fixture(autouse=True)
def fresh_cache():
    """Isolate every test from cache state left by the rest of the suite."""
    clear_cache()
    yield
    clear_cache()


def _tables_equal(a, b):
    for name in a:
        for attr in ("delays", "leakages", "energies"):
            if not np.array_equal(getattr(a[name], attr), getattr(b[name], attr)):
                return False
        if a[name].points != b[name].points:
            return False
    return True


class TestCachedEqualsUncached:
    def test_bit_identical_tables(self, tiny_cache, tiny_space):
        cached = component_tables(tiny_cache, tiny_space)
        fresh = component_tables(tiny_cache, tiny_space, use_cache=False)
        assert _tables_equal(cached, fresh)

    def test_second_call_returns_same_object(self, tiny_cache, tiny_space):
        first = component_tables(tiny_cache, tiny_space)
        second = component_tables(tiny_cache, tiny_space)
        assert first is second


class TestStructuralSharing:
    def test_identical_models_share_one_entry(self, tiny_space):
        config = CacheConfig(
            size_bytes=4 * 1024, block_bytes=32, associativity=2, name="tiny"
        )
        component_tables(CacheModel(config), tiny_space)
        after_first = cache_info()
        component_tables(CacheModel(config), tiny_space)
        after_second = cache_info()
        assert after_first.misses == 1
        assert after_second.hits == after_first.hits + 1
        assert after_second.entries == 1

    def test_different_space_is_a_different_entry(
        self, tiny_cache, tiny_space, small_space
    ):
        component_tables(tiny_cache, tiny_space)
        component_tables(tiny_cache, small_space)
        assert cache_info().entries == 2
        assert cache_info().misses == 2

    def test_ablation_flags_change_the_key(self, tiny_space):
        config = CacheConfig(
            size_bytes=4 * 1024, block_bytes=32, associativity=2, name="tiny"
        )
        base = CacheModel(config)
        no_gate = CacheModel(config, gate_enabled=False)
        tables = component_tables(base, tiny_space)
        tables_no_gate = component_tables(no_gate, tiny_space)
        assert cache_info().misses == 2
        assert not np.array_equal(
            tables["array"].leakages, tables_no_gate["array"].leakages
        )

    def test_one_entry_per_distinct_node_member(self, tiny_space):
        """Every (node, style) member of the node family gets its own
        entry — never fewer, which would mean two nodes collided on one
        key — and repeat passes are pure hits.  One shared space makes
        the technology alone keep the keys apart."""
        technologies = [
            node_technology(node, style)
            for style in SCALING_STYLES
            for node in NODES
        ]
        # The 65 nm anchor is one shared Technology across both styles.
        distinct = list({id(t): t for t in technologies}.values())
        assert len(distinct) == len(technologies) - 1

        def one_pass():
            for technology in technologies:
                component_tables(
                    CacheModel(l1_config(16), technology=technology),
                    tiny_space,
                )

        one_pass()
        assert cache_info().misses == len(distinct)
        for _ in range(2):
            before = cache_info()
            one_pass()
            after = cache_info()
            assert after.misses == before.misses
            assert after.hits == before.hits + len(technologies)


class TestObservability:
    def test_bypass_touches_no_counters(self, tiny_cache, tiny_space):
        component_tables(tiny_cache, tiny_space, use_cache=False)
        info = cache_info()
        assert info.hits == 0 and info.misses == 0 and info.entries == 0

    def test_clear_resets_counters(self, tiny_cache, tiny_space):
        component_tables(tiny_cache, tiny_space)
        component_tables(tiny_cache, tiny_space)
        clear_cache()
        info = cache_info()
        assert info.hits == 0 and info.misses == 0 and info.entries == 0

    def test_hit_rate(self, tiny_cache, tiny_space):
        component_tables(tiny_cache, tiny_space)
        component_tables(tiny_cache, tiny_space)
        assert cache_info().hit_rate == pytest.approx(0.5)


class TestFingerprints:
    def test_unknown_model_bypasses_the_cache(self, tiny_space):
        class Opaque:
            pass

        calls = []

        def compute(model, space):
            calls.append(model)
            return {"sentinel": len(calls)}

        first = cached_tables(Opaque(), tiny_space, compute)
        second = cached_tables(Opaque(), tiny_space, compute)
        assert (first, second) == ({"sentinel": 1}, {"sentinel": 2})
        assert cache_info().entries == 0

    def test_fingerprint_none_for_unknown(self, tiny_space):
        assert fingerprint_model(object()) is None
        assert fingerprint_space(object()) is None

    def test_fitted_model_is_cacheable(self, fitted_16k, tiny_space):
        assert fingerprint_model(fitted_16k) is not None
        component_tables(fitted_16k, tiny_space)
        component_tables(fitted_16k, tiny_space)
        info = cache_info()
        assert info.hits == 1 and info.misses == 1
