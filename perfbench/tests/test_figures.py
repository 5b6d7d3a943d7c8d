"""Per-kind medians and the rate of a mix at those medians."""

import pytest

from perfbench.common import kind_medians, typical_rate


def test_kind_medians_group_by_kind():
    medians = kind_medians(["a", "b", "a", "a", "b"],
                           [1.0, 10.0, 3.0, 100.0, 20.0])
    assert medians == {"a": 3.0, "b": 15.0}


def test_typical_rate_is_concurrency_over_the_weighted_mean():
    medians = {"cheap": 10.0, "dear": 40.0}
    # Equal shares: mean 25 ms, so 40 ops/s on one connection.
    assert typical_rate(medians, {"cheap": 1, "dear": 1}) == pytest.approx(40.0)
    # Three cheap ops per dear one: mean 17.5 ms; two connections.
    assert typical_rate(medians, {"cheap": 3, "dear": 1},
                        concurrency=2) == pytest.approx(2000.0 / 17.5)


def test_typical_rate_ignores_a_few_slow_ops():
    latencies = [10.0] * 9 + [1000.0]
    medians = kind_medians(["op"] * 10, latencies)
    assert typical_rate(medians, {"op": 1}) == pytest.approx(100.0)
