"""The seed fixes each workload's op sequence."""

from collections import Counter
from itertools import islice

from perfbench import calibrate, explore, serve
from perfbench.common import balanced_blocks, seeded_rng

L1_GRID = (4, 8, 16, 32, 64)
L2_GRID = (128, 256, 512, 1024, 2048, 4096, 8192)


def _explore(seed, count=40):
    return list(islice(explore.queries(seed), count))


def _calibrate(seed, count=40):
    return list(islice(calibrate.calibrations(seed, L1_GRID, L2_GRID), count))


def test_explore_same_seed_same_sequence():
    assert _explore(7) == _explore(7)


def test_explore_different_seed_different_sequence():
    assert _explore(7) != _explore(8)


def test_explore_rounds_are_shuffled_copies_of_the_pool():
    pool = len(explore.POOL)
    queries = _explore(5, 3 * pool)
    for start in range(0, 3 * pool, pool):
        chosen = sorted((q.node, q.style) for q in queries[start:start + pool])
        assert chosen == sorted(explore.POOL)


def test_explore_pool_is_distinct_e9_nodes_of_both_styles():
    nodes = [node for node, _ in explore.POOL]
    assert len(set(nodes)) == len(nodes)
    assert set(nodes) <= {65, 45, 32, 22, 16, 11, 8}
    assert {style for _, style in explore.POOL} == {"itrs", "cons"}


def test_calibrate_same_seed_same_sequence():
    assert _calibrate(5) == _calibrate(5)


def test_calibrate_different_seed_different_sequence():
    assert _calibrate(5) != _calibrate(6)


def test_calibrate_trace_seeds_are_distinct_and_mix_is_balanced():
    ops = _calibrate(9, 90)
    assert len({op.trace_seed for op in ops}) == len(ops)
    mix = Counter((op.workload, op.policy) for op in ops)
    assert set(mix.values()) == {10}


def test_serve_same_seed_same_sequence():
    assert serve.op_sequence(4, 0, 200) == serve.op_sequence(4, 0, 200)


def test_serve_different_seed_or_connection_differs():
    assert serve.op_sequence(4, 0, 200) != serve.op_sequence(5, 0, 200)
    assert serve.op_sequence(4, 0, 200) != serve.op_sequence(4, 1, 200)


def test_serve_mix_gives_every_route_the_same_share():
    block = sum(serve.MIX.values())
    ops = serve.op_sequence(2, 1, 10 * block)
    assert Counter(op[0] for op in ops) == Counter(
        {kind: 10 * share for kind, share in serve.MIX.items()})
    routes = Counter(serve.ROUTE[op[0]] for op in ops)
    assert set(routes.values()) == {10 * serve.PER_ROUTE}
    assert set(routes) == set(serve.KINDS)


def test_serve_warmup_covers_every_template_of_the_mix():
    warm = {serve.template_key(op) for op in serve.warmup_templates()}
    assert warm == {serve.template_key(op)
                    for op in serve.warmup_templates("again")}
    for op in serve.op_sequence(3, 0, 2000):
        assert serve.template_key(op) in warm


def test_balanced_blocks_keep_whole_blocks():
    drawn = balanced_blocks(seeded_rng(1, "x"), "abc", 9)
    assert Counter(drawn) == Counter("aaabbbccc")


def test_serve_route_figure_is_the_geometric_mean_of_kind_medians():
    records = []
    for kind, latencies in (("sweep_hit", (1, 1, 3)), ("sweep_batch", (4, 9)),
                            ("jobs", (2, 5, 8))):
        records += [((kind, "", None), 0.0, ms / 1000.0, None, None)
                    for ms in latencies]
    records.append((("jobs", "", None), 0.0, 1.0, "failed", None))
    figures = serve.route_figures(records)
    assert figures.keys() == {"sweep", "jobs"}
    assert abs(figures["sweep"] - (1.0 * 6.5) ** 0.5) < 1e-9
    assert abs(figures["jobs"] - 5.0) < 1e-9
