"""The tail rule: the highest percentile with >= 10 samples beyond it."""

from perfbench.common import tail


def test_tail_leaves_exactly_ten_samples_beyond():
    value, percentile, beyond = tail([float(v) for v in range(100)])
    assert value == 89.0
    assert percentile == 90.0
    assert beyond == 10


def test_tail_of_a_larger_run_moves_up_the_distribution():
    value, percentile, beyond = tail(list(range(1000, 0, -1)))
    assert value == 990
    assert percentile == 99.0
    assert beyond == 10


def test_tail_needs_more_than_ten_samples():
    assert tail([1.0] * 10) is None
    assert tail(list(range(10))) is None
    assert tail(list(range(11))) == (0, 100.0 / 11, 10)


def test_tail_steps_below_ties_at_the_cut():
    samples = [1.0] * 5 + [2.0] * 3 + [3.0] * 10
    # Cutting at a 2.0 would leave only the ten 3.0s beyond -- fine; a
    # cut inside the 3.0s would leave fewer than ten.
    assert tail(samples) == (2.0, 100.0 * 8 / 18, 10)
    assert tail([1.0] * 3 + [5.0] * 12) == (1.0, 20.0, 12)


def test_tail_of_all_equal_samples_is_none():
    assert tail([4.0] * 50) is None
