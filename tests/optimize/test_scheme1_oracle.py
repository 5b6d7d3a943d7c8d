"""Scheme I against the full-product oracle, bit for bit.

:func:`minimize_leakage` solves Scheme I in two phases (a staged Pareto
front for the optimum, a bounded pass in flat-index order for the
tie-break) and never builds the product of the four pruned component
tables.  The oracle here does: it sums the whole 4-D product in the same
``((a+d)+r)+o`` order and takes ``argmin`` over the feasible rows, which
returns the smallest flat index among equal leakages.  Every Scheme I
result must equal it exactly: assignment, access time, leakage and, on an
infeasible target, ``best_achievable``.  The oracle is test-only.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import units
from repro.cache.assignment import Assignment, COMPONENT_NAMES, Knobs
from repro.cache.cache_model import CacheModel
from repro.cache.config import CacheConfig, l1_config, l2_config
from repro.errors import InfeasibleConstraintError
from repro.experiments.figure1 import figure1_model
from repro.experiments.scheme_comparison import DEFAULT_TARGETS_PS
from repro.optimize.pareto import pareto_indices
from repro.optimize.schemes import Scheme
from repro.optimize.single_cache import (
    _ComponentTable,
    component_tables,
    leakage_delay_frontier,
    minimize_leakage,
)
from repro.optimize.space import DesignSpace
from repro.technology.nodes import NODES, SCALING_STYLES, node_technology

#: Access-time slacks over the fastest uniform design (E9 ladder).
SLACKS = (0.0, 0.01, 0.05, 0.2, 0.5, 1.0, 100.0)


def full_product(tables):
    """(pruned tables, delays, leakages) of the whole 4-D product."""
    pruned = [tables[name].pruned() for name in COMPONENT_NAMES]
    a, d, r, o = pruned
    delays = (
        a.delays[:, None, None, None]
        + d.delays[None, :, None, None]
        + r.delays[None, None, :, None]
        + o.delays[None, None, None, :]
    )
    leakages = (
        a.leakages[:, None, None, None]
        + d.leakages[None, :, None, None]
        + r.leakages[None, None, :, None]
        + o.leakages[None, None, None, :]
    )
    return pruned, delays.ravel(), leakages.ravel()


def assignment_at(pruned, flat_index):
    coordinates = np.unravel_index(
        flat_index, tuple(len(table.points) for table in pruned)
    )
    return Assignment.from_mapping(
        {
            table.name: table.points[coordinate]
            for table, coordinate in zip(pruned, coordinates)
        }
    )


def oracle_solve(product, max_access_time):
    """((assignment, access time, leakage), None) or (None, fastest)."""
    pruned, delays, leakages = product
    feasible = delays <= max_access_time
    if not feasible.any():
        return None, float(delays.min())
    best = int(np.argmin(np.where(feasible, leakages, np.inf)))
    solved = (
        assignment_at(pruned, best),
        float(delays[best]),
        float(leakages[best]),
    )
    return solved, None


def oracle_frontier(product):
    pruned, delays, leakages = product
    keep = pareto_indices(np.column_stack([delays, leakages]))
    order = keep[np.argsort(delays[keep], kind="stable")]
    return (
        delays[order],
        leakages[order],
        [assignment_at(pruned, index) for index in order],
    )


def assert_matches_oracle(tables, product, max_access_time):
    expected, fastest = oracle_solve(product, max_access_time)
    if expected is None:
        with pytest.raises(InfeasibleConstraintError) as info:
            minimize_leakage(
                None, Scheme.PER_COMPONENT, max_access_time, tables=tables
            )
        assert info.value.best_achievable == fastest
        return
    result = minimize_leakage(
        None, Scheme.PER_COMPONENT, max_access_time, tables=tables
    )
    assert (
        result.assignment, result.access_time, result.leakage_power
    ) == expected


def assert_frontier_matches_oracle(tables, product):
    delays, leakages, assignments = leakage_delay_frontier(
        None, Scheme.PER_COMPONENT, tables=tables
    )
    want_delays, want_leakages, want_assignments = oracle_frontier(product)
    assert np.array_equal(delays, want_delays)
    assert np.array_equal(leakages, want_leakages)
    assert assignments == want_assignments


def ladder(tables, product):
    """The slack ladder over the fastest uniform design, plus one target
    just below Scheme I's fastest access time (infeasible)."""
    fastest = float(sum(table.delays for table in tables.values()).min())
    below = float(np.nextafter(product[1].min(), 0.0))
    return [fastest * (1.0 + slack) for slack in SLACKS] + [below]


class TestFullProduct:
    def test_scheme1_candidates_pruned(self, tiny_cache, tiny_space):
        pruned, delays, leaks = full_product(
            component_tables(tiny_cache, tiny_space)
        )
        # Pruning keeps at most the full product.
        size = int(np.prod([len(table.points) for table in pruned]))
        assert size <= 9**4
        assert size == len(delays) == len(leaks)


class TestPaperCaches:
    def test_e1_targets(self):
        model = figure1_model(16)
        tables = component_tables(model)
        product = full_product(tables)
        for target_ps in DEFAULT_TARGETS_PS + (1.0,):
            assert_matches_oracle(tables, product, units.ps(target_ps))

    @pytest.mark.parametrize("style", SCALING_STYLES)
    @pytest.mark.parametrize("node", NODES)
    def test_e9_pair_slack_ladder(self, node, style):
        technology = node_technology(node, style)
        for config in (l1_config(16), l2_config(1024)):
            tables = component_tables(
                CacheModel(config, technology=technology)
            )
            product = full_product(tables)
            for target in ladder(tables, product):
                assert_matches_oracle(tables, product, target)

    def test_service_optimize_case(self):
        """The grid and target of the service's optimise endpoint test."""
        model = CacheModel(
            CacheConfig(size_bytes=16 * 1024, block_bytes=32,
                        associativity=2, name="direct")
        )
        space = DesignSpace(vth_values=(0.25, 0.35, 0.45),
                            tox_values_angstrom=(10.5, 12.0, 13.5))
        tables = component_tables(model, space)
        product = full_product(tables)
        for target_ps in (1200.0, 1.0):
            assert_matches_oracle(tables, product, units.ps(target_ps))

    def test_campaign_optimize_case(self):
        """The campaign optimise cell: 16 KB L1, 65 nm, default space."""
        tables = component_tables(
            CacheModel(l1_config(16), technology=node_technology(65, "itrs"))
        )
        product = full_product(tables)
        for target_ps in (1200.0, 1.0):
            assert_matches_oracle(tables, product, units.ps(target_ps))

    def test_frontier_65nm_l1(self):
        tables = component_tables(
            CacheModel(l1_config(16), technology=node_technology(65, "itrs"))
        )
        assert_frontier_matches_oracle(tables, full_product(tables))

    def test_frontier_tiny(self, tiny_cache, tiny_space):
        tables = component_tables(tiny_cache, tiny_space)
        assert_frontier_matches_oracle(tables, full_product(tables))


# Synthetic tables built to force rounding ties.  Each column of each
# table sits at its own magnitude, with values a few half-ulps apart, so
# adding a larger later component absorbs earlier gaps: partial sums that
# differ round to the same total.  ``None`` draws small integers, whose
# sums tie exactly.
MAGNITUDES = (None, 1.0, 1e3, 2.0**30)


@st.composite
def _column(draw, size):
    magnitude = draw(st.sampled_from(MAGNITUDES))
    steps = np.array(
        draw(st.lists(st.integers(0, 6), min_size=size, max_size=size)),
        dtype=float,
    )
    if magnitude is None:
        return steps
    return magnitude + steps * (np.spacing(magnitude) / 2)


@st.composite
def tie_tables(draw):
    tables = {}
    for component, name in enumerate(COMPONENT_NAMES):
        size = draw(st.integers(1, 6))
        tables[name] = _ComponentTable(
            name=name,
            points=tuple(
                Knobs(vth=float(component), tox=float(row))
                for row in range(size)
            ),
            delays=draw(_column(size)),
            leakages=draw(_column(size)),
            energies=np.zeros(size),
        )
    return tables


class TestRoundingTies:
    @settings(max_examples=300, deadline=None)
    @given(tables=tie_tables(), picks=st.lists(
        st.integers(-1, 10**6), min_size=1, max_size=4))
    def test_matches_oracle(self, tables, picks):
        product = full_product(tables)
        delays = np.unique(product[1])
        for pick in picks:
            # -1 is just below the fastest total: infeasible.
            target = (float(np.nextafter(delays[0], -np.inf)) if pick < 0
                      else float(delays[pick % len(delays)]))
            assert_matches_oracle(tables, product, target)
        assert_frontier_matches_oracle(tables, product)
