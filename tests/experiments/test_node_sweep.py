"""E8/E9 — Figures 1 and 2 as technology-node sweeps, full family.

Both runs cover all 7 nodes in both scaling styles (~10 s each), so each
experiment is computed once per module and every finding is pinned:
the 65 nm slice must reproduce the single-node E2/E6 run bit for bit,
and the deep-node (< 22 nm) verdicts must name exactly the nodes below.
"""

import pytest

from repro.experiments.node_sweep import run_figure1_nodes, run_figure2_nodes


def _nodes(*pairs):
    return ", ".join(f"{node} nm ({style})" for style, node in pairs)


@pytest.fixture(scope="module")
def e8():
    return run_figure1_nodes()


@pytest.fixture(scope="module")
def e9():
    return run_figure2_nodes()


class TestE8Figure1Nodes:
    def test_no_unexpected(self, e8):
        for finding in e8.findings:
            assert "UNEXPECTED" not in finding, finding

    def test_anchor_slice_bit_identical(self, e8):
        assert e8.findings[0] == (
            "65 nm slice is bit-identical to the single-node E2 run"
        )

    def test_tox_loses_leakage_dominance_at_16_11_8_nm(self, e8):
        """Vth keeps the wider delay span at every deep node, but Tox
        loses the bigger leakage lever at exactly 16/11/8 nm in both
        styles."""
        verdict = e8.findings[1]
        assert "HALF-SURVIVES" in verdict
        broken = _nodes(
            ("itrs", 16), ("itrs", 11), ("itrs", 8),
            ("cons", 16), ("cons", 11), ("cons", 8),
        )
        assert f"Tox loses leakage dominance at {broken} —" in verdict

    def test_one_row_per_member(self, e8):
        assert [(row[0], row[1]) for row in e8.rows] == [
            (style, node)
            for style in ("itrs", "cons")
            for node in (65, 45, 32, 22, 16, 11, 8)
        ]


class TestE9Figure2Nodes:
    def test_no_unexpected(self, e9):
        for finding in e9.findings:
            assert "UNEXPECTED" not in finding, finding

    def test_anchor_slice_bit_identical(self, e9):
        assert e9.findings[0] == (
            "65 nm slice is bit-identical to the single-node E6 run"
        )

    def test_ordering_flips_at_8_nm_itrs_and_16_11_8_nm_cons(self, e9):
        flipped = _nodes(
            ("itrs", 8), ("cons", 16), ("cons", 11), ("cons", 8)
        )
        assert e9.findings[1] == (
            f"system-level ordering FLIPS below 22 nm at {flipped}: "
            "extra Tox values beat extra Vth values there"
        )
