"""Experiment harness: every table/figure reproduces its paper finding.

E1-E5 run twice: on a reduced grid for the structural checks, and at
the paper's full resolution (default 25 mV / 0.5 Å grid, every workload
stand-in) for the findings and axis ranges.  E7 always runs at full
resolution; E6 and E8/E9 have their own modules.  The acid test
everywhere: no finding line starts with "UNEXPECTED".
"""

import pytest

from repro.errors import ReproError
from repro.experiments.figure1 import run_figure1
from repro.experiments.l1_exploration import run_l1_exploration
from repro.experiments.l2_exploration import run_l2_exploration
from repro.experiments.model_fit import run_model_fit
from repro.experiments.runner import REGISTRY, main, run_experiment
from repro.experiments.scheme_comparison import run_scheme_comparison


def assert_no_unexpected(result):
    for finding in result.findings:
        assert "UNEXPECTED" not in finding, finding


class TestE1SchemeComparison:
    @pytest.fixture(scope="class")
    def result(self, small_space):
        return run_scheme_comparison(
            targets_ps=(900.0, 1200.0, 1600.0), space=small_space
        )

    def test_findings(self, result):
        assert_no_unexpected(result)

    def test_table_shape(self, result):
        assert len(result.rows) == 3
        assert len(result.headers) == 6


class TestE2Figure1:
    @pytest.fixture(scope="class")
    def result(self, small_space):
        return run_figure1(space=small_space)

    def test_findings(self, result):
        assert_no_unexpected(result)

    def test_four_curves(self, result):
        assert set(result.series) == {
            "Tox=10A",
            "Tox=14A",
            "Vth=200mV",
            "Vth=400mV",
        }

    def test_thin_oxide_curve_fastest_and_leakiest(self, result):
        thin_times, thin_leaks = result.series["Tox=10A"]
        thick_times, thick_leaks = result.series["Tox=14A"]
        assert min(thin_times) < min(thick_times)
        assert max(thin_leaks) > max(thick_leaks)


class TestE3E4L2Exploration:
    @pytest.fixture(scope="class")
    def single(self, small_space):
        return run_l2_exploration(
            split=False, l2_sizes_kb=(256, 512, 1024, 2048),
            space=small_space,
        )

    @pytest.fixture(scope="class")
    def split(self, small_space):
        return run_l2_exploration(
            split=True, l2_sizes_kb=(256, 512, 1024, 2048),
            space=small_space,
        )

    def test_single_findings(self, single):
        assert_no_unexpected(single)

    def test_split_findings(self, split):
        assert_no_unexpected(split)

    def test_experiment_ids(self, single, split):
        assert single.experiment_id == "E3"
        assert split.experiment_id == "E4"

    def test_split_smallest_wins(self, split):
        xs, ys = split.series["L2 leakage vs size"]
        assert ys[0] == min(ys)


class TestE5L1Exploration:
    @pytest.fixture(scope="class")
    def result(self, small_space):
        return run_l1_exploration(
            l1_sizes_kb=(4, 16, 64), l2_size_kb=512, space=small_space
        )

    def test_findings(self, result):
        assert_no_unexpected(result)

    def test_smallest_l1_wins(self, result):
        xs, ys = result.series["total leakage vs L1 size"]
        assert ys[0] == min(ys)


class TestE7ModelFit:
    @pytest.fixture(scope="class")
    def result(self):
        return run_model_fit()

    def test_findings(self, result):
        assert_no_unexpected(result)

    def test_all_components_tabulated(self, result):
        assert len(result.rows) == 4

    def test_leakage_fits_explain_98_percent(self, result):
        for row in result.rows:
            assert float(row[1]) >= 0.98, row


class TestFullResolution:
    """E1-E5 on the default grid, as the paper reports them."""

    def test_e1_scheme_comparison(self):
        result = run_scheme_comparison()
        assert_no_unexpected(result)
        assert len(result.rows) == 6

    def test_e2_figure1_axes(self):
        result = run_figure1()
        assert_no_unexpected(result)
        # The paper's Figure 1 axes: access times within ~500-2600 ps,
        # leakage up to tens of mW.
        for xs, ys in result.series.values():
            assert min(xs) > 400 and max(xs) < 2600
            assert max(ys) < 100

    @pytest.mark.parametrize("workload", ["spec2000", "specweb", "tpcc"])
    def test_e3_interior_l2_optimum(self, workload):
        result = run_l2_exploration(workload=workload, split=False)
        assert_no_unexpected(result)
        xs, ys = result.series["L2 leakage vs size"]
        assert xs, "at least one feasible capacity expected"
        # The optimum is never the largest swept capacity.
        assert xs[ys.index(min(ys))] < 4096

    @pytest.mark.parametrize("workload", ["spec2000", "tpcc"])
    def test_e4_smallest_split_l2_wins(self, workload):
        result = run_l2_exploration(workload=workload, split=True)
        assert_no_unexpected(result)
        xs, ys = result.series["L2 leakage vs size"]
        # Smallest feasible capacity wins, and leakage rises with size.
        assert ys[0] == min(ys)
        assert ys == sorted(ys)

    @pytest.mark.parametrize("workload", ["spec2000", "specweb"])
    def test_e5_smallest_l1_wins(self, workload):
        result = run_l1_exploration(workload=workload)
        assert_no_unexpected(result)
        xs, ys = result.series["total leakage vs L1 size"]
        assert ys[0] == min(ys)


class TestRunner:
    def test_registry_covers_all_ids(self):
        assert set(REGISTRY) == {
            "E1", "E2", "E3", "E4", "E5", "E6", "E7", "E8", "E9"
        }

    def test_unknown_experiment(self):
        with pytest.raises(ReproError):
            run_experiment("E99")

    def test_main_list(self, capsys):
        assert main(["--list"]) == 0
        output = capsys.readouterr().out
        assert "E1" in output and "E7" in output and "E9" in output
