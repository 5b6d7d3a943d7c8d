"""Campaign spec validation: ``parse_campaign`` and the budget guard."""

from __future__ import annotations

import pytest

from repro.campaign.spec import (
    CampaignCalibration,
    CampaignConstraints,
    CampaignSpec,
    MatrixBlock,
)
from repro.archsim.workloads import STANDARD_WORKLOADS
from repro.errors import ValidationError
from repro.service.schemas import MAX_CAMPAIGN_UNITS, parse_campaign


def matrix_body(**overrides) -> dict:
    body = {
        "name": "t",
        "workloads": ["spec2000"],
        "policies": ["lru"],
        "matrix": {"l1_sizes_kb": [4, 8], "l1_assocs": [1],
                   "l2_sizes_kb": [128], "l2_assocs": [8]},
    }
    body.update(overrides)
    return body


class TestParsing:
    def test_minimal_matrix_spec_fills_defaults(self):
        spec = parse_campaign({"matrix": {}})
        assert spec.name == "campaign"
        assert [w.name for w in spec.workloads] == ["spec2000"]
        assert spec.policies == ("lru",)
        assert spec.calibration.n_accesses == 300_000
        # Default axes: the full calibration grids at reference assoc.
        assert spec.matrix.l1_sizes_kb == (4, 8, 16, 32, 64)
        assert spec.matrix.l1_assocs == (2,)
        assert spec.matrix.l2_assocs == (8,)
        assert spec.needs_surfaces

    def test_spec_requires_at_least_one_block(self):
        with pytest.raises(ValidationError) as error:
            parse_campaign({"name": "empty"})
        assert "at least one" in str(error.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ValidationError) as error:
            parse_campaign(matrix_body(surprise=1))
        assert "surprise" in str(error.value)

    def test_duplicate_workloads_rejected(self):
        with pytest.raises(ValidationError):
            parse_campaign(matrix_body(workloads=["spec2000", "spec2000"]))

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValidationError) as error:
            parse_campaign(matrix_body(policies=["mru"]))
        assert "mru" in str(error.value)

    def test_off_surface_matrix_point_rejected(self):
        body = matrix_body()
        body["matrix"] = {"l1_sizes_kb": [5]}  # 5 KiB: not a surface point
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert "surface" in str(error.value)

    def test_calibration_bounds(self):
        body = matrix_body(calibration={"n_accesses": 10})
        with pytest.raises(ValidationError):
            parse_campaign(body)
        body = matrix_body(calibration={"n_accesses": 10_000_000})
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert error.value.status == 413

    def test_constraints_require_amat_block(self):
        body = matrix_body(constraints={"max_amat_ps": 2000})
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert "amat" in str(error.value)

    def test_constraints_parsed_with_amat_block(self):
        body = matrix_body(
            amat={"l1_sizes_kb": [8], "l1_assocs": [2],
                  "l2_sizes_kb": [1024], "l2_assocs": [8]},
            constraints={"max_amat_ps": 2000, "max_leakage_mw": 50},
        )
        spec = parse_campaign(body)
        assert spec.constraints.max_amat_ps == 2000.0
        assert spec.constraints.max_leakage_mw == 50.0
        assert spec.constraints.active()

    def test_sweep_errors_carry_block_prefix(self):
        body = matrix_body(
            sweeps=[{"cache": {"size_kb": 16}, "vth": [9.9], "tox": [12]}]
        )
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert "campaign.sweeps[0]" in str(error.value)

    def test_tox_within_rounding_of_the_lead_box_accepted(self):
        # The one box rule gives Tox 1e-9 Å of slack at every node,
        # the lead node included.
        body = matrix_body(sweeps=[{"cache": {"size_kb": 16}, "vth": [0.3],
                                    "tox": [14.0 + 5e-10]}])
        assert parse_campaign(body).sweeps[0].toxes_angstrom == (
            14.0 + 5e-10,
        )

    @pytest.mark.parametrize("cache, message", [
        ({"size_kb": 16, "ways": 2},
         "campaign.optimize.caches[0] has unknown field(s) ['ways']"),
        ({"size_kb": 16.0004},
         "campaign.optimize.caches[0].size_kb: 16.0004 KiB is not a whole "
         "number of bytes"),
    ])
    def test_optimize_cache_errors_name_the_list_entry(self, cache, message):
        body = {"optimize": {"caches": [cache], "target_ps": 1200}}
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert message in str(error.value)

    def test_optimize_schemes_default_to_all_three(self):
        spec = parse_campaign({
            "optimize": {"caches": [{"size_kb": 16}], "target_ps": 1200},
        })
        assert spec.optimize.schemes == ("1", "2", "3")
        assert spec.optimize.targets_ps == (1200.0,)
        assert not spec.needs_surfaces


class TestExpansionBudget:
    """The campaign budget guard: structured 400s naming the product."""

    def test_matrix_block_over_cap_names_axes(self):
        body = {
            "workloads": ["spec2000", "specweb", "tpcc"],
            "policies": ["lru", "fifo", "random"],
            "matrix": {},  # defaults: 12 points -> 9 x 12 = 108 units
            "max_units": 50,
        }
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        message = str(error.value)
        assert error.value.status == 400
        assert "campaign.matrix expands to 108 units" in message
        assert "3 workloads" in message
        assert "3 policies" in message
        assert "(level, size, assoc) points" in message
        assert "the limit is 50" in message

    def test_amat_block_over_cap_names_each_axis(self):
        body = {
            "amat": {"l1_sizes_kb": [4, 8, 16], "l1_assocs": [1, 2],
                     "l2_sizes_kb": [256, 1024], "l2_assocs": [8, 16]},
            "max_units": 10,
        }
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        message = str(error.value)
        assert error.value.status == 400
        assert "campaign.amat expands to 24 units" in message
        assert "3 l1_sizes_kb" in message
        assert "2 l2_assocs" in message

    def test_optimize_block_over_cap(self):
        body = {
            "optimize": {
                "caches": [{"size_kb": kb} for kb in (8, 16, 32, 64)],
                "schemes": ["1", "2", "3"],
                "target_ps": [float(t) for t in range(900, 1700, 50)],
            },
            "max_units": 100,
        }
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        message = str(error.value)
        assert error.value.status == 400
        assert "campaign.optimize expands to 192 units" in message
        assert "4 caches" in message
        assert "16 delay targets" in message

    def test_total_over_cap_when_blocks_individually_fit(self):
        # matrix: 12, amat: 1, profiles: 1 -> total 14 over a cap of 13,
        # though each block alone fits.
        body = {
            "matrix": {},
            "amat": {"l1_sizes_kb": [8], "l1_assocs": [2],
                     "l2_sizes_kb": [1024], "l2_assocs": [8]},
            "max_units": 13,
        }
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        message = str(error.value)
        assert error.value.status == 400
        assert "campaign expands to 14 units" in message
        assert "the limit is 13" in message

    def test_spec_max_units_cannot_raise_the_server_cap(self):
        body = matrix_body(max_units=10 * MAX_CAMPAIGN_UNITS)
        # Server cap of 3 still wins over the spec's generous ask.
        with pytest.raises(ValidationError) as error:
            parse_campaign(body, max_units=3)
        assert "the limit is 3" in str(error.value)

    def test_under_cap_spec_passes(self):
        spec = parse_campaign(matrix_body(max_units=16))
        # 1 profile + 3 points: comfortably under the requested cap.
        assert isinstance(spec, CampaignSpec)

    def test_sweep_grid_budget_still_413(self):
        body = matrix_body(sweeps=[{
            "cache": {"size_kb": 16},
            "vth": {"min": 0.2, "max": 0.5, "points": 100},
            "tox": {"min": 10, "max": 14, "points": 100},
        }])
        with pytest.raises(ValidationError) as error:
            parse_campaign(body)
        assert error.value.status == 413


class TestSpecTypes:
    def test_needs_surfaces_property(self):
        base = dict(
            name="t",
            workloads=(STANDARD_WORKLOADS["spec2000"],),
            policies=("lru",),
            calibration=CampaignCalibration(),
        )
        assert not CampaignSpec(**base).needs_surfaces
        matrix = MatrixBlock(
            l1_sizes_kb=(4,), l1_assocs=(1,),
            l2_sizes_kb=(128,), l2_assocs=(8,),
        )
        assert CampaignSpec(matrix=matrix, **base).needs_surfaces

    def test_constraints_active(self):
        assert not CampaignConstraints().active()
        assert CampaignConstraints(max_amat_ps=1.0).active()
        assert CampaignConstraints(max_leakage_mw=1.0).active()
