"""Declarative design-space-exploration campaigns.

One validated :class:`~repro.campaign.spec.CampaignSpec` in, a planned,
deduplicated, checkpointed unit fleet out:

``spec``
    The immutable spec dataclasses the service schema layer produces.
``planner``
    Spec -> canonical unit work items: expansion, fingerprinting, dedup,
    checkpoint/surface reuse, and union-grid sweep coalescing.
``runner``
    :class:`~repro.campaign.runner.CampaignManager` — executes plans on
    the shared job pool with bounded fan-out, per-unit retry, and
    per-unit checkpointing to the ``campaigns`` disk namespace.

This package sits *below* :mod:`repro.service` (the service imports it,
never the reverse) and above :mod:`repro.answers`, which builds every
unit's answer.
"""

from repro.campaign.planner import Plan, Unit, build_plan
from repro.campaign.runner import CampaignManager
from repro.campaign.spec import (
    AmatBlock,
    CampaignCalibration,
    CampaignConstraints,
    CampaignSpec,
    MatrixBlock,
    OptimizeBlock,
    SweepBlock,
)

__all__ = [
    "AmatBlock",
    "CampaignCalibration",
    "CampaignConstraints",
    "CampaignManager",
    "CampaignSpec",
    "MatrixBlock",
    "OptimizeBlock",
    "Plan",
    "SweepBlock",
    "Unit",
    "build_plan",
]
