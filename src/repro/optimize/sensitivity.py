"""Local knob-sensitivity analysis around a design point.

Section 4's qualitative conclusion — "set Tox conservatively at a high
value and let Vth be the knob designers vary" — is a statement about
*exchange rates*: near a good design, how much leakage does one grid step
of each knob buy per picosecond of delay it costs?  This module computes
those exchange rates for every component of an assignment, giving the
designer-facing "which knob should I touch" report.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro import units
from repro.cache.assignment import Assignment
from repro.errors import OptimizationError, TechnologyError
from repro.technology.bptm import check_design_box


@dataclass(frozen=True)
class KnobSensitivity:
    """Effect of one +step move of one knob on one component.

    ``leakage_delta`` and ``delay_delta`` are signed absolute changes;
    ``exchange_rate`` is leakage saved per second of delay paid
    (W/s, positive when the move trades speed for leakage).
    """

    component: str
    knob: str
    step: float
    leakage_delta: float
    delay_delta: float

    @property
    def exchange_rate(self) -> float:
        """Leakage saved per delay paid (W/s); inf for free wins."""
        saved = -self.leakage_delta
        if self.delay_delta <= 0:
            return float("inf") if saved > 0 else 0.0
        return saved / self.delay_delta


def _in_box(technology, **knobs) -> bool:
    """Whether the knob values pass :func:`check_design_box`."""
    try:
        check_design_box(technology, **knobs)
    except TechnologyError:
        return False
    return True


def knob_sensitivities(
    model,
    assignment: Assignment,
    vth_step: float = 0.025,
    tox_step_angstrom: float = 0.5,
) -> List[KnobSensitivity]:
    """Return per-component sensitivities of raising each knob one step.

    Moves that would leave the design box of ``model``'s technology
    (:func:`~repro.technology.bptm.check_design_box`) are skipped: the
    report covers the feasible moves only.
    """
    if vth_step <= 0 or tox_step_angstrom <= 0:
        raise OptimizationError("sensitivity steps must be positive")
    technology = model.technology
    results: List[KnobSensitivity] = []
    for name, point in assignment.components():
        component = model.components[name]
        base = component.evaluate(point.vth, point.tox)
        if _in_box(technology, vths=(point.vth + vth_step,)):
            up = component.evaluate(point.vth + vth_step, point.tox)
            results.append(
                KnobSensitivity(
                    component=name,
                    knob="vth",
                    step=vth_step,
                    leakage_delta=up.leakage_power - base.leakage_power,
                    delay_delta=up.delay - base.delay,
                )
            )
        tox_a = units.to_angstrom(point.tox)
        if _in_box(technology, toxes_a=(tox_a + tox_step_angstrom,)):
            up = component.evaluate(
                point.vth, units.angstrom(tox_a + tox_step_angstrom)
            )
            results.append(
                KnobSensitivity(
                    component=name,
                    knob="tox",
                    step=tox_step_angstrom,
                    leakage_delta=up.leakage_power - base.leakage_power,
                    delay_delta=up.delay - base.delay,
                )
            )
    return results


def best_move(sensitivities: List[KnobSensitivity]) -> KnobSensitivity:
    """Return the move with the best leakage-per-delay exchange rate.

    Raises :class:`OptimizationError` if no move saves any leakage.
    """
    saving = [s for s in sensitivities if s.leakage_delta < 0]
    if not saving:
        raise OptimizationError(
            "no knob move saves leakage from this design point"
        )
    return max(saving, key=lambda s: s.exchange_rate)
