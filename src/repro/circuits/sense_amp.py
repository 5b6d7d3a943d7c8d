"""Latch-type sense amplifier.

One sense amplifier per bit-line pair: a clocked cross-coupled latch (two
NMOS, two PMOS) plus an enable footer and two column-mux pass gates.  Its
two delay contributions are

* **bit-line development**: the selected cell must discharge the bit line
  by the amplifier's required input swing ``dV = swing_fraction * Vdd``
  before the latch can fire — ``t_dev = C_bitline * dV / I_read`` — and
* **regeneration**: once enabled, the latch amplifies exponentially with
  time constant ``tau = C_internal / g_m``; resolving a dV input to full
  rail takes ``tau * ln(Vdd / dV)``.

The development term couples the *cell's* (Vth, Tox) to the array delay
(weak cells develop slowly) while regeneration couples the *peripheral*
knobs, so the sense path sees both knob groups — as in the paper, where
the array + sense amplifier form one component.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError
from repro.technology.bptm import Technology
from repro.technology.scaling import ToxScalingRule
from repro.devices.mosfet import UncheckedMosfet, Polarity
from repro.devices import delay as _delay

#: Required differential input swing as a fraction of Vdd.
SWING_FRACTION = 0.10

#: Latch transistor width in units of minimum width.
LATCH_RATIO = 2.0

#: Number of transistors in one sense-amp slice (latch 4 + footer 1 +
#: precharge/equalise 3 + column mux 2).
TRANSISTORS_PER_AMP = 10

#: Effective number of OFF minimum-ratio devices leaking in standby.
#: The latch idles with both internal nodes precharged high: the two NMOS
#: latch devices are off with full drain bias, the footer is off (stacked
#: with them), and the mux gates are off.
OFF_DEVICE_EQUIVALENT = 3.0


@dataclass(frozen=True)
class SenseAmplifier:
    """A sense-amp slice bound to a technology and scaling rule."""

    technology: Technology
    rule: ToxScalingRule

    def _latch_nmos(self, vth: float, tox: float) -> UncheckedMosfet:
        geometry = self.rule.geometry(tox)
        return UncheckedMosfet(
            polarity=Polarity.NMOS,
            width=LATCH_RATIO * self.technology.wmin,
            lgate=geometry.lgate_drawn,
            leff=geometry.leff,
            vth=vth,
            tox=tox,
        )

    def required_swing(self) -> float:
        """Return the differential input swing (V) needed to fire reliably."""
        return SWING_FRACTION * self.technology.vdd

    def development_delay(
        self, bitline_capacitance: float, cell_read_current: float
    ) -> float:
        """Return the bit-line development time (s).

        Parameters
        ----------
        bitline_capacitance:
            Total bit-line capacitance (F) seen by the selected cell.
        cell_read_current:
            The cell's read (discharge) current (A).
        """
        if np.any(np.less(bitline_capacitance, 0)):
            raise CircuitError(
                f"bit-line capacitance must be >= 0, got {bitline_capacitance}"
            )
        if not isinstance(cell_read_current, np.ndarray):
            if cell_read_current <= 0:
                raise CircuitError(
                    f"cell read current must be positive, got {cell_read_current}"
                )
        elif np.any(np.less_equal(cell_read_current, 0)):
            raise CircuitError(
                f"cell read current must be positive, got {cell_read_current}"
            )
        return bitline_capacitance * self.required_swing() / cell_read_current

    def regeneration_delay(self, vth: float, tox: float) -> float:
        """Return the latch regeneration time (s) at the peripheral knobs.

        ``tau = C_node / gm`` with ``gm ~ Idsat / (Vdd - Vth)`` (alpha-power
        small-signal estimate), amplified from the input swing to the rail.
        """
        tech = self.technology
        latch = self._latch_nmos(vth, tox)
        geometry = self.rule.geometry(tox)
        c_node = _delay.gate_capacitance_kernel(
            tech, 2.0 * latch.width, geometry.lgate_drawn, tox
        ) + _delay.junction_capacitance_kernel(tech, 2.0 * latch.width)
        gm = latch.on_current(tech) / np.maximum(tech.vdd - vth, 1e-3)
        tau = c_node / gm
        gain_needed = tech.vdd / self.required_swing()
        return tau * math.log(gain_needed)

    def standby_leakage_current(
        self, vth: float, tox: float, gate_enabled: bool = True
    ) -> float:
        """Return standby leakage (A) of one sense-amp slice."""
        tech = self.technology
        latch = self._latch_nmos(vth, tox)
        off = latch.total_standby_leakage(
            tech, conducting=False, gate_enabled=gate_enabled
        )
        # Gate tunnelling of the precharge PMOS devices held ON in standby.
        on_gate = latch.with_knobs().gate_leakage(
            tech, conducting=True, gate_enabled=gate_enabled
        )
        return OFF_DEVICE_EQUIVALENT * off + 2.0 * on_gate * 0.1

    def standby_leakage_power(
        self, vth: float, tox: float, gate_enabled: bool = True
    ) -> float:
        """Return standby leakage power (W) of one sense-amp slice."""
        return (
            self.standby_leakage_current(vth, tox, gate_enabled=gate_enabled)
            * self.technology.vdd
        )

    def sense_energy(self, bitline_capacitance: float, tox: float) -> float:
        """Return switched energy (J) of one sense operation.

        The bit line swings by the input swing (not full rail — that is the
        point of sensing) and the internal latch nodes swing full rail.
        """
        tech = self.technology
        geometry = self.rule.geometry(tox)
        c_internal = 2.0 * (
            _delay.gate_capacitance_kernel(
                tech, 2.0 * LATCH_RATIO * tech.wmin, geometry.lgate_drawn, tox
            )
            + _delay.junction_capacitance_kernel(
                tech, 2.0 * LATCH_RATIO * tech.wmin
            )
        )
        bitline_energy = bitline_capacitance * self.required_swing() * tech.vdd
        latch_energy = c_internal * tech.vdd * tech.vdd
        return bitline_energy + latch_energy
