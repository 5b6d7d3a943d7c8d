"""The 6T SRAM storage cell.

A standard six-transistor cell: cross-coupled inverters (two NMOS
pull-downs, two PMOS pull-ups) plus two NMOS access transistors.  The cell
is the paper's protagonist — "a large number of potentially high-leakage
cross-coupled inverters integrated in great numbers" — so its standby
leakage is modelled transistor-by-transistor for a stored bit with the bit
lines precharged high:

==================  =========  ==============================  ===========
device              state      subthreshold                    gate tunnel
==================  =========  ==============================  ===========
pull-down ('1' nd)  ON         none (channel on)               full area
pull-down ('0' nd)  OFF        Vds = Vdd                       edge only
pull-up   ('0' nd)  OFF        Vds = Vdd (hole branch)         edge only
pull-up   ('1' nd)  ON         none                            full (PMOS)
access    ('0' nd)  OFF        Vds = Vdd (bit line high)       edge only
access    ('1' nd)  OFF        Vds ~ 0 -> negligible           edge only
==================  =========  ==============================  ===========

Cell transistor widths follow the Tox co-scaling rule (Section 2): thicker
oxide means longer channels, and cell widths scale proportionally to keep
the read-stability beta ratio, so the cell grows in both dimensions.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError
from repro.technology.bptm import Technology
from repro.technology.scaling import ToxScalingRule
from repro.devices.mosfet import UncheckedMosfet, Polarity
from repro.devices import delay as _delay

#: Classic 6T width ratios in units of the minimum width.
PULL_DOWN_RATIO = 2.0
ACCESS_RATIO = 1.3
PULL_UP_RATIO = 1.0

#: Series de-rating of the read current through access + pull-down.
READ_SERIES_FACTOR = 0.7


@dataclass(frozen=True)
class SramCell:
    """A 6T cell bound to a technology and Tox-scaling rule.

    The cell itself is knob-free; every query takes the (Vth, Tox)
    assignment so one cell object can be evaluated across the whole design
    grid.
    """

    technology: Technology
    rule: ToxScalingRule

    def _devices(self, vth: float, tox: float):
        """Return the six sized transistors at the given knobs."""
        geometry = self.rule.geometry(tox)
        tech = self.technology
        scale = geometry.width_scale

        def nmos(ratio: float) -> UncheckedMosfet:
            return UncheckedMosfet(
                polarity=Polarity.NMOS,
                width=ratio * tech.wmin * scale,
                lgate=geometry.lgate_drawn,
                leff=geometry.leff,
                vth=vth,
                tox=tox,
            )

        def pmos(ratio: float) -> UncheckedMosfet:
            return UncheckedMosfet(
                polarity=Polarity.PMOS,
                width=ratio * tech.wmin * scale,
                lgate=geometry.lgate_drawn,
                leff=geometry.leff,
                vth=vth,
                tox=tox,
            )

        return {
            "pull_down": nmos(PULL_DOWN_RATIO),
            "pull_up": pmos(PULL_UP_RATIO),
            "access": nmos(ACCESS_RATIO),
        }

    # -- leakage ----------------------------------------------------------

    def standby_leakage_current(
        self, vth: float, tox: float, gate_enabled: bool = True
    ) -> float:
        """Return total standby leakage current (A) of one stored bit."""
        tech = self.technology
        d = self._devices(vth, tox)
        total = 0.0
        # OFF pull-down on the '0' node.
        total += d["pull_down"].total_standby_leakage(
            tech, conducting=False, gate_enabled=gate_enabled
        )
        # ON pull-down on the '1' node: gate tunnelling only.
        total += d["pull_down"].total_standby_leakage(
            tech, conducting=True, gate_enabled=gate_enabled
        )
        # OFF pull-up, ON pull-up.
        total += d["pull_up"].total_standby_leakage(
            tech, conducting=False, gate_enabled=gate_enabled
        )
        total += d["pull_up"].total_standby_leakage(
            tech, conducting=True, gate_enabled=gate_enabled
        )
        # Access on the '0' node: full drain bias from the precharged bit line.
        total += d["access"].total_standby_leakage(
            tech, conducting=False, gate_enabled=gate_enabled
        )
        # Access on the '1' node: Vds ~ 0, only edge gate tunnelling.
        total += d["access"].gate_leakage(
            tech, conducting=False, gate_enabled=gate_enabled
        )
        return total

    def standby_leakage_power(
        self, vth: float, tox: float, gate_enabled: bool = True
    ) -> float:
        """Return standby leakage power (W) of one stored bit."""
        return (
            self.standby_leakage_current(vth, tox, gate_enabled=gate_enabled)
            * self.technology.vdd
        )

    # -- read path --------------------------------------------------------

    def read_current(self, vth: float, tox: float) -> float:
        """Return the bit-line discharge current (A) during a read.

        The series access + pull-down pair is de-rated from the weaker
        device's saturation current.
        """
        tech = self.technology
        d = self._devices(vth, tox)
        i_access = d["access"].on_current(tech)
        i_pull_down = d["pull_down"].on_current(tech)
        return READ_SERIES_FACTOR * np.minimum(i_access, i_pull_down)

    # -- loads presented to the array -------------------------------------

    def wordline_load(self, tox: float, vth: float = None) -> float:
        """Return the word-line capacitance (F) contributed by one cell.

        Two access-transistor gates.  ``vth`` is accepted for signature
        symmetry but unused — gate capacitance has no Vth dependence.
        """
        geometry = self.rule.geometry(tox)
        width = ACCESS_RATIO * self.technology.wmin * geometry.width_scale
        return 2.0 * _delay.gate_capacitance_kernel(
            self.technology, width, geometry.lgate_drawn, tox
        )

    def bitline_load(self, tox: float) -> float:
        """Return the bit-line capacitance (F) contributed by one cell.

        One access-transistor junction plus the wire running past the cell.
        """
        geometry = self.rule.geometry(tox)
        width = ACCESS_RATIO * self.technology.wmin * geometry.width_scale
        junction = _delay.junction_capacitance_kernel(self.technology, width)
        wire = self.technology.wire_cap_per_m * geometry.cell_height
        return junction + wire

    # -- geometry ----------------------------------------------------------

    def area(self, tox: float) -> float:
        """Return the cell footprint (m^2) at the given oxide thickness."""
        return self.rule.cell_area(tox)

    def height(self, tox: float) -> float:
        """Return the cell height (m) — the bit-line pitch per row."""
        return self.rule.geometry(tox).cell_height

    def width(self, tox: float) -> float:
        """Return the cell width (m) — the word-line pitch per column."""
        return self.rule.geometry(tox).cell_width

    def validate(self) -> None:
        """Sanity-check that the size ratios give a stable cell.

        Read stability requires the pull-down to be stronger than the
        access device (beta ratio > 1); writability requires the access to
        be stronger than the pull-up.
        """
        if PULL_DOWN_RATIO <= ACCESS_RATIO:
            raise CircuitError("6T cell is read-unstable: beta ratio <= 1")
        if ACCESS_RATIO <= PULL_UP_RATIO:
            raise CircuitError("6T cell is unwritable: access weaker than pull-up")
