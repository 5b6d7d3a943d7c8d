"""Address and data bus drivers.

The paper's third and fourth cache components: the drivers that move the
address into the array (one driver per address bit) and the read data out
to the cache port (one per output bit).  Each line is a geometric buffer
chain pushing a long bus wire whose length is set by the physical extent
of the array — so both the wire load and the drivers themselves grow when
thicker oxide inflates the cell footprint.

Bus wires are the most wire-dominated structures in the cache, which makes
the drivers the component whose delay is *least* sensitive to Tox (the
wire doesn't care about the oxide) and whose optimal assignment is the most
aggressive — exactly the Scheme II behaviour the paper reports.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError
from repro.technology.bptm import Technology
from repro.technology.scaling import ToxScalingRule
from repro.circuits.logical_effort import ELMORE_LN2, optimal_buffer_chain
from repro.circuits.wires import Wire


@dataclass(frozen=True)
class DriverCost:
    """Evaluation of a driver bank at one knob point."""

    delay: float
    leakage_current: float
    dynamic_energy: float
    transistor_count: int


@dataclass(frozen=True)
class BusDriver:
    """A bank of ``n_lines`` identical bus-line drivers.

    Parameters
    ----------
    n_lines:
        Number of bus lines (address bits or data-out bits).
    wire:
        The RC wire of one line.
    far_end_load:
        Lumped capacitance (F) at the receiving end of each line.
    activity:
        Fraction of lines that toggle on a typical access (address buses
        toggle a low-order subset; data buses approach 0.5 random data).
    """

    technology: Technology
    rule: ToxScalingRule
    n_lines: int
    wire: Wire
    far_end_load: float
    activity: float = 0.5
    gate_enabled: bool = True

    def __post_init__(self) -> None:
        if self.n_lines < 1:
            raise CircuitError(f"driver bank needs >= 1 line, got {self.n_lines}")
        if not 0.0 <= self.activity <= 1.0:
            raise CircuitError(f"activity must be in [0, 1], got {self.activity}")
        if self.far_end_load < 0:
            raise CircuitError(
                f"far-end load must be >= 0, got {self.far_end_load}"
            )

    def evaluate(self, vth: float, tox: float) -> DriverCost:
        """Return delay / leakage / energy of the bank at (vth, tox).

        For a grid, ``vth`` is an ``(n_vth, 1)`` column, ``tox`` a
        ``(1, n_tox)`` row and the wire one length per Tox column.
        """
        tech = self.technology
        geometry = self.rule.geometry(tox)
        line_load = self.wire.capacitance + self.far_end_load

        chain = optimal_buffer_chain(
            tech,
            load_capacitance=line_load,
            leff=geometry.leff,
            lgate=geometry.lgate_drawn,
            vth=vth,
            tox=tox,
            gate_enabled=self.gate_enabled,
        )

        # Delay: chain internal stages + distributed wire for the final hop.
        # The chain charged its final stage against the lumped line load;
        # subtract exactly that term before the distributed model
        # replaces it.
        r_last = chain.output_resistance
        internal = chain.delay - ELMORE_LN2 * r_last * (
            line_load + chain.output_capacitance
        )
        wire_delay = self.wire.elmore_delay(r_last, self.far_end_load)
        delay = np.maximum(internal, 0.0) + wire_delay

        # Leakage: every line's chain leaks whether or not it toggles.
        leakage = self.n_lines * (
            chain.subthreshold_leakage + chain.gate_leakage
        )

        # Dynamic energy: toggling lines switch their chain + wire + load.
        vdd = tech.vdd
        energy = (
            self.activity
            * self.n_lines
            * chain.switched_capacitance
            * vdd
            * vdd
        )

        count = self.n_lines * 2 * chain.stage_count
        return DriverCost(
            delay=delay,
            leakage_current=leakage,
            dynamic_energy=energy,
            transistor_count=count,
        )
