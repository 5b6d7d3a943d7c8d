"""Distributed-RC metal wire model.

Word lines, bit lines and buses are modelled as uniform RC lines with the
per-unit-length parasitics of the technology's mid-level metal.  The delay
of a driver R_d pushing a signal through a distributed line of total
resistance R_w and capacitance C_w into a lumped far-end load C_l follows
the Elmore form::

    t = 0.69 * (R_d * (C_w + C_l) + R_w * (C_w / 2 + C_l))

Wires are Tox-*independent* — their parasitics are set by metal geometry,
not by the transistor oxide.  That independence is what dilutes the Tox
delay sensitivity of wire-dominated paths relative to gate-dominated ones,
and it contributes to the near-linear Tox-delay trend the paper fits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import CircuitError
from repro.technology.bptm import Technology
from repro.circuits.logical_effort import ELMORE_LN2


@dataclass(frozen=True)
class Wire:
    """A uniform RC wire of a given length.

    Attributes
    ----------
    length:
        Physical length (m); a row of lengths for a row of Tox columns.
    res_per_m / cap_per_m:
        Per-unit-length parasitics (ohm/m, F/m).
    """

    length: float
    res_per_m: float
    cap_per_m: float

    def __post_init__(self) -> None:
        # ``length`` is an array when a grid carries one wire per Tox column.
        if not isinstance(self.length, np.ndarray):
            if self.length < 0:
                raise CircuitError(f"wire length must be >= 0, got {self.length}")
        elif np.any(np.less(self.length, 0)):
            raise CircuitError(f"wire length must be >= 0, got {self.length}")
        if self.res_per_m < 0 or self.cap_per_m < 0:
            raise CircuitError(
                "wire parasitics must be non-negative, got "
                f"r={self.res_per_m}, c={self.cap_per_m}"
            )

    @classmethod
    def from_technology(cls, technology: Technology, length: float) -> "Wire":
        """Build a wire with the technology's mid-level metal parasitics."""
        return cls(
            length=length,
            res_per_m=technology.wire_res_per_m,
            cap_per_m=technology.wire_cap_per_m,
        )

    @property
    def resistance(self) -> float:
        """Total wire resistance (ohm)."""
        return self.res_per_m * self.length

    @property
    def capacitance(self) -> float:
        """Total wire capacitance (F)."""
        return self.cap_per_m * self.length

    def elmore_delay(self, driver_resistance: float, load_capacitance: float) -> float:
        """Return the 50 %-point delay (s) through this wire.

        Parameters
        ----------
        driver_resistance:
            Effective resistance (ohm) of the gate driving the near end.
        load_capacitance:
            Lumped load (F) at the far end.
        """
        if not isinstance(driver_resistance, np.ndarray) and not isinstance(load_capacitance, np.ndarray):
            if driver_resistance < 0 or load_capacitance < 0:
                raise CircuitError(
                    "driver resistance and load capacitance must be >= 0, got "
                    f"R={driver_resistance}, C={load_capacitance}"
                )
        elif np.any(np.less(driver_resistance, 0)) or np.any(
            np.less(load_capacitance, 0)
        ):
            raise CircuitError(
                "driver resistance and load capacitance must be >= 0, got "
                f"R={driver_resistance}, C={load_capacitance}"
            )
        return ELMORE_LN2 * (
            driver_resistance * (self.capacitance + load_capacitance)
            + self.resistance * (0.5 * self.capacitance + load_capacitance)
        )
