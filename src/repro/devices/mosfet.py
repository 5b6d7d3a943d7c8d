"""The :class:`Mosfet` value object.

A :class:`Mosfet` bundles a sized transistor (polarity, W, L) with its
process-knob assignment (Vth, Tox) and exposes the leakage / drive /
capacitance queries the circuit layer needs.  It is deliberately immutable:
circuit builders create transistor populations once per (Vth, Tox)
evaluation point and the models never mutate them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import DeviceModelError
from repro.technology.bptm import Technology
from repro.devices import subthreshold as _sub
from repro.devices import gate_leakage as _gate
from repro.devices import delay as _delay


class Polarity(str, enum.Enum):
    """Transistor polarity."""

    NMOS = "nmos"
    PMOS = "pmos"


@dataclass(frozen=True)
class Mosfet:
    """A sized transistor with a (Vth, Tox) assignment.

    Attributes
    ----------
    polarity:
        NMOS or PMOS.
    width:
        Drawn width (m).
    lgate:
        Drawn gate length (m); tunnelling area uses this.
    leff:
        Effective channel length (m); conduction models use this.
    vth:
        Saturated threshold voltage magnitude (V).
    tox:
        Gate-oxide thickness (m).
    """

    polarity: Polarity
    width: float
    lgate: float
    leff: float
    vth: float
    tox: float

    def __post_init__(self) -> None:
        if isinstance(self.tox, np.ndarray):
            # Grid evaluation: Vth and the Tox-derived lengths are arrays.
            if (np.any(np.less_equal(self.width, 0))
                    or np.any(np.less_equal(self.lgate, 0))
                    or np.any(np.less_equal(self.leff, 0))):
                raise DeviceModelError(
                    f"geometry must be positive: W={self.width}, "
                    f"L={self.lgate}, Leff={self.leff}"
                )
            if np.any(np.greater(self.leff, self.lgate)):
                raise DeviceModelError(
                    f"Leff={self.leff} exceeds drawn length {self.lgate}"
                )
            if np.any(np.less_equal(self.vth, 0)):
                raise DeviceModelError(f"vth must be positive, got {self.vth}")
            if np.any(np.less_equal(self.tox, 0)):
                raise DeviceModelError(f"tox must be positive, got {self.tox}")
            return
        if self.width <= 0 or self.lgate <= 0 or self.leff <= 0:
            raise DeviceModelError(
                f"geometry must be positive: W={self.width}, "
                f"L={self.lgate}, Leff={self.leff}"
            )
        if self.leff > self.lgate:
            raise DeviceModelError(
                f"Leff={self.leff} exceeds drawn length {self.lgate}"
            )
        if not isinstance(self.vth, np.ndarray):
            if self.vth <= 0:
                raise DeviceModelError(f"vth must be positive, got {self.vth}")
        elif np.any(np.less_equal(self.vth, 0)):
            raise DeviceModelError(f"vth must be positive, got {self.vth}")
        if self.tox <= 0:
            raise DeviceModelError(f"tox must be positive, got {self.tox}")

    @property
    def is_pmos(self) -> bool:
        return self.polarity is Polarity.PMOS

    def with_knobs(self, vth: float = None, tox: float = None) -> "Mosfet":
        """Return a copy with a different (Vth, Tox) assignment."""
        return replace(
            self,
            vth=self.vth if vth is None else vth,
            tox=self.tox if tox is None else tox,
        )

    # -- leakage --------------------------------------------------------

    def off_subthreshold(
        self, technology: Technology, vds: float = None
    ) -> float:
        """Return standby subthreshold current (A) when this device is OFF.

        A single device: series stacks scale this by
        :mod:`repro.devices.stack`'s factor (see the row decoder).
        """
        return _sub.subthreshold_current(
            technology,
            width=self.width,
            leff=self.leff,
            vth=self.vth,
            tox=self.tox,
            vgs=0.0,
            vds=technology.vdd if vds is None else vds,
            p_type=self.is_pmos,
        )

    def gate_leakage(
        self, technology: Technology, conducting: bool, gate_enabled: bool = True
    ) -> float:
        """Return gate-tunnelling current (A) in the given channel state.

        ``gate_enabled=False`` is the ablation switch reproducing the
        pre-2005 "subthreshold only" literature mode.
        """
        if not gate_enabled:
            return 0.0
        return _gate.gate_tunnel_current(
            technology,
            width=self.width,
            lgate=self.lgate,
            tox=self.tox,
            conducting=conducting,
            p_type=self.is_pmos,
        )

    def total_standby_leakage(
        self,
        technology: Technology,
        conducting: bool,
        vds: float = None,
        gate_enabled: bool = True,
    ) -> float:
        """Return total standby leakage (A): subthreshold (if OFF) + gate.

        A conducting device has no subthreshold component (its channel is
        on) but maximal gate tunnelling; an OFF device has both, with the
        gate part reduced to the edge-tunnelling fraction.
        """
        gate = self.gate_leakage(technology, conducting, gate_enabled=gate_enabled)
        if conducting:
            return gate
        return self.off_subthreshold(technology, vds=vds) + gate

    # -- drive / capacitance ---------------------------------------------

    def on_current(self, technology: Technology) -> float:
        """Return the saturation drive current (A)."""
        return _delay.on_current(
            technology, self.width, self.leff, self.vth, self.tox,
            p_type=self.is_pmos,
        )

    def resistance(self, technology: Technology) -> float:
        """Return the effective switching resistance (ohm)."""
        return _delay.effective_resistance(
            technology, self.width, self.leff, self.vth, self.tox,
            p_type=self.is_pmos,
        )

    def input_capacitance(self, technology: Technology) -> float:
        """Return the gate input capacitance (F)."""
        return _delay.gate_capacitance(technology, self.width, self.lgate, self.tox)

    def drain_capacitance(self, technology: Technology) -> float:
        """Return the drain junction capacitance (F)."""
        return _delay.junction_capacitance(technology, self.width)
