"""The :class:`Mosfet` value object.

A :class:`Mosfet` bundles a sized transistor (polarity, W, L) with its
process-knob assignment (Vth, Tox) and exposes the leakage / drive /
capacitance queries the circuit layer needs.  It is deliberately immutable:
circuit builders create transistor populations once per (Vth, Tox)
evaluation point and the models never mutate them.

A :class:`Mosfet` checks its geometry and knobs once, when it is built;
its queries then run the device kernels unchecked.  The circuits build
:class:`UncheckedMosfet` populations instead: they sit below a cache
component's :func:`check_knobs`, which has already checked every knob
those devices derive from.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, replace

import numpy as np

from repro.errors import DeviceModelError
from repro.technology.bptm import Technology, check_oxide
from repro.devices import subthreshold as _sub
from repro.devices import gate_leakage as _gate
from repro.devices import delay as _delay


def check_knobs(technology: Technology, vth, tox) -> None:
    """Raise unless every device model accepts every (Vth, Tox) knob.

    The evaluation path's one knob check: the cache components run it
    at their boundary (``evaluate`` and ``evaluate_grid``) and the
    circuits below it call the device kernels unchecked.  ``vth`` and
    ``tox`` may be scalars or numpy arrays.  It rejects

    * a non-finite knob (:class:`DeviceModelError`);
    * ``Tox <= 0`` (:class:`~repro.errors.TechnologyError`, as
      :meth:`Technology.cox` and the Tox co-scaling rule raise);
    * ``Vth <= 0``: an OFF device's effective threshold at ``Vgs = 0``
      is Vth plus non-negative DIBL and body terms, so this is exactly a
      device in strong inversion (:class:`DeviceModelError`);
    * ``Vth >= Vdd``: the device never turns on (:class:`DeviceModelError`).
    """
    if not isinstance(vth, np.ndarray) and not isinstance(tox, np.ndarray):
        if not (math.isfinite(vth) and math.isfinite(tox)):
            raise DeviceModelError(
                f"knobs must be finite, got Vth={vth}, Tox={tox}"
            )
        check_oxide(tox)
        if vth <= 0:
            raise DeviceModelError(
                f"Vth={vth} V <= 0: OFF devices are in strong inversion"
            )
    else:
        if not (np.isfinite(vth).all() and np.isfinite(tox).all()):
            raise DeviceModelError(
                f"knobs must be finite, got Vth={vth}, Tox={tox}"
            )
        check_oxide(tox)
        if np.any(np.less_equal(vth, 0)):
            raise DeviceModelError(
                f"Vth={vth} V <= 0: OFF devices are in strong inversion"
            )
    _delay.check_turns_on(technology, vth)


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

    def _check_turns_on(self, technology: Technology) -> None:
        """The drive queries' one check beyond construction: ``Vth < Vdd``."""
        _delay.check_turns_on(technology, self.vth)

    # -- leakage --------------------------------------------------------

    def off_subthreshold(
        self, technology: Technology, vds: float = None
    ) -> float:
        """Return standby subthreshold current (A) when this device is OFF.

        A single device: series stacks scale this by
        :mod:`repro.devices.stack`'s factor (see the row decoder).  At the
        default full-supply bias a built device is in weak inversion
        (``Vth > 0``), so only a caller-chosen ``vds`` is checked.
        """
        if vds is not None:
            return _sub.subthreshold_current(
                technology,
                width=self.width,
                leff=self.leff,
                vth=self.vth,
                tox=self.tox,
                vgs=0.0,
                vds=vds,
                p_type=self.is_pmos,
            )
        return _sub.subthreshold_kernel(
            technology,
            width=self.width,
            leff=self.leff,
            vth=self.vth,
            tox=self.tox,
            vgs=0.0,
            vds=technology.vdd,
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
        return _gate.gate_tunnel_kernel(
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
        self._check_turns_on(technology)
        return _delay.on_current_kernel(
            technology, self.width, self.leff, self.vth, self.tox,
            p_type=self.is_pmos,
        )

    def resistance(self, technology: Technology) -> float:
        """Return the effective switching resistance (ohm)."""
        self._check_turns_on(technology)
        return _delay.resistance_kernel(
            technology, self.width, self.leff, self.vth, self.tox,
            p_type=self.is_pmos,
        )

    def input_capacitance(self, technology: Technology) -> float:
        """Return the gate input capacitance (F)."""
        return _delay.gate_capacitance_kernel(
            technology, self.width, self.lgate, self.tox
        )

    def drain_capacitance(self, technology: Technology) -> float:
        """Return the drain junction capacitance (F)."""
        return _delay.junction_capacitance_kernel(technology, self.width)


class UncheckedMosfet(Mosfet):
    """A :class:`Mosfet` that checks nothing, for circuits evaluated
    below a cache component's :func:`check_knobs`: their widths and
    lengths are positive constants scaled by a positive Tox factor, and
    the knobs have been checked."""

    def __post_init__(self) -> None:
        pass

    def _check_turns_on(self, technology: Technology) -> None:
        pass
