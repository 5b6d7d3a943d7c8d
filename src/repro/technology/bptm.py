"""BPTM-style 65 nm technology parameter set.

The numbers below are anchored to the published Berkeley Predictive
Technology Model (BPTM, 2002) for the 65 nm node and to contemporaneous
ITRS 2003 projections: ~1.0 V supply, drawn gate length of 65 nm with an
effective channel length around 35 nm, nominal oxide around 12 Å, and
electron mobility degraded by the vertical field to roughly a third of the
bulk value.  They are deliberately kept as a plain frozen dataclass so a
test (or a corner, see :mod:`repro.technology.corners`) can derive a
perturbed copy with :func:`dataclasses.replace`.

The paper's design space is the grid ``Vth in [0.2 V, 0.5 V]`` x ``Tox in
[10 Å, 14 Å]`` — at 65 nm.  The bounds live on the :class:`Technology`
instance (``vth_min``/``vth_max``/``tox_min_a``/``tox_max_a``) so scaled
nodes (:mod:`repro.technology.nodes`) carry their own, node-correct
design ranges; the optimisers in :mod:`repro.optimize` clamp their
search grids to the bounds of the technology they were handed.  The
module constants below remain as the 65 nm values for backward
compatibility (they are the dataclass defaults).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as _np

from repro import units
from repro.errors import TechnologyError

# Design-space bounds from Section 2 of the paper.
VTH_MIN = 0.2
"""Lower Vth bound (V) — typical of high-performance logic at 65 nm."""

VTH_MAX = 0.5
"""Upper Vth bound (V) — above this is "unlikely in 65 nm with ~1 V supply"."""

TOX_MIN_A = 10.0
"""Lower Tox bound (Å)."""

TOX_MAX_A = 14.0
"""Upper Tox bound (Å)."""


@dataclass(frozen=True)
class Technology:
    """A frozen set of process parameters for one technology node.

    All quantities are SI.  A :class:`Technology` carries everything the
    device models need *except* the per-transistor knobs (Vth, Tox, W, L),
    which the paper treats as free design variables.

    Attributes
    ----------
    name:
        Human-readable node identifier, e.g. ``"bptm-65nm"``.
    vdd:
        Supply voltage (V).
    lgate_drawn:
        Nominal drawn gate length (m) at the reference oxide thickness.
    leff_ratio:
        Ratio of effective channel length to drawn length (dimensionless).
    tox_ref:
        Reference (nominal) oxide thickness (m); the Tox co-scaling rules
        in :mod:`repro.technology.scaling` are expressed relative to it.
    vth_ref:
        Nominal NMOS threshold voltage (V) of the fast logic transistor.
    wmin:
        Minimum transistor width (m).
    mobility_n / mobility_p:
        Effective electron / hole channel mobilities (m^2/Vs), already
        degraded for vertical field.
    subthreshold_swing_n:
        Subthreshold ideality factor ``n`` (dimensionless, S = n * vT * ln 10).
    dibl:
        DIBL coefficient ``eta`` (V/V): effective Vth drops by
        ``eta * Vds``.
    body_effect_gamma:
        Body-effect coefficient (V^0.5), used by the stack model.
    alpha_power:
        Velocity-saturation index of the alpha-power-law on-current model.
    gate_tunnel_k:
        Pre-exponential constant of the gate-tunnelling current density
        model (A/V^2 — multiplies (V/Tox)^2 * Tox^2... see
        :mod:`repro.devices.gate_leakage` for the exact form).
    gate_tunnel_b:
        Exponential Tox-sensitivity of gate tunnelling (1/m); calibrated so
        current drops about one decade per 2 Å of added oxide.
    temperature:
        Junction temperature (K).
    wire_res_per_m:
        Mid-level metal wire resistance per metre (ohm/m).
    wire_cap_per_m:
        Mid-level metal wire capacitance per metre (F/m).
    cell_height_ref / cell_width_ref:
        6T SRAM cell footprint (m) at the reference oxide thickness.
    junction_cap_per_width:
        Source/drain junction capacitance per unit transistor width (F/m).
    vth_min / vth_max:
        This node's (Vth) design-space bounds (V).
    tox_min_a / tox_max_a:
        This node's (Tox) design-space bounds (Å).
    """

    name: str = "bptm-65nm"
    vdd: float = 1.0
    lgate_drawn: float = 65e-9
    leff_ratio: float = 0.55
    tox_ref: float = units.angstrom(12.0)
    vth_ref: float = 0.22
    wmin: float = 90e-9
    mobility_n: float = 0.0060
    mobility_p: float = 0.0025
    subthreshold_swing_n: float = 1.45
    dibl: float = 0.15
    body_effect_gamma: float = 0.20
    alpha_power: float = 1.6
    gate_tunnel_k: float = 2.5e-7
    gate_tunnel_b: float = 1.10e10
    temperature: float = units.ROOM_TEMPERATURE
    wire_res_per_m: float = 4.2e5
    wire_cap_per_m: float = 2.4e-10
    cell_height_ref: float = 0.88e-6
    cell_width_ref: float = 1.46e-6
    junction_cap_per_width: float = 8.0e-10
    vth_min: float = VTH_MIN
    vth_max: float = VTH_MAX
    tox_min_a: float = TOX_MIN_A
    tox_max_a: float = TOX_MAX_A

    def __post_init__(self) -> None:
        if self.vdd <= 0:
            raise TechnologyError(f"vdd must be positive, got {self.vdd}")
        if not 0.0 < self.vth_min < self.vth_max:
            raise TechnologyError(
                f"need 0 < vth_min < vth_max, got "
                f"[{self.vth_min}, {self.vth_max}]"
            )
        if not 0.0 < self.tox_min_a < self.tox_max_a:
            raise TechnologyError(
                f"need 0 < tox_min_a < tox_max_a, got "
                f"[{self.tox_min_a}, {self.tox_max_a}]"
            )
        if self.tox_ref <= 0:
            raise TechnologyError(f"tox_ref must be positive, got {self.tox_ref}")
        if not 0.0 < self.leff_ratio <= 1.0:
            raise TechnologyError(
                f"leff_ratio must be in (0, 1], got {self.leff_ratio}"
            )
        if self.temperature <= 0:
            raise TechnologyError(
                f"temperature must be positive kelvin, got {self.temperature}"
            )
        if self.wmin <= 0:
            raise TechnologyError(f"wmin must be positive, got {self.wmin}")

    # -- derived quantities -------------------------------------------------

    @property
    def leff(self) -> float:
        """Effective channel length (m) at the reference oxide thickness."""
        return self.lgate_drawn * self.leff_ratio

    @property
    def thermal_voltage(self) -> float:
        """kT/q at the technology's junction temperature (V)."""
        return units.thermal_voltage(self.temperature)

    @property
    def subthreshold_swing_mv_dec(self) -> float:
        """Subthreshold swing S in mV/decade (~90 mV/dec at 300 K, n=1.45)."""
        import math

        return self.subthreshold_swing_n * self.thermal_voltage * math.log(10) * 1e3

    def cox(self, tox: float) -> float:
        """Gate-oxide capacitance per unit area (F/m^2) for thickness ``tox`` (m).

        ``tox`` may be a numpy array; the capacitance broadcasts with it.
        The device kernels call :func:`repro.units.oxide_capacitance_kernel`
        directly, past this check.
        """
        check_oxide(tox)
        return units.oxide_capacitance_kernel(tox)

    def with_temperature(self, temperature_k: float) -> "Technology":
        """Return a copy of this technology at a different junction temperature."""
        return dataclasses.replace(self, temperature=temperature_k)


def check_oxide(tox) -> None:
    """Raise :class:`TechnologyError` unless every ``tox`` (m) is positive.

    ``tox`` may be a scalar or a numpy array.
    """
    if not isinstance(tox, _np.ndarray):
        if tox <= 0:
            raise TechnologyError(f"tox must be positive, got {tox}")
    elif _np.any(_np.less_equal(tox, 0)):
        raise TechnologyError(f"tox must be positive, got {tox}")


def bptm65() -> Technology:
    """Return the canonical BPTM-style 65 nm technology used throughout.

    This is a plain constructor call (the dataclass defaults *are* the
    node); it exists so call sites read ``bptm65()`` rather than
    ``Technology()``.
    """
    return Technology()


def check_design_box(box, vths=(), toxes_a=(), error=TechnologyError) -> None:
    """Raise ``error`` unless every knob value lies in ``box``.

    The one design-box rule: each Vth (V) must lie in
    ``[box.vth_min, box.vth_max]`` exactly, and each Tox (Å) in
    ``[box.tox_min_a, box.tox_max_a]`` within 1e-9 Å (a Tox stored in
    metres reads back in ångströms exact only to rounding).  ``box`` is
    anything carrying those four bounds: a :class:`Technology` or a
    :class:`~repro.optimize.space.DesignSpace`.
    """
    name = getattr(box, "name", None)
    where = f"the {name} design box" if name else "the design box"
    for label, values, low, high, unit, slack in (
        ("Vth", vths, box.vth_min, box.vth_max, "V", 0.0),
        ("Tox", toxes_a, box.tox_min_a, box.tox_max_a, "Å", 1e-9),
    ):
        for value in values:
            if not low - slack <= value <= high + slack:
                bound = (
                    f"below the minimum {low:g}" if value < low
                    else f"above the maximum {high:g}"
                )
                raise error(f"{label} {value:g} {unit} is {bound} {unit} "
                            f"of {where}")
