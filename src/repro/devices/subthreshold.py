"""Subthreshold (weak-inversion) leakage model.

The drain current of a MOSFET biased below threshold is exponential in the
gate overdrive::

    Isub = I0 * (W / Leff) * exp((Vgs - Vth_eff) / (n * vT)) * (1 - exp(-Vds / vT))

with the BSIM-style pre-exponential ``I0 = mu * Cox * vT^2 * e^1.8`` and an
effective threshold that is reduced by drain-induced barrier lowering
(DIBL) and raised by reverse body bias::

    Vth_eff = Vth + eta * (Vdd - Vds) + gamma_body * Vsb

**Vth convention.** Throughout this library, the design knob ``Vth`` is the
*saturated* threshold voltage — the threshold at ``Vds = Vdd`` — because
that is the worst-case standby condition the paper's leakage numbers refer
to.  The DIBL term therefore *adds* threshold back as the drain bias drops
below the supply, rather than subtracting it at full bias.  This makes
"Vth = 0.2 V" directly comparable with the paper's design range.

The exponential Vth dependence here is exactly what makes the paper's
fitted leakage form ``A1 * exp(a1 * Vth)`` work (Section 3).
"""

from __future__ import annotations

import math

import numpy as np

from repro import units
from repro.errors import DeviceModelError
from repro.technology.bptm import Technology


def effective_threshold(
    technology: Technology,
    vth: float,
    vds: float,
    vsb: float = 0.0,
) -> float:
    """Return the DIBL- and body-adjusted threshold voltage (V).

    Parameters
    ----------
    technology:
        Process node supplying the DIBL coefficient and body factor.
    vth:
        Saturated threshold voltage (at ``Vds = Vdd``), in volts.
    vds:
        Actual drain-source bias (V); lower bias raises the barrier.
    vsb:
        Source-body reverse bias (V); used by the stack model.

    Every bias argument may be a scalar or a numpy array; arrays
    broadcast through and the adjusted threshold comes back with the
    broadcast shape.
    """
    if not isinstance(vth, np.ndarray) and not isinstance(vds, np.ndarray) and not isinstance(vsb, np.ndarray):
        dibl_recovery = technology.dibl * max(technology.vdd - vds, 0.0)
        body = technology.body_effect_gamma * max(vsb, 0.0)
        return vth + dibl_recovery + body
    dibl_recovery = technology.dibl * np.maximum(technology.vdd - vds, 0.0)
    body = technology.body_effect_gamma * np.maximum(vsb, 0.0)
    return vth + dibl_recovery + body


def subthreshold_prefactor(technology: Technology, tox: float, p_type: bool = False) -> float:
    """Return the BSIM-style pre-exponential I0 (A) for W/Leff = 1.

    ``I0 = mu * Cox(tox) * vT^2 * e^1.8``.  The hole branch uses the
    degraded p-channel mobility.
    """
    vt = technology.thermal_voltage
    mobility = technology.mobility_p if p_type else technology.mobility_n
    return mobility * technology.cox(tox) * vt * vt * math.exp(1.8)


def subthreshold_current(
    technology: Technology,
    width: float,
    leff: float,
    vth: float,
    tox: float,
    vgs: float = 0.0,
    vds: float = None,
    vsb: float = 0.0,
    p_type: bool = False,
) -> float:
    """Return the subthreshold drain current (A) of a single transistor.

    Parameters
    ----------
    width, leff:
        Transistor width and effective channel length (m).
    vth:
        Saturated threshold voltage (V); see module docstring for the
        convention.
    tox:
        Gate-oxide thickness (m), which sets Cox in the pre-exponential.
    vgs, vds, vsb:
        Terminal biases (V).  For a PMOS, pass the *magnitudes* (the model
        is symmetric in polarity).  ``vds`` defaults to the full supply,
        the standby worst case.
    p_type:
        Use hole mobility for the pre-exponential.

    ``vth``, ``tox`` and the biases may be numpy arrays; they broadcast
    and the current comes back with the broadcast shape.  Validation is
    applied element-wise (any offending element raises).

    Raises
    ------
    DeviceModelError
        If geometry is non-positive or the gate bias puts the device into
        strong inversion (``vgs >= vth_eff``), where this weak-inversion
        model is not valid.
    """
    if vds is None:
        vds = technology.vdd
    scalar = (
        not isinstance(width, np.ndarray)
        and not isinstance(leff, np.ndarray)
        and not isinstance(vth, np.ndarray)
        and not isinstance(tox, np.ndarray)
        and not isinstance(vgs, np.ndarray)
        and not isinstance(vds, np.ndarray)
        and not isinstance(vsb, np.ndarray)
    )
    if scalar:
        if width <= 0 or leff <= 0:
            raise DeviceModelError(
                f"transistor geometry must be positive, got W={width}, Leff={leff}"
            )
        if vds < 0 or vgs < 0:
            raise DeviceModelError(
                f"bias magnitudes must be non-negative, got Vgs={vgs}, Vds={vds}"
            )
        vth_eff = effective_threshold(technology, vth, vds, vsb)
        if vgs >= vth_eff:
            raise DeviceModelError(
                f"Vgs={vgs:.3f} V >= effective Vth={vth_eff:.3f} V: device is in "
                "strong inversion; use repro.devices.delay.on_current instead"
            )
        vt = technology.thermal_voltage
        n = technology.subthreshold_swing_n
        i0 = subthreshold_prefactor(technology, tox, p_type=p_type)
        exponent = (vgs - vth_eff) / (n * vt)
        drain_term = 1.0 - math.exp(-vds / vt) if vds > 0 else 0.0
        return i0 * (width / leff) * math.exp(exponent) * drain_term

    if np.any(np.less_equal(width, 0)) or np.any(np.less_equal(leff, 0)):
        raise DeviceModelError(
            f"transistor geometry must be positive, got W={width}, Leff={leff}"
        )
    if np.any(np.less(vds, 0)) or np.any(np.less(vgs, 0)):
        raise DeviceModelError(
            f"bias magnitudes must be non-negative, got Vgs={vgs}, Vds={vds}"
        )

    i0 = subthreshold_prefactor(technology, tox, p_type=p_type)
    return weak_inversion_current(
        technology, i0 * (width / leff), vth, vgs, vds, vsb
    )


def weak_inversion_current(
    technology: Technology,
    i0_ratio,
    vth,
    vgs,
    vds,
    vsb=0.0,
):
    """The array branch of :func:`subthreshold_current` past its geometry
    and bias checks.

    ``i0_ratio`` is the pre-exponential times ``W / Leff``.  An iterative
    solver that evaluates the same devices at many biases (the stack
    node's bisection) computes it once and checks its inputs once; only
    the strong-inversion check depends on the bias and stays here.
    """
    vth_eff = effective_threshold(technology, vth, vds, vsb)
    if np.any(np.greater_equal(vgs, vth_eff)):
        raise DeviceModelError(
            f"Vgs={vgs} V >= effective Vth={vth_eff} V: device is in "
            "strong inversion; use repro.devices.delay.on_current instead"
        )
    vt = technology.thermal_voltage
    n = technology.subthreshold_swing_n
    exponent = (vgs - vth_eff) / (n * vt)
    drain_term = np.where(np.greater(vds, 0), 1.0 - np.exp(-np.divide(vds, vt)), 0.0)
    return i0_ratio * np.exp(exponent) * drain_term


def off_current_per_width(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float,
    p_type: bool = False,
) -> float:
    """Return the standby off-current per metre of width (A/m).

    Convenience for calibration tests: the industry-standard figure of
    merit is Ioff in nA/um at ``Vgs = 0``, ``Vds = Vdd``.
    """
    return subthreshold_current(
        technology,
        width=1.0,
        leff=leff,
        vth=vth,
        tox=tox,
        vgs=0.0,
        vds=technology.vdd,
        p_type=p_type,
    )


def subthreshold_swing(technology: Technology) -> float:
    """Return the subthreshold swing S (V/decade).

    ``S = n * vT * ln(10)`` — about 90 mV/dec for n = 1.45 at 300 K.
    Exposed because leakage-vs-Vth slopes in tests are expressed as
    decades-per-volt = 1/S.
    """
    return technology.subthreshold_swing_n * technology.thermal_voltage * math.log(10.0)


def leakage_temperature_scale(
    technology: Technology, vth: float, temperature_k: float
) -> float:
    """Return the multiplier on standby Isub when heating to ``temperature_k``.

    Captures both the vT in the exponent and the vT^2 pre-exponential;
    used by the corner analyses (leakage roughly doubles every ~10-15 K
    for near-threshold devices).
    """
    if temperature_k <= 0:
        raise DeviceModelError(f"temperature must be positive, got {temperature_k}")
    vt_ref = technology.thermal_voltage
    vt_new = units.thermal_voltage(temperature_k)
    n = technology.subthreshold_swing_n
    # Standby bias: Vgs = 0, Vds = Vdd -> exponent is -Vth / (n vT).
    ratio = (vt_new / vt_ref) ** 2 * np.exp(
        (-vth / (n * vt_new)) - (-vth / (n * vt_ref))
    )
    return ratio
