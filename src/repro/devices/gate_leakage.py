"""Direct-tunnelling gate leakage model.

For sub-20 Å oxides, carriers tunnel directly through the gate dielectric.
The full WKB expression is unwieldy; over the paper's narrow design window
(10-14 Å, ~1 V) the standard compact approximation is::

    Jg(V, tox) = K * (V / tox)^2 * exp(-B * tox * f(V))

i.e. a Fowler-Nordheim-style field-squared prefactor times an exponential
in the physical oxide thickness.  ``f(V) = 1 - V / (4 * phi_b)`` supplies
the weak barrier-lowering voltage dependence (phi_b ~ 3.1 eV for the
Si/SiO2 electron barrier).  ``B`` is calibrated so the current density
drops roughly one decade per 2 Å of added oxide, matching measured 65 nm-era
data (~1e3 A/cm^2 at 10 Å / 1 V, ~1 A/cm^2 at 14 Å).

This exponential Tox dependence is what the paper's fitted total-leakage
form captures with its ``A2 * exp(a2 * Tox)`` term, and it is the reason
total leakage cannot be minimised by raising Vth alone: once subthreshold
conduction is suppressed, the gate-tunnelling floor remains and only Tox
moves it.

State dependence: tunnelling requires an inverted channel, so an ON
transistor (|Vgs| = Vdd) leaks through its full channel area while an OFF
transistor leaks only through edge-direct-tunnelling at the gate/drain
overlap — modelled as a fixed small fraction of the ON current.  PMOS
devices tunnel holes through a higher barrier and leak roughly an order of
magnitude less.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DeviceModelError
from repro.technology.bptm import Technology

#: Si/SiO2 electron barrier height used in the voltage-dependence factor (V).
BARRIER_HEIGHT = 3.1

#: Edge-direct-tunnelling fraction: gate leakage of an OFF device relative
#: to the same device ON (overlap region only).
EDT_FRACTION = 0.10

#: PMOS gate tunnelling relative to NMOS at the same field (hole barrier
#: is ~4.5 eV vs ~3.1 eV, suppressing the current roughly 10x).
PMOS_TUNNEL_RATIO = 0.10


def gate_current_density(technology: Technology, voltage: float, tox: float) -> float:
    """Return the gate direct-tunnelling current density (A/m^2).

    Parameters
    ----------
    voltage:
        Magnitude of the oxide voltage (V); 0 returns 0.
    tox:
        Physical oxide thickness (m).

    Both arguments may be numpy arrays; they broadcast and the density
    comes back with the broadcast shape.  Arrays are evaluated element by
    element on the scalar (``math``) path: numpy's ``exp`` differs from
    ``math.exp`` in the last ulp, and a grid column of gate currents must
    equal the scalar evaluation at its Tox exactly.
    """
    if isinstance(voltage, np.ndarray) or isinstance(tox, np.ndarray):
        voltages, toxes = np.broadcast_arrays(voltage, tox)
        return np.reshape([
            gate_current_density(technology, v, t)
            for v, t in zip(voltages.ravel().tolist(), toxes.ravel().tolist())
        ], voltages.shape)
    if tox <= 0:
        raise DeviceModelError(f"tox must be positive, got {tox}")
    if voltage < 0:
        raise DeviceModelError(
            f"oxide voltage magnitude must be >= 0, got {voltage}"
        )
    if voltage == 0.0:
        return 0.0
    barrier_factor = 1.0 - voltage / (4.0 * BARRIER_HEIGHT)
    if barrier_factor <= 0:
        raise DeviceModelError(
            f"oxide voltage {voltage} V exceeds the model's validity (>~12 V)"
        )
    field_term = (voltage / tox) ** 2
    return (
        technology.gate_tunnel_k
        * field_term
        * math.exp(-technology.gate_tunnel_b * tox * barrier_factor)
    )


def gate_tunnel_current(
    technology: Technology,
    width: float,
    lgate: float,
    tox: float,
    vgs: float = None,
    conducting: bool = True,
    p_type: bool = False,
) -> float:
    """Return the gate leakage current (A) of one transistor.

    Parameters
    ----------
    width, lgate:
        Gate geometry (m).  The *drawn* length is used because tunnelling
        happens over the whole physical gate area.
    tox:
        Oxide thickness (m).
    vgs:
        Gate bias magnitude (V); defaults to the full supply.
    conducting:
        True for an ON device (channel inverted, full-area tunnelling);
        False applies the edge-direct-tunnelling fraction.
    p_type:
        Apply the PMOS hole-tunnelling suppression.
    """
    if not isinstance(width, np.ndarray) and not isinstance(lgate, np.ndarray):
        if width <= 0 or lgate <= 0:
            raise DeviceModelError(
                f"gate geometry must be positive, got W={width}, L={lgate}"
            )
    elif np.any(np.less_equal(width, 0)) or np.any(np.less_equal(lgate, 0)):
        raise DeviceModelError(
            f"gate geometry must be positive, got W={width}, L={lgate}"
        )
    if vgs is None:
        vgs = technology.vdd
    density = gate_current_density(technology, vgs, tox)
    current = density * width * lgate
    if not conducting:
        current *= EDT_FRACTION
    if p_type:
        current *= PMOS_TUNNEL_RATIO
    return current


def decades_per_angstrom(technology: Technology, voltage: float = None) -> float:
    """Return how many decades gate current drops per added ångström.

    A calibration figure of merit: physical oxides show ~0.4-0.6
    decades/Å.  Used by the test suite to pin the model to measured
    sensitivity.
    """
    if voltage is None:
        voltage = technology.vdd
    j_lo = gate_current_density(technology, voltage, 10e-10)
    j_hi = gate_current_density(technology, voltage, 11e-10)
    return math.log10(j_lo / j_hi)
