"""Drive current, switching resistance and capacitance models.

Delay in this library is computed with the classic RC / logical-effort
abstraction: every gate is a resistance (set by its drive transistor's
saturation current) charging a load capacitance (gates + junctions +
wires).  The saturation current follows the **alpha-power law**::

    Idsat = (mu * Cox / 2) * (W / Leff) * (Vdd - Vth)^alpha

with ``alpha ~ 1.3`` capturing velocity saturation at 65 nm.  Two separate
Tox effects enter delay:

* Cox = eps_ox / Tox falls with thicker oxide, weakening drive, and
* the paper's co-scaling rule lengthens the channel with Tox
  (:mod:`repro.technology.scaling`), weakening drive again and enlarging
  the cell (longer word lines / bit lines).

Over the 10-14 Å window the combination is close to linear in Tox, which
is exactly the ``k2 * Tox`` term of the paper's fitted delay form; the
``(Vdd - Vth)^-alpha`` drive dependence linearises to the paper's weak
exponential ``k1 * exp(k3 * Vth)``.
"""

from __future__ import annotations

import numpy as np

from repro import units
from repro.errors import DeviceModelError
from repro.technology.bptm import Technology, check_oxide

#: Multiplier converting Vdd/Idsat into the effective switching resistance
#: of a step-driven transistor (accounts for the drain current trajectory
#: over the output transition; the classic value is ~1.2-1.5).
RESISTANCE_FUDGE = 2.6

#: Fraction of gate-oxide capacitance added by fringing/overlap.
FRINGE_FACTOR = 1.25


def check_turns_on(technology: Technology, vth) -> None:
    """Raise :class:`DeviceModelError` unless every ``vth`` is below Vdd."""
    if not isinstance(vth, np.ndarray):
        if technology.vdd - vth <= 0:
            raise DeviceModelError(
                f"Vth={vth} V >= Vdd={technology.vdd} V: device never turns on"
            )
    elif np.any(np.less_equal(technology.vdd - vth, 0)):
        raise DeviceModelError(
            f"Vth={vth} V >= Vdd={technology.vdd} V: device never turns on"
        )


def _check_drive(technology: Technology, width, leff, vth, tox) -> None:
    """The checks of :func:`on_current` and :func:`effective_resistance`."""
    if not isinstance(width, np.ndarray) and not isinstance(leff, np.ndarray):
        if width <= 0 or leff <= 0:
            raise DeviceModelError(
                f"transistor geometry must be positive, got W={width}, Leff={leff}"
            )
    elif np.any(np.less_equal(width, 0)) or np.any(np.less_equal(leff, 0)):
        raise DeviceModelError(
            f"transistor geometry must be positive, got W={width}, Leff={leff}"
        )
    check_turns_on(technology, vth)
    check_oxide(tox)


def on_current(
    technology: Technology,
    width: float,
    leff: float,
    vth: float,
    tox: float,
    p_type: bool = False,
) -> float:
    """Return the saturation drive current (A) via the alpha-power law.

    Raises :class:`DeviceModelError` if the device cannot turn on
    (``Vth >= Vdd``) — designs that high-threshold are outside the paper's
    space and would otherwise silently produce zero drive.

    ``vth`` and ``tox`` may be numpy arrays; they broadcast and the drive
    current comes back with the broadcast shape.
    """
    _check_drive(technology, width, leff, vth, tox)
    return on_current_kernel(technology, width, leff, vth, tox, p_type)


def on_current_kernel(technology: Technology, width, leff, vth, tox,
                      p_type: bool = False):
    """:func:`on_current` past its checks (``Vth < Vdd``, positive
    geometry and Tox hold by construction below a component's knob
    check)."""
    if not isinstance(width, np.ndarray) and not isinstance(leff, np.ndarray) and not isinstance(vth, np.ndarray):
        overdrive = technology.vdd - vth
    else:
        overdrive = technology.vdd - np.asarray(vth, dtype=float)
    mobility = technology.mobility_p if p_type else technology.mobility_n
    cox = units.oxide_capacitance_kernel(tox)
    return 0.5 * mobility * cox * (width / leff) * overdrive ** technology.alpha_power


def effective_resistance(
    technology: Technology,
    width: float,
    leff: float,
    vth: float,
    tox: float,
    p_type: bool = False,
) -> float:
    """Return the effective switching resistance (ohm) of one transistor.

    ``R = fudge * Vdd / Idsat`` — the standard RC-delay abstraction.
    """
    _check_drive(technology, width, leff, vth, tox)
    return resistance_kernel(technology, width, leff, vth, tox, p_type)


def resistance_kernel(technology: Technology, width, leff, vth, tox,
                      p_type: bool = False):
    """:func:`effective_resistance` past its checks."""
    ids = on_current_kernel(technology, width, leff, vth, tox, p_type=p_type)
    return RESISTANCE_FUDGE * technology.vdd / ids


def gate_capacitance(
    technology: Technology,
    width: float,
    lgate: float,
    tox: float,
) -> float:
    """Return the input (gate) capacitance (F) of one transistor.

    Uses the drawn length (the whole gate sits over oxide) plus a fringe
    factor.  Thicker oxide *reduces* gate capacitance — one of the two
    reasons Tox has a weaker delay effect than its drive penalty alone
    would suggest.
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
    check_oxide(tox)
    return gate_capacitance_kernel(technology, width, lgate, tox)


def gate_capacitance_kernel(technology: Technology, width, lgate, tox):
    """:func:`gate_capacitance` past its checks."""
    return FRINGE_FACTOR * units.oxide_capacitance_kernel(tox) * width * lgate


def junction_capacitance(technology: Technology, width: float) -> float:
    """Return the source/drain junction capacitance (F) of one transistor.

    Junction capacitance scales with width but *not* with Tox, which is why
    wire/junction-dominated paths (bit lines, buses) dilute the Tox delay
    sensitivity relative to gate-load-dominated paths.
    """
    if not isinstance(width, np.ndarray):
        if width <= 0:
            raise DeviceModelError(f"width must be positive, got {width}")
    elif np.any(np.less_equal(width, 0)):
        raise DeviceModelError(f"width must be positive, got {width}")
    return junction_capacitance_kernel(technology, width)


def junction_capacitance_kernel(technology: Technology, width):
    """:func:`junction_capacitance` past its check."""
    return technology.junction_cap_per_width * width


def fo4_delay(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float = None,
    lgate: float = None,
) -> float:
    """Return the fanout-of-4 inverter delay (s) at the given knobs.

    The universal speed yardstick: an inverter driving four copies of
    itself.  Uses a 2:1 P:N inverter at minimum width.  Useful both for
    calibration tests (65 nm FO4 should be ~15-25 ps at the fast corner of
    the design space) and for expressing component delays in
    technology-neutral units.
    """
    if leff is None:
        leff = technology.leff
    if lgate is None:
        lgate = technology.lgate_drawn
    wn = technology.wmin
    wp = 2.0 * technology.wmin
    r_n = effective_resistance(technology, wn, leff, vth, tox)
    c_in = gate_capacitance(technology, wn + wp, lgate, tox)
    c_self = junction_capacitance(technology, wn + wp)
    return 0.69 * r_n * (4.0 * c_in + c_self)
