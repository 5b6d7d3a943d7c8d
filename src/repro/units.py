"""Unit conventions and conversion helpers.

The library works internally in **SI base units** everywhere:

* length in metres (m)
* time in seconds (s)
* voltage in volts (V)
* current in amperes (A)
* power in watts (W)
* energy in joules (J)
* capacitance in farads (F)

The paper, however, quotes quantities in the units customary for the
domain — oxide thickness in ångströms, access time in picoseconds, leakage
power in milliwatts, energy in picojoules.  These helpers make the
conversions explicit at API boundaries so no function ever receives a
"mystery float".

Example
-------
>>> from repro import units
>>> units.angstrom(12.0)
1.2e-09
>>> units.to_angstrom(1.2e-09)
12.0
>>> units.to_ps(units.ps(850.0))
850.0
"""

from __future__ import annotations

import math

import numpy as np

# ---------------------------------------------------------------------------
# Scale factors
# ---------------------------------------------------------------------------

ANGSTROM = 1e-10
"""Metres per ångström."""

NM = 1e-9
"""Metres per nanometre."""

UM = 1e-6
"""Metres per micrometre."""

PS = 1e-12
"""Seconds per picosecond."""

NS = 1e-9
"""Seconds per nanosecond."""

MW = 1e-3
"""Watts per milliwatt."""

UW = 1e-6
"""Watts per microwatt."""

NW = 1e-9
"""Watts per nanowatt."""

PJ = 1e-12
"""Joules per picojoule."""

NJ = 1e-9
"""Joules per nanojoule."""

FF = 1e-15
"""Farads per femtofarad."""

KB = 1024
"""Bytes per kibibyte (the paper's "KB")."""

MB = 1024 * 1024
"""Bytes per mebibyte."""


# ---------------------------------------------------------------------------
# Into SI
# ---------------------------------------------------------------------------

def angstrom(value: float) -> float:
    """Convert a length in ångströms to metres."""
    return value * ANGSTROM


def nm(value: float) -> float:
    """Convert a length in nanometres to metres."""
    return value * NM


def um(value: float) -> float:
    """Convert a length in micrometres to metres."""
    return value * UM


def ps(value: float) -> float:
    """Convert a time in picoseconds to seconds."""
    return value * PS


def ns(value: float) -> float:
    """Convert a time in nanoseconds to seconds."""
    return value * NS


def mw(value: float) -> float:
    """Convert a power in milliwatts to watts."""
    return value * MW


def uw(value: float) -> float:
    """Convert a power in microwatts to watts."""
    return value * UW


def pj(value: float) -> float:
    """Convert an energy in picojoules to joules."""
    return value * PJ


def ff(value: float) -> float:
    """Convert a capacitance in femtofarads to farads."""
    return value * FF


def kb(value: float) -> int:
    """Convert a size in kibibytes to bytes."""
    return int(round(value * KB))


def mb(value: float) -> int:
    """Convert a size in mebibytes to bytes."""
    return int(round(value * MB))


# ---------------------------------------------------------------------------
# Out of SI
# ---------------------------------------------------------------------------

def to_angstrom(metres: float) -> float:
    """Convert a length in metres to ångströms."""
    return metres / ANGSTROM


def to_nm(metres: float) -> float:
    """Convert a length in metres to nanometres."""
    return metres / NM


def to_um(metres: float) -> float:
    """Convert a length in metres to micrometres."""
    return metres / UM


def to_ps(seconds: float) -> float:
    """Convert a time in seconds to picoseconds."""
    return seconds / PS


def to_ns(seconds: float) -> float:
    """Convert a time in seconds to nanoseconds."""
    return seconds / NS


def to_mw(watts: float) -> float:
    """Convert a power in watts to milliwatts."""
    return watts / MW


def to_uw(watts: float) -> float:
    """Convert a power in watts to microwatts."""
    return watts / UW


def to_pj(joules: float) -> float:
    """Convert an energy in joules to picojoules."""
    return joules / PJ


def to_ff(farads: float) -> float:
    """Convert a capacitance in farads to femtofarads."""
    return farads / FF


def to_kb(size_bytes: int) -> float:
    """Convert a size in bytes to kibibytes."""
    return size_bytes / KB


# ---------------------------------------------------------------------------
# Physical constants (SI)
# ---------------------------------------------------------------------------

BOLTZMANN = 1.380649e-23
"""Boltzmann constant, J/K."""

ELECTRON_CHARGE = 1.602176634e-19
"""Elementary charge, C."""

EPSILON_0 = 8.8541878128e-12
"""Vacuum permittivity, F/m."""

EPSILON_SIO2 = 3.9 * EPSILON_0
"""Permittivity of silicon dioxide, F/m."""

EPSILON_SI = 11.7 * EPSILON_0
"""Permittivity of silicon, F/m."""

ROOM_TEMPERATURE = 300.0
"""Default junction temperature, K (the paper does not vary temperature)."""


def thermal_voltage(temperature_k: float = ROOM_TEMPERATURE) -> float:
    """Return the thermal voltage kT/q in volts at the given temperature.

    >>> round(thermal_voltage(300.0), 5)
    0.02585
    """
    return BOLTZMANN * temperature_k / ELECTRON_CHARGE


def oxide_capacitance_per_area(tox_m: float) -> float:
    """Return SiO2 gate capacitance per unit area (F/m^2) for thickness ``tox_m``.

    Cox = eps_SiO2 / Tox.  For Tox = 12 Å this is ~2.9e-2 F/m^2
    (2.9 µF/cm^2), consistent with 65 nm-era devices.  ``tox_m`` may be a
    numpy array, in which case the result has the same shape.
    """
    if not isinstance(tox_m, np.ndarray):
        if tox_m <= 0.0:
            raise ValueError(f"oxide thickness must be positive, got {tox_m!r}")
    elif np.any(np.less_equal(tox_m, 0.0)):
        raise ValueError(f"oxide thickness must be positive, got {tox_m!r}")
    return oxide_capacitance_kernel(tox_m)


def oxide_capacitance_kernel(tox_m: float) -> float:
    """:func:`oxide_capacitance_per_area` past its check: ``eps / Tox``.

    For callers whose Tox is already known positive (the device kernels
    below a component's knob check).
    """
    return EPSILON_SIO2 / tox_m


def is_power_of_two(n: int) -> bool:
    """Return True if ``n`` is a positive integral power of two."""
    return n > 0 and (n & (n - 1)) == 0


def log2_int(n: int) -> int:
    """Return log2 of an exact power of two, raising ValueError otherwise."""
    if not is_power_of_two(n):
        raise ValueError(f"{n} is not a positive power of two")
    return n.bit_length() - 1


def geometric_mean(values) -> float:
    """Return the geometric mean of a non-empty iterable of positive floats."""
    values = list(values)
    if not values:
        raise ValueError("geometric_mean of empty sequence")
    if any(v <= 0 for v in values):
        raise ValueError("geometric_mean requires positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))
