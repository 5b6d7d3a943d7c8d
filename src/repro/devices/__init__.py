"""Device-physics substrate (the library's stand-in for HSPICE + BPTM cards).

The paper characterises transistors over a (Vth, Tox) grid with HSPICE.
This package provides analytic BSIM-flavoured models producing the same
functional dependences from first principles:

* :mod:`~repro.devices.subthreshold` — weak-inversion drain current with
  DIBL, body effect and temperature dependence (exponential in Vth);
* :mod:`~repro.devices.gate_leakage` — direct-tunnelling gate current
  (exponential in Tox);
* :mod:`~repro.devices.stack` — the series-stack leakage reduction factor;
* :mod:`~repro.devices.delay` — alpha-power-law on-current, effective
  switching resistance and gate capacitance;
* :mod:`~repro.devices.mosfet` — a :class:`Mosfet` value object bundling a
  sized transistor with its (Vth, Tox) assignment and exposing leakage /
  drive / capacitance queries.

All device functions take the :class:`~repro.technology.Technology` node
explicitly; nothing in this package holds hidden global state.
"""

from repro.devices.mosfet import Mosfet, Polarity
from repro.devices.subthreshold import subthreshold_current
from repro.devices.gate_leakage import gate_current_density, gate_tunnel_current
from repro.devices.stack import deeper_stack_factor, two_stack_factor
from repro.devices.delay import (
    on_current,
    effective_resistance,
    gate_capacitance,
    junction_capacitance,
)

__all__ = [
    "Mosfet",
    "Polarity",
    "subthreshold_current",
    "gate_current_density",
    "gate_tunnel_current",
    "two_stack_factor",
    "deeper_stack_factor",
    "on_current",
    "effective_resistance",
    "gate_capacitance",
    "junction_capacitance",
]
