"""Circuit-level substrate: the four cache components of Section 3.

The paper decomposes a cache into four components — memory cell array with
sense amplifiers, row decoder, address bus drivers, and data bus drivers —
and models each one's total leakage and delay independently.  This package
implements those components structurally (transistor populations sized in
units of the minimum width, evaluated under any (Vth, Tox) assignment) on
top of :mod:`repro.devices`:

* :mod:`~repro.circuits.logical_effort` — RC stage chains and geometric
  buffer-chain sizing for delay estimation;
* :mod:`~repro.circuits.wires` — distributed-RC metal wires (Elmore);
* :mod:`~repro.circuits.sram_cell` — the 6T storage cell;
* :mod:`~repro.circuits.sense_amp` — latch-type sense amplifier;
* :mod:`~repro.circuits.decoder` — predecode + word-line driver row decoder;
* :mod:`~repro.circuits.drivers` — address/data bus driver chains.

Every block answers the same three questions at a given (Vth, Tox):
standby leakage power (W), critical-path delay contribution (s), and
switched energy per access (J).

The blocks take checked knobs: the cache components run
:func:`repro.devices.mosfet.check_knobs` at their boundary, and the
blocks below it call the unchecked device kernels.  A direct caller
with knobs of its own checks them the same way first.
"""

from repro.circuits.logical_effort import (
    RcStage,
    chain_delay,
    optimal_buffer_chain,
    BufferChain,
)
from repro.circuits.wires import Wire
from repro.circuits.sram_cell import SramCell
from repro.circuits.sense_amp import SenseAmplifier
from repro.circuits.decoder import RowDecoder
from repro.circuits.drivers import BusDriver

__all__ = [
    "RcStage",
    "chain_delay",
    "optimal_buffer_chain",
    "BufferChain",
    "Wire",
    "SramCell",
    "SenseAmplifier",
    "RowDecoder",
    "BusDriver",
]
