"""Row decoder: predecoders, row NAND gates and word-line drivers.

The decoder turns ``log2(n_rows)`` address bits into a one-hot word-line
pulse.  Structure (the standard CACTI-style organisation):

1. **Predecode** — address bits are grouped in pairs (last group may be a
   triple) and each group drives a bank of NAND gates producing
   ``2^group`` one-hot predecode lines.
2. **Row gates** — every row has a NAND combining one line from each
   predecode group.
3. **Word-line driver** — a geometric buffer chain per row sized to drive
   the word-line wire plus the access-gate load of every cell in the row.

Leakage notes: in standby exactly one input pattern is absent, so *all*
row NANDs idle with their series NMOS stacks OFF — the decoder is where
the stack effect (:mod:`repro.devices.stack`) pays off, and the ablation
bench quantifies it.  The driver chains are sized for speed and dominate
the decoder's gate-tunnelling budget.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import CircuitError
from repro.units import is_power_of_two, log2_int
from repro.technology.bptm import Technology
from repro.technology.scaling import ScaledGeometry, ToxScalingRule
from repro.devices.mosfet import Mosfet, Polarity
from repro.devices import stack as _stack
from repro.circuits.logical_effort import ELMORE_LN2, optimal_buffer_chain
from repro.circuits.wires import Wire

#: NAND transistor width in units of minimum width (series devices are
#: upsized to compensate stack resistance).
NAND_NMOS_RATIO = 2.0
NAND_PMOS_RATIO = 2.0


def predecode_groups(n_bits: int) -> List[int]:
    """Split ``n_bits`` address bits into predecode group sizes (2s and 3s).

    >>> predecode_groups(7)
    [2, 2, 3]
    >>> predecode_groups(4)
    [2, 2]
    >>> predecode_groups(1)
    [1]
    """
    if n_bits < 1:
        raise CircuitError(f"decoder needs at least 1 address bit, got {n_bits}")
    groups: List[int] = []
    remaining = n_bits
    while remaining > 0:
        if remaining == 3 or remaining == 1:
            groups.append(remaining)
            remaining = 0
        else:
            groups.append(2)
            remaining -= 2
    return groups


@dataclass(frozen=True)
class DecoderCost:
    """Evaluation of a decoder at one knob point."""

    delay: float
    leakage_current: float
    dynamic_energy: float
    transistor_count: int


@dataclass(frozen=True)
class RowDecoder:
    """A row decoder for one sub-array.

    Parameters
    ----------
    technology / rule:
        Process node and Tox co-scaling rule.
    n_rows:
        Number of word lines (power of two).
    wordline_wire:
        The word-line RC wire spanning the sub-array width.
    wordline_cell_load:
        Summed access-gate capacitance (F) hanging on one word line.  This
        is Tox-dependent, so the caller (the cache component layer)
        recomputes it per evaluation point (or per Tox column of a grid)
        and passes it in.
    stack_enabled / gate_enabled:
        Ablation switches for the stack effect and gate tunnelling.
    """

    technology: Technology
    rule: ToxScalingRule
    n_rows: int
    wordline_wire: Wire
    wordline_cell_load: float
    stack_enabled: bool = True
    gate_enabled: bool = True

    def __post_init__(self) -> None:
        if not is_power_of_two(self.n_rows):
            raise CircuitError(f"n_rows must be a power of two, got {self.n_rows}")
        load = self.wordline_cell_load
        if isinstance(load, np.ndarray):
            negative = np.any(np.less(load, 0))
        else:
            negative = load < 0
        if negative:
            raise CircuitError(
                f"word-line cell load must be >= 0, got {self.wordline_cell_load}"
            )

    @property
    def address_bits(self) -> int:
        return max(1, log2_int(self.n_rows))

    @property
    def groups(self) -> List[int]:
        return predecode_groups(self.address_bits)

    # -- helpers ------------------------------------------------------------

    def _nand(
        self, fan_in: int, vth: float, geometry: ScaledGeometry
    ) -> Tuple[Mosfet, Mosfet]:
        """Return (series NMOS, parallel PMOS) devices of a NAND gate."""
        tech = self.technology
        nmos = Mosfet(
            polarity=Polarity.NMOS,
            width=NAND_NMOS_RATIO * tech.wmin * max(fan_in, 1) / 2.0,
            lgate=geometry.lgate_drawn,
            leff=geometry.leff,
            vth=vth,
            tox=geometry.tox,
        )
        pmos = Mosfet(
            polarity=Polarity.PMOS,
            width=NAND_PMOS_RATIO * tech.wmin,
            lgate=geometry.lgate_drawn,
            leff=geometry.leff,
            vth=vth,
            tox=geometry.tox,
        )
        return nmos, pmos

    def _nand_leakage(
        self, fan_in: int, vth: float, geometry: ScaledGeometry,
        stack_factor: float,
    ) -> float:
        """Standby leakage (A) of one idle NAND gate (stack suppressed).

        ``stack_factor`` is the 2-stack factor at (vth, tox), or None with
        the stack effect off.
        """
        tech = self.technology
        nmos, pmos = self._nand(fan_in, vth, geometry)
        sub = nmos.off_subthreshold(tech)
        if stack_factor is not None:
            sub = sub * _stack.deeper_stack_factor(stack_factor, max(fan_in, 1))
        # PMOS devices in parallel: with inputs idle-high the PMOS bank is
        # OFF; count them individually (no stack help in parallel).
        sub_p = fan_in * pmos.off_subthreshold(tech)
        gate = nmos.gate_leakage(
            tech, conducting=False, gate_enabled=self.gate_enabled
        ) * fan_in + fan_in * pmos.gate_leakage(
            tech, conducting=True, gate_enabled=self.gate_enabled
        )
        # Idle-high inputs keep NMOS gates at Vdd over an ON channel region
        # for the devices nearer ground; approximate half the stack as
        # conducting for tunnelling purposes.
        gate_on = 0.5 * fan_in * nmos.gate_leakage(
            tech, conducting=True, gate_enabled=self.gate_enabled
        )
        return sub + 0.3 * sub_p + gate + gate_on

    # -- evaluation ----------------------------------------------------------

    def evaluate(self, vth: float, tox: float) -> DecoderCost:
        """Return delay / leakage / energy of the decoder at (vth, tox).

        For a grid, ``vth`` is an ``(n_vth, 1)`` column, ``tox`` a
        ``(1, n_tox)`` row, and the word-line wire and cell load hold one
        value per Tox column.  Every NAND gate shares one 2-stack factor
        (:func:`repro.devices.stack.two_stack_factor`), solved once here
        over all the knob points.
        """
        tech = self.technology
        geometry = self.rule.geometry(tox)
        groups = self.groups
        n_groups = len(groups)
        stack_factor = None
        if self.stack_enabled:
            stack_factor = _stack.two_stack_factor(tech, vth, tox, geometry.leff)

        # ---- delay: predecode NAND -> row NAND -> word-line driver chain.
        delay = 0.0
        # Predecode stage: a NAND of the group size driving the predecode
        # line, loaded by (n_rows / 2^group) row-NAND inputs -> approximate
        # fanout n_rows / 2^min(group).
        pre_fan_in = max(groups)
        pre_nmos, _ = self._nand(pre_fan_in, vth, geometry)
        row_nmos, row_pmos = self._nand(n_groups, vth, geometry)
        row_input_cap = row_nmos.input_capacitance(tech) + row_pmos.input_capacitance(
            tech
        )
        rows_per_line = self.n_rows / (2 ** max(groups))
        predecode_load = max(rows_per_line, 1.0) * row_input_cap
        r_pre = pre_nmos.resistance(tech) * pre_fan_in  # series stack resistance
        delay += ELMORE_LN2 * r_pre * (
            predecode_load + pre_nmos.drain_capacitance(tech)
        )

        # Row NAND driving the word-line driver chain input.
        wordline_load = self.wordline_wire.capacitance + self.wordline_cell_load
        chain = optimal_buffer_chain(
            tech,
            load_capacitance=wordline_load,
            leff=geometry.leff,
            lgate=geometry.lgate_drawn,
            vth=vth,
            tox=tox,
            gate_enabled=self.gate_enabled,
        )
        r_row = row_nmos.resistance(tech) * n_groups
        delay += ELMORE_LN2 * r_row * (
            chain.input_capacitance + row_nmos.drain_capacitance(tech)
        )
        # Driver chain internal delay (its last stage drives the lumped
        # word-line load; replace that lumped estimate with the Elmore
        # wire delay for the final hop).
        r_last = chain.output_resistance
        wire_delay = self.wordline_wire.elmore_delay(
            r_last, self.wordline_cell_load
        )
        # chain.delay already charged r_last * wordline_load lumped; keep
        # the chain's internal stages and use the distributed estimate for
        # the final hop.
        internal = chain.delay - ELMORE_LN2 * r_last * (
            wordline_load + chain.output_capacitance
        )
        delay += np.maximum(internal, 0.0) + wire_delay

        # ---- leakage: predecode banks + every row NAND + every driver chain.
        leakage = 0.0
        for group in groups:
            leakage += (2 ** group) * self._nand_leakage(
                group, vth, geometry, stack_factor
            )
        leakage += self.n_rows * self._nand_leakage(
            n_groups, vth, geometry, stack_factor
        )
        leakage += self.n_rows * (
            chain.subthreshold_leakage + chain.gate_leakage
        )

        # ---- dynamic energy per access: one predecode line per group
        # swings, one row NAND fires, one word line swings full rail.
        energy = 0.0
        vdd = tech.vdd
        energy += n_groups * predecode_load * vdd * vdd
        energy += (row_input_cap + row_nmos.drain_capacitance(tech)) * vdd * vdd
        energy += chain.switched_capacitance * vdd * vdd

        # ---- transistor count.
        count = 0
        for group in groups:
            count += (2 ** group) * (2 * group)  # NAND: group NMOS + group PMOS
        count += self.n_rows * (2 * n_groups)
        count += self.n_rows * (2 * chain.stage_count)

        return DecoderCost(
            delay=delay,
            leakage_current=leakage,
            dynamic_energy=energy,
            transistor_count=count,
        )
