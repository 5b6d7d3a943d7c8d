"""The paper's four cache components.

Section 3 decomposes a cache into the memory cell array with its sense
amplifiers, the row decoder, the address bus drivers and the data bus
drivers, and assumes each contributes independently to total leakage and
delay.  Each class here answers the same queries at a given (Vth, Tox):

* ``leakage_power(vth, tox)`` — standby leakage (W) of the whole component;
* ``delay(vth, tox)`` — its contribution (s) to the access critical path;
* ``dynamic_energy(vth, tox)`` — switched energy (J) per access;
* ``transistor_count(tox)`` — population size, for reports.

All Tox-dependent geometry (cell footprint, wire lengths, channel lengths)
is recomputed per evaluation point through the
:class:`~repro.technology.scaling.ToxScalingRule`, so the co-scaling cost
of thick oxide (bigger cells -> longer lines) is visible to every
component automatically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Tuple

import numpy as np

from repro.errors import CircuitError, DeviceModelError
from repro.technology.bptm import Technology
from repro.technology.scaling import ToxScalingRule
from repro.devices import delay as _delay
from repro.circuits.sram_cell import SramCell
from repro.circuits.sense_amp import SenseAmplifier
from repro.circuits.decoder import RowDecoder
from repro.circuits.drivers import BusDriver
from repro.circuits.wires import Wire
from repro.cache.geometry import ArrayOrganization

#: Lumped receiver load (F) at the far end of a data bus line.
DATA_PORT_LOAD = 20e-15

#: Fraction of address lines toggling on a typical access.
ADDRESS_ACTIVITY = 0.3

#: Fraction of data lines toggling on a typical access.
DATA_ACTIVITY = 0.5

#: Both bit lines of a pair are precharged and one discharges: the
#: effective switched bit-line energy multiplier (precharge + evaluate).
BITLINE_ENERGY_FACTOR = 2.0


@dataclass(frozen=True)
class ComponentCost:
    """One component evaluated at one (Vth, Tox) point."""

    delay: float
    leakage_power: float
    dynamic_energy: float
    transistor_count: int


class _ComponentBase:
    """Shared memoisation: components are pure functions of (vth, tox)."""

    def __init__(self) -> None:
        self._memo: Dict[Tuple[float, float], ComponentCost] = {}

    def evaluate(self, vth: float, tox: float) -> ComponentCost:
        key = (vth, tox)
        if key not in self._memo:
            if not (math.isfinite(vth) and math.isfinite(tox)):
                raise DeviceModelError(
                    f"knobs must be finite, got Vth={vth}, Tox={tox}"
                )
            self._memo[key] = self._evaluate(vth, tox)
        return self._memo[key]

    def _evaluate(self, vth: float, tox: float) -> ComponentCost:
        raise NotImplementedError

    def evaluate_grid(self, vths, toxes) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Batch-evaluate the component over a (Vth, Tox) grid.

        Parameters
        ----------
        vths, toxes:
            1-D sequences of threshold voltages (V) and oxide thicknesses
            (m) spanning the grid axes.

        Returns
        -------
        (delays, leakages, energies):
            Three ``(len(vths), len(toxes))`` arrays, where element
            ``[i, j]`` equals the scalar ``evaluate(vths[i], toxes[j])``
            result for that quantity.

        The whole grid is one pass of :meth:`_evaluate`: Vth enters as an
        ``(n_vth, 1)`` column and Tox as a ``(1, n_tox)`` row, so each
        Vth-dependent device model runs once over every grid point.
        Quantities that depend on Tox alone (geometry, wires, loads, gate
        tunnelling, buffer-chain sizing) are computed per column on the
        scalar path and stacked into rows, so column ``j`` equals a
        Vth-vector evaluation at the float ``toxes[j]`` bit for bit.
        """
        vths = np.asarray(vths, dtype=float)
        toxes = np.asarray(toxes, dtype=float)
        if vths.ndim > 1 or toxes.ndim > 1:
            raise DeviceModelError(
                "grid axes must be scalars or 1-D, got shapes "
                f"{vths.shape} and {toxes.shape}"
            )
        vths = np.atleast_1d(vths)
        toxes = np.atleast_1d(toxes)
        if not (np.isfinite(vths).all() and np.isfinite(toxes).all()):
            raise DeviceModelError(
                f"knobs must be finite, got Vth={vths}, Tox={toxes}"
            )
        shape = (vths.size, toxes.size)
        if not vths.size or not toxes.size:
            return np.empty(shape), np.empty(shape), np.empty(shape)
        cost = self._evaluate(vths[:, None], toxes[None, :])
        # Tox-only quantities come back as (1, n_tox) rows; every grid is
        # returned as a fresh, writable (n_vth, n_tox) array.
        return tuple(
            np.array(np.broadcast_to(value, shape), dtype=float, order="C")
            for value in (cost.delay, cost.leakage_power, cost.dynamic_energy)
        )

    # Convenience accessors.
    def delay(self, vth: float, tox: float) -> float:
        return self.evaluate(vth, tox).delay

    def leakage_power(self, vth: float, tox: float) -> float:
        return self.evaluate(vth, tox).leakage_power

    def dynamic_energy(self, vth: float, tox: float) -> float:
        return self.evaluate(vth, tox).dynamic_energy


class ArrayComponent(_ComponentBase):
    """Memory cell array + sense amplifiers (the paper's first component).

    Leakage is dominated by the cell population — every stored bit leaks
    around the clock — plus one sense-amp slice per physical column.
    Delay is the bit-line development time (cell drive vs bit-line load)
    plus sense-amp regeneration.
    """

    def __init__(
        self,
        technology: Technology,
        rule: ToxScalingRule,
        organization: ArrayOrganization,
        gate_enabled: bool = True,
    ) -> None:
        super().__init__()
        self.technology = technology
        self.rule = rule
        self.organization = organization
        self.gate_enabled = gate_enabled
        self.cell = SramCell(technology=technology, rule=rule)
        self.sense_amp = SenseAmplifier(technology=technology, rule=rule)

    def bitline_capacitance(self, tox: float) -> float:
        """Total bit-line capacitance (F) of one column at ``tox``."""
        organization = self.organization
        per_cell = self.cell.bitline_load(tox)
        return organization.rows_per_subarray * per_cell

    def write_energy(self, vth: float, tox: float) -> float:
        """Switched energy (J) of one *write* into the array.

        Writes drive the bit lines rail to rail through the write drivers
        (no sensing, no small-swing saving), so a write costs more than a
        read on the bit lines but skips the sense amps.  ``vth`` is
        accepted for protocol symmetry (CV^2 energy has no Vth term).
        """
        tech = self.technology
        bl_cap = self.bitline_capacitance(tox)
        per_column = bl_cap * tech.vdd * tech.vdd
        # Cell-internal node flip: two inverter nodes swing full rail
        # (same order as the cell's gate load on the word line).
        flip = 2.0 * self.cell.wordline_load(tox)
        return self.organization.active_cols * (per_column + flip)

    def _evaluate(self, vth: float, tox: float) -> ComponentCost:
        organization = self.organization
        tech = self.technology

        cell_leak = self.cell.standby_leakage_power(
            vth, tox, gate_enabled=self.gate_enabled
        )
        sa_leak = self.sense_amp.standby_leakage_power(
            vth, tox, gate_enabled=self.gate_enabled
        )
        leakage = (
            organization.total_cells * cell_leak
            + organization.n_sense_amps * sa_leak
        )

        bl_cap = self.bitline_capacitance(tox)
        i_read = self.cell.read_current(vth, tox)
        develop = self.sense_amp.development_delay(bl_cap, i_read)
        regen = self.sense_amp.regeneration_delay(vth, tox)
        delay = develop + regen

        per_column = (
            BITLINE_ENERGY_FACTOR
            * bl_cap
            * self.sense_amp.required_swing()
            * tech.vdd
        )
        sense = self.sense_amp.sense_energy(bl_cap, tox)
        energy = organization.active_cols * (per_column + sense)

        count = organization.total_cells * 6 + organization.n_sense_amps * 10
        return ComponentCost(
            delay=delay,
            leakage_power=leakage,
            dynamic_energy=energy,
            transistor_count=count,
        )


class DecoderComponent(_ComponentBase):
    """Row decoders + word-line drivers (the paper's second component)."""

    def __init__(
        self,
        technology: Technology,
        rule: ToxScalingRule,
        organization: ArrayOrganization,
        stack_enabled: bool = True,
        gate_enabled: bool = True,
    ) -> None:
        super().__init__()
        self.technology = technology
        self.rule = rule
        self.organization = organization
        self.stack_enabled = stack_enabled
        self.gate_enabled = gate_enabled
        self.cell = SramCell(technology=technology, rule=rule)

    def _decoder_at(self, vth: float, tox: float) -> RowDecoder:
        organization = self.organization
        wordline_length = organization.subarray_width(self.cell.width(tox))
        wire = Wire.from_technology(self.technology, wordline_length)
        cell_load = organization.cols_per_subarray * self.cell.wordline_load(tox)
        return RowDecoder(
            technology=self.technology,
            rule=self.rule,
            n_rows=max(organization.decoder_rows, 2),
            wordline_wire=wire,
            wordline_cell_load=cell_load,
            stack_enabled=self.stack_enabled,
            gate_enabled=self.gate_enabled,
        )

    def _evaluate(self, vth: float, tox: float) -> ComponentCost:
        organization = self.organization
        tech = self.technology
        decoder = self._decoder_at(vth, tox)
        cost = decoder.evaluate(vth, tox)
        leakage = cost.leakage_current * tech.vdd * organization.n_decoders
        energy = cost.dynamic_energy * organization.active_subarrays
        count = cost.transistor_count * organization.n_decoders
        return ComponentCost(
            delay=cost.delay,
            leakage_power=leakage,
            dynamic_energy=energy,
            transistor_count=count,
        )


class _BusDriverComponent(_ComponentBase):
    """Shared machinery for the two bus-driver components."""

    def __init__(
        self,
        technology: Technology,
        rule: ToxScalingRule,
        organization: ArrayOrganization,
        n_lines: int,
        far_end_load: float,
        activity: float,
        gate_enabled: bool = True,
    ) -> None:
        super().__init__()
        if n_lines < 1:
            raise CircuitError(f"bus needs at least one line, got {n_lines}")
        self.technology = technology
        self.rule = rule
        self.organization = organization
        self.n_lines = n_lines
        self.far_end_load = far_end_load
        self.activity = activity
        self.gate_enabled = gate_enabled
        self.cell = SramCell(technology=technology, rule=rule)

    def _bus_at(self, tox: float) -> BusDriver:
        organization = self.organization
        length = organization.bus_length(
            self.cell.width(tox), self.cell.height(tox)
        )
        wire = Wire.from_technology(self.technology, length)
        return BusDriver(
            technology=self.technology,
            rule=self.rule,
            n_lines=self.n_lines,
            wire=wire,
            far_end_load=self.far_end_load,
            activity=self.activity,
            gate_enabled=self.gate_enabled,
        )

    def _evaluate(self, vth: float, tox: float) -> ComponentCost:
        cost = self._bus_at(tox).evaluate(vth, tox)
        return ComponentCost(
            delay=cost.delay,
            leakage_power=cost.leakage_current * self.technology.vdd,
            dynamic_energy=cost.dynamic_energy,
            transistor_count=cost.transistor_count,
        )


class AddressDriverComponent(_BusDriverComponent):
    """Address bus drivers (the paper's third component)."""

    def __init__(
        self,
        technology: Technology,
        rule: ToxScalingRule,
        organization: ArrayOrganization,
        gate_enabled: bool = True,
    ) -> None:
        # Far end: the decoder's predecode gate inputs, replicated per
        # sub-array stripe.  Estimated as a handful of 3x-minimum gates.
        far_end = 4.0 * _delay.gate_capacitance(
            technology,
            3.0 * technology.wmin,
            technology.lgate_drawn,
            technology.tox_ref,
        ) * max(organization.ndbl, 1)
        super().__init__(
            technology=technology,
            rule=rule,
            organization=organization,
            n_lines=organization.config.address_bits,
            far_end_load=far_end,
            activity=ADDRESS_ACTIVITY,
            gate_enabled=gate_enabled,
        )


class DataDriverComponent(_BusDriverComponent):
    """Data-out bus drivers (the paper's fourth component)."""

    def __init__(
        self,
        technology: Technology,
        rule: ToxScalingRule,
        organization: ArrayOrganization,
        gate_enabled: bool = True,
    ) -> None:
        super().__init__(
            technology=technology,
            rule=rule,
            organization=organization,
            n_lines=organization.config.output_bits,
            far_end_load=DATA_PORT_LOAD,
            activity=DATA_ACTIVITY,
            gate_enabled=gate_enabled,
        )
