"""RC stage chains and buffer-chain sizing.

Delay estimation throughout the circuit layer uses the RC abstraction: a
path is a sequence of :class:`RcStage` objects (driver resistance charging
a lumped load) whose delays add.  Drivers that must cross a large fanout
(word lines, bus wires) are sized as geometric buffer chains — the
logical-effort result that a chain of inverters each ``rho ~ 4`` times
larger than the last minimises total delay.

The chain builder also reports the *leakage* and *input capacitance* of
the buffers it creates, so sizing choices made for speed automatically show
up in the leakage budget — the coupling at the heart of the paper's
trade-off study.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, NamedTuple

import numpy as np

from repro.errors import CircuitError
from repro.technology.bptm import Technology
from repro.devices import delay as _delay
from repro.devices import subthreshold as _sub
from repro.devices import gate_leakage as _gate

#: Target stage effort of buffer chains (FO4-style sizing).
STAGE_EFFORT = 4.0

#: Elmore switching coefficient for a step input, ln(2).
ELMORE_LN2 = 0.69

#: P:N width ratio of the standard inverter.
PN_RATIO = 2.0


@dataclass(frozen=True)
class RcStage:
    """One RC delay stage: ``delay = 0.69 * R * C``.

    Attributes
    ----------
    label:
        Where the stage came from (for delay-budget reports).
    resistance:
        Driver effective resistance (ohm).
    capacitance:
        Total lumped load (F).
    """

    label: str
    resistance: float
    capacitance: float

    def __post_init__(self) -> None:
        if self.resistance < 0 or self.capacitance < 0:
            raise CircuitError(
                f"stage {self.label!r} has negative R or C: "
                f"R={self.resistance}, C={self.capacitance}"
            )

    @property
    def delay(self) -> float:
        """Stage delay in seconds."""
        return ELMORE_LN2 * self.resistance * self.capacitance


def chain_delay(stages: List[RcStage]) -> float:
    """Return the summed delay (s) of a stage list."""
    return sum(stage.delay for stage in stages)


@dataclass(frozen=True)
class InverterSizing:
    """Widths of one inverter in a chain (m)."""

    wn: float
    wp: float

    @property
    def total_width(self) -> float:
        return self.wn + self.wp


@dataclass(frozen=True)
class BufferChain:
    """A sized geometric buffer chain with its delay and power summary.

    Evaluated over a grid (Vth an ``(n_vth, 1)`` column, the Tox-derived
    arguments ``(1, n_tox)`` rows), every field holds one value per Tox
    column, or per (Vth, Tox) point for the Vth-dependent ones.  Columns
    may then need different stage counts: ``inverters`` lists the longest
    column's stages, a shorter column repeating its final stage past its
    own ``stage_count``.

    Attributes
    ----------
    inverters:
        The per-stage sizings, input first.
    stage_count:
        Number of inverters in the chain.
    delay:
        Total chain delay (s), including driving the final load.
    input_capacitance:
        Gate capacitance (F) presented to whatever drives the chain.
    subthreshold_leakage:
        Summed standby subthreshold current (A) of the chain; a static
        CMOS inverter always has exactly one OFF device, and the model
        averages the N-off / P-off states.
    gate_leakage:
        Summed gate-tunnelling current (A).
    switched_capacitance:
        Total capacitance (F) toggled when the chain fires once.
    output_resistance:
        Drive resistance (ohm) of the final stage (N/P average), which
        ``delay`` charged against the lumped final load.
    output_capacitance:
        Junction self-load (F) of the final stage.
    """

    inverters: tuple
    stage_count: int
    delay: float
    input_capacitance: float
    subthreshold_leakage: float
    gate_leakage: float
    switched_capacitance: float
    output_resistance: float
    output_capacitance: float

    def leakage_power(self, vdd: float) -> float:
        """Return standby leakage power (W) at supply ``vdd``."""
        return (self.subthreshold_leakage + self.gate_leakage) * vdd

    def dynamic_energy(self, vdd: float) -> float:
        """Return switched energy (J) for one transition pair at ``vdd``."""
        return self.switched_capacitance * vdd * vdd


class _ColumnSizing(NamedTuple):
    """The Tox-only part of one column's chain (see :func:`_size_column`)."""

    inverters: tuple
    input_capacitance: float
    #: Per stage, the lumped load plus the stage's own junction (F).
    stage_loads: tuple
    gate_leakage: float
    switched_capacitance: float
    output_capacitance: float


def _size_column(
    technology: Technology,
    load_capacitance: float,
    lgate: float,
    tox: float,
    wn0: float,
    stage_effort: float,
    gate_enabled: bool,
) -> _ColumnSizing:
    """Size one Tox column's chain on the scalar (``math``) path.

    Stage count, widths, capacitances and gate tunnelling depend on Tox
    alone; computing them per column keeps a grid column equal to the
    scalar evaluation at its Tox bit for bit.
    """
    if load_capacitance <= 0:
        raise CircuitError(f"load capacitance must be positive, got {load_capacitance}")
    first = InverterSizing(wn=wn0, wp=PN_RATIO * wn0)
    c_in0 = _delay.gate_capacitance_kernel(
        technology, first.total_width, lgate, tox
    )
    total_effort = load_capacitance / c_in0
    if total_effort <= 1.0:
        n_stages = 1
        rho = max(total_effort, 1.0)
    else:
        n_stages = max(1, math.ceil(math.log(total_effort) / math.log(stage_effort)))
        rho = total_effort ** (1.0 / n_stages)

    inverters = tuple(
        InverterSizing(wn=wn0 * rho**i, wp=PN_RATIO * wn0 * rho**i)
        for i in range(n_stages)
    )
    c_ins = [
        _delay.gate_capacitance_kernel(technology, sizing.total_width, lgate, tox)
        for sizing in inverters
    ]
    stage_loads = []
    i_gate_total = 0.0
    c_switched = 0.0
    if gate_enabled:
        # gate_tunnel_current's products, in its order, on one density
        # per column.
        density = _gate.gate_current_density(technology, technology.vdd, tox)
    for index, sizing in enumerate(inverters):
        c_self = _delay.junction_capacitance_kernel(
            technology, sizing.total_width
        )
        c_load = c_ins[index + 1] if index + 1 < n_stages else load_capacitance
        stage_loads.append(c_load + c_self)
        if gate_enabled:
            # The conducting device tunnels over its full area; the off
            # device contributes only edge tunnelling.  Average over the
            # two input states.
            area_p = density * sizing.wp * lgate
            area_n = density * sizing.wn * lgate
            i_g_on_p = area_p * _gate.PMOS_TUNNEL_RATIO
            i_g_on_n = area_n
            i_g_off_p = area_p * _gate.EDT_FRACTION * _gate.PMOS_TUNNEL_RATIO
            i_g_off_n = area_n * _gate.EDT_FRACTION
            i_gate_total += 0.5 * ((i_g_on_n + i_g_off_p) + (i_g_on_p + i_g_off_n))
        c_switched += c_ins[index] + c_self
    return _ColumnSizing(
        inverters=inverters,
        input_capacitance=c_in0,
        stage_loads=tuple(stage_loads),
        gate_leakage=i_gate_total,
        switched_capacitance=c_switched + load_capacitance,
        output_capacitance=c_self,
    )


def optimal_buffer_chain(
    technology: Technology,
    load_capacitance: float,
    leff: float,
    lgate: float,
    vth: float,
    tox: float,
    input_width: float = None,
    stage_effort: float = STAGE_EFFORT,
    gate_enabled: bool = True,
) -> BufferChain:
    """Size a geometric buffer chain to drive ``load_capacitance``.

    Parameters
    ----------
    load_capacitance:
        The final load (F) the chain must drive.
    leff, lgate:
        Channel lengths (m) — already Tox-co-scaled by the caller.
    vth, tox:
        The knob assignment the chain is evaluated under.  For a grid,
        ``vth`` is an ``(n_vth, 1)`` column and ``tox``,
        ``load_capacitance``, ``leff`` and ``lgate`` are ``(1, n_tox)``
        rows.
    input_width:
        NMOS width (m) of the first inverter; defaults to minimum width.
    stage_effort:
        Capacitance ratio between successive stages (default 4).

    Notes
    -----
    The stage count is ``ceil(log_rho(C_load / C_in))``, at least one.  The
    per-stage ratio is then re-balanced so stages have exactly equal
    effort, which is both the delay-optimal and the conventional layout.

    Sizing runs per Tox column on the scalar path (:func:`_size_column`);
    the drive resistances and subthreshold currents then run once per
    stage over the whole grid.  A column with fewer stages than the
    longest masks the stages past its own out of the sums, which adds
    exact zeros, so every column equals its own scalar-Tox evaluation.
    """
    if stage_effort <= 1.0:
        raise CircuitError(f"stage effort must exceed 1, got {stage_effort}")
    wn0 = technology.wmin if input_width is None else input_width
    if wn0 <= 0:
        raise CircuitError(f"input width must be positive, got {wn0}")

    if isinstance(tox, np.ndarray):
        finals, lgates, toxes = np.broadcast_arrays(load_capacitance, lgate, tox)
        columns = [
            _size_column(technology, final, length, value, wn0, stage_effort,
                         gate_enabled)
            for final, length, value in zip(finals.ravel().tolist(),
                                            lgates.ravel().tolist(),
                                            toxes.ravel().tolist())
        ]
        longest = max(len(column.inverters) for column in columns)

        def stack(values):
            return np.reshape(values, toxes.shape)

        def per_stage(values):
            # One row per stage.  Past a column's own final stage, that
            # stage repeats; the stage loop masks it out.
            padded = np.array([
                list(column) + [column[-1]] * (longest - len(column))
                for column in values
            ])
            return padded.T.reshape((longest,) + toxes.shape)

        wns = per_stage([[s.wn for s in c.inverters] for c in columns])
        wps = per_stage([[s.wp for s in c.inverters] for c in columns])
        loads = per_stage([c.stage_loads for c in columns])
        inverters = tuple(
            InverterSizing(wn=wn, wp=wp) for wn, wp in zip(wns, wps)
        )
    else:
        column = _size_column(technology, load_capacitance, lgate, tox, wn0,
                              stage_effort, gate_enabled)
        columns = [column]

        def stack(values):
            return values[0]

        inverters = column.inverters
        wns = [sizing.wn for sizing in inverters]
        wps = [sizing.wp for sizing in inverters]
        loads = column.stage_loads

    counts = [len(column.inverters) for column in columns]
    shortest = min(counts)
    stage_count = stack(counts)
    delay = 0.0
    i_sub_total = 0.0
    r_out = None
    for index, (wn, wp, load) in enumerate(zip(wns, wps, loads)):
        r_n = _delay.resistance_kernel(technology, wn, leff, vth, tox)
        r_p = _delay.resistance_kernel(
            technology, wp, leff, vth, tox, p_type=True
        )
        r_drive = 0.5 * (r_n + r_p)
        # Standby: average of input-low (NMOS off) and input-high (PMOS off).
        i_sub_n = _sub.subthreshold_kernel(
            technology, wn, leff, vth, tox, vgs=0.0, vds=technology.vdd
        )
        i_sub_p = _sub.subthreshold_kernel(
            technology, wp, leff, vth, tox, vgs=0.0, vds=technology.vdd,
            p_type=True,
        )
        i_sub = 0.5 * (i_sub_n + i_sub_p)
        step = ELMORE_LN2 * r_drive * load
        if index < shortest:
            delay += step
            i_sub_total += i_sub
            r_out = r_drive
        else:
            active = stage_count > index
            delay = delay + np.where(active, step, 0.0)
            i_sub_total = i_sub_total + np.where(active, i_sub, 0.0)
            r_out = np.where(active, r_drive, r_out)

    return BufferChain(
        inverters=inverters,
        stage_count=stage_count,
        delay=delay,
        input_capacitance=stack([c.input_capacitance for c in columns]),
        subthreshold_leakage=i_sub_total,
        gate_leakage=stack([c.gate_leakage for c in columns]),
        switched_capacitance=stack([c.switched_capacitance for c in columns]),
        output_resistance=r_out,
        output_capacitance=stack([c.output_capacitance for c in columns]),
    )
