"""Series-stack leakage suppression (the "stack effect").

When two or more OFF transistors are stacked in series (e.g. the NAND
pull-down network of a decoder gate), the intermediate node floats to a
small positive voltage.  That voltage simultaneously

* reduces |Vgs| of the upper device below zero,
* reduces its Vds (less DIBL barrier lowering), and
* reverse-biases its body (body effect raises Vth),

so a two-high stack leaks roughly an order of magnitude less than a single
OFF device of the same size.  The effect is central to getting decoder
leakage right: a cache decoder is built almost entirely of NAND stacks.

Rather than hard-coding the canonical "10x per stacked device" rule, the
factor is *derived* from the same subthreshold model used everywhere else
by solving the intermediate-node voltage self-consistently (currents
through the stacked devices must match).  This keeps the stack factor
automatically consistent with the chosen DIBL/body/swing parameters across
the whole (Vth, Tox) design grid.
"""

from __future__ import annotations

import math

import numpy as np

from repro.errors import DeviceModelError
from repro.technology.bptm import Technology
from repro.devices.subthreshold import (
    subthreshold_current,
    subthreshold_prefactor,
    weak_inversion_current,
)


def _stack2_current(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float,
    vx: float,
) -> tuple:
    """Return (I_top, I_bottom) of a 2-stack with intermediate node at vx."""
    vdd = technology.vdd
    # Top device: source at vx -> Vgs = -vx (gate at 0), Vds = Vdd - vx,
    # body at 0 -> Vsb = vx.
    i_top = subthreshold_current(
        technology,
        width=1.0,
        leff=leff,
        vth=vth,
        tox=tox,
        vgs=0.0,
        vds=vdd - vx,
        vsb=vx,
    )
    # The Vgs = -vx reverse gate bias is applied via the exponent shift:
    # subthreshold_current only accepts vgs >= 0, so fold it into the
    # threshold by evaluating with vgs=0 and adding vx to the barrier.
    n_vt = technology.subthreshold_swing_n * technology.thermal_voltage
    if not isinstance(vx, np.ndarray):
        i_top = i_top * math.exp(-vx / n_vt)
        vds_bottom = max(vx, 1e-6)
    else:
        i_top = i_top * np.exp(-np.asarray(vx, dtype=float) / n_vt)
        vds_bottom = np.maximum(vx, 1e-6)
    # Bottom device: Vgs = 0, Vds = vx.
    i_bottom = subthreshold_current(
        technology,
        width=1.0,
        leff=leff,
        vth=vth,
        tox=tox,
        vgs=0.0,
        vds=vds_bottom,
    )
    return i_top, i_bottom


def solve_intermediate_node(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float,
    tolerance: float = 1e-12,
    max_iterations: int = 200,
) -> float:
    """Solve the floating-node voltage of a 2-high OFF stack by bisection.

    The node settles where the current sourced by the top device equals the
    current sunk by the bottom one.  The answer is a few tens of mV.

    ``vth``, ``tox`` and ``leff`` may be numpy arrays; they broadcast and
    the bisection then runs on every lane simultaneously, freezing each
    lane at the iteration where the scalar algorithm would have returned,
    so the vectorized answer is lane-for-lane identical to the scalar one.
    """
    knobs = (vth, tox, leff)
    if not any(isinstance(knob, np.ndarray) for knob in knobs):
        lo, hi = 0.0, technology.vdd / 2.0
        for _ in range(max_iterations):
            mid = 0.5 * (lo + hi)
            i_top, i_bottom = _stack2_current(technology, vth, tox, leff, mid)
            if abs(i_top - i_bottom) <= tolerance * max(i_top, i_bottom, 1e-30):
                return mid
            if i_top > i_bottom:
                # Node charges up -> raise vx.
                lo = mid
            else:
                hi = mid
        return 0.5 * (lo + hi)

    vth_b, tox_b, leff_b = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(knob, dtype=float)) for knob in knobs)
    )
    if np.any(np.less_equal(leff_b, 0)):
        raise DeviceModelError(f"Leff must be positive, got {leff}")
    # The two devices of :func:`_stack2_current` at every step, with the
    # loop-invariant pre-exponential hoisted: the bias checks the full
    # model would repeat hold by construction (0 < mid <= Vdd / 2).
    i0_ratio = subthreshold_prefactor(technology, tox_b) * (1.0 / leff_b)
    n_vt = technology.subthreshold_swing_n * technology.thermal_voltage
    vdd = technology.vdd
    shape = vth_b.shape
    lo = np.zeros(shape)
    hi = np.full(shape, vdd / 2.0)
    result = np.zeros(shape)
    done = np.zeros(shape, dtype=bool)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        i_top = weak_inversion_current(
            technology, i0_ratio, vth_b, 0.0, vdd - mid, mid
        ) * np.exp(-mid / n_vt)
        i_bottom = weak_inversion_current(
            technology, i0_ratio, vth_b, 0.0, np.maximum(mid, 1e-6)
        )
        converged = np.abs(i_top - i_bottom) <= tolerance * np.maximum(
            np.maximum(i_top, i_bottom), 1e-30
        )
        newly = converged & ~done
        result[newly] = mid[newly]
        done |= newly
        if done.all():
            break
        # Node charges up -> raise vx; otherwise lower it.  Frozen lanes
        # keep their brackets untouched.
        charges_up = i_top > i_bottom
        lo = np.where(~done & charges_up, mid, lo)
        hi = np.where(~done & ~charges_up, mid, hi)
    result = np.where(done, result, 0.5 * (lo + hi))
    return result.reshape(
        np.broadcast_shapes(*(np.shape(knob) for knob in knobs))
    )


def two_stack_factor(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float,
) -> float:
    """Return the leakage multiplier of a 2-high OFF stack vs a single device.

    This is the one place the intermediate node is solved.  The factor
    does not depend on how deep the stack is (:func:`deeper_stack_factor`
    scales it), so a circuit with NAND gates of several fan-ins solves it
    once per (Vth, Tox, Leff) point and shares it.  ``vth``, ``tox`` and
    ``leff`` may be numpy arrays; they broadcast, so a whole design grid
    is one vectorized solve.
    """
    single = subthreshold_current(
        technology, width=1.0, leff=leff, vth=vth, tox=tox, vgs=0.0,
        vds=technology.vdd,
    )
    vx = solve_intermediate_node(technology, vth, tox, leff)
    i_top, _ = _stack2_current(technology, vth, tox, leff, vx)
    return i_top / single


def deeper_stack_factor(factor2: float, stack_depth: int) -> float:
    """Return a ``stack_depth``-high stack's factor from the 2-stack one.

    Depth 1 is no stack (1.0) and depth 2 is ``factor2`` itself.  Depths
    beyond 2 apply the 2-stack solution with diminishing returns: the
    third device contributes far less than the second, because the
    dominant drop happens at the first intermediate node, so each extra
    series device halves the leakage (empirically ~2x per device past
    the second).
    """
    if stack_depth < 1:
        raise DeviceModelError(f"stack_depth must be >= 1, got {stack_depth}")
    if stack_depth == 1:
        return 1.0
    if stack_depth == 2:
        return factor2
    return factor2 * 0.5 ** (stack_depth - 2)

