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
from repro.technology.bptm import Technology, check_oxide
from repro.devices.subthreshold import (
    prefactor_kernel,
    subthreshold_kernel,
    weak_inversion_current,
)

#: Most (step, lane) current pairs one block of the shared-path check
#: evaluates at once, so a large grid checks in bounded memory.
_CHECK_BLOCK_ELEMENTS = 1 << 16


def _stack2_current(
    technology: Technology,
    vth: float,
    tox: float,
    leff: float,
    vx: float,
) -> tuple:
    """Return (I_top, I_bottom) of a 2-stack with intermediate node at vx.

    Unchecked: :func:`solve_intermediate_node` and
    :func:`two_stack_factor` check the knobs before they call it.
    """
    vdd = technology.vdd
    # Top device: source at vx -> Vgs = -vx (gate at 0), Vds = Vdd - vx,
    # body at 0 -> Vsb = vx.
    i_top = subthreshold_kernel(
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
    # the subthreshold model only accepts vgs >= 0, so fold it into the
    # threshold by evaluating with vgs=0 and adding vx to the barrier.
    n_vt = technology.subthreshold_swing_n * technology.thermal_voltage
    if not isinstance(vx, np.ndarray):
        i_top = i_top * math.exp(-vx / n_vt)
        vds_bottom = max(vx, 1e-6)
    else:
        i_top = i_top * np.exp(-np.asarray(vx, dtype=float) / n_vt)
        vds_bottom = np.maximum(vx, 1e-6)
    # Bottom device: Vgs = 0, Vds = vx.
    i_bottom = subthreshold_kernel(
        technology,
        width=1.0,
        leff=leff,
        vth=vth,
        tox=tox,
        vgs=0.0,
        vds=vds_bottom,
    )
    return i_top, i_bottom


def _check_stack(vth, tox, leff) -> None:
    """Raise unless both stacked devices are in weak inversion with a
    real geometry at every node voltage the solve can try.

    ``Vth > 0`` is the condition: at ``Vgs = 0`` a device's effective
    threshold is ``Vth`` plus non-negative DIBL and body terms.
    """
    if not any(isinstance(knob, np.ndarray) for knob in (vth, tox, leff)):
        if leff <= 0:
            raise DeviceModelError(f"Leff must be positive, got {leff}")
        if vth <= 0:
            raise DeviceModelError(
                f"Vth={vth} V <= 0: the stacked devices are in strong inversion"
            )
    else:
        if np.any(np.less_equal(leff, 0)):
            raise DeviceModelError(f"Leff must be positive, got {leff}")
        if np.any(np.less_equal(vth, 0)):
            raise DeviceModelError(
                f"Vth={vth} V <= 0: the stacked devices are in strong inversion"
            )
    check_oxide(tox)


def _bisect(technology, vth, tox, leff, tolerance, max_iterations):
    """The scalar bisection on the ``math`` path.

    Returns ``(vx, mids, charges_up)``: the answer, every midpoint tried
    and, for each midpoint where the currents did not balance, whether
    the node charged up there.  The currents balanced at the last
    midpoint exactly when ``len(charges_up) < len(mids)``.
    """
    lo, hi = 0.0, technology.vdd / 2.0
    mids = []
    charges_up = []
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        mids.append(mid)
        i_top, i_bottom = _stack2_current(technology, vth, tox, leff, mid)
        if abs(i_top - i_bottom) <= tolerance * max(i_top, i_bottom, 1e-30):
            return mid, mids, charges_up
        up = i_top > i_bottom
        charges_up.append(up)
        if up:
            # Node charges up -> raise vx.
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi), mids, charges_up


def _lane_currents(technology, i0_ratio, vth, mid, n_vt):
    """(I_top, I_bottom) of every lane at node voltage ``mid`` on numpy's
    path: :func:`_stack2_current`'s two devices with the pre-exponential
    hoisted.  The shared-path check and the lane-wise loop both call
    this, so their arithmetic is one and the same."""
    vdd = technology.vdd
    i_top = weak_inversion_current(
        technology, i0_ratio, vth, 0.0, vdd - mid, mid
    ) * np.exp(-mid / n_vt)
    i_bottom = weak_inversion_current(
        technology, i0_ratio, vth, 0.0, np.maximum(mid, 1e-6)
    )
    return i_top, i_bottom


def _balanced(i_top, i_bottom, tolerance):
    return np.abs(i_top - i_bottom) <= tolerance * np.maximum(
        np.maximum(i_top, i_bottom), 1e-30
    )


def _lanes_follow(technology, i0_ratio, vth, n_vt, mids, charges_up,
                  tolerance) -> bool:
    """True when every lane, at every midpoint of the followed bisection,
    balances where that bisection balanced and otherwise moves the node
    the way it did.  Each lane's own bisection then tries the same
    midpoints and stops at the same one.

    The check runs the lanes of a block of midpoints in one broadcast
    pass; a large grid takes several blocks.
    """
    n_steps = len(mids)
    lane_axes = (1,) * vth.ndim
    balances = np.arange(n_steps) == len(charges_up)
    directions = np.array(charges_up, dtype=bool)
    block = max(1, _CHECK_BLOCK_ELEMENTS // vth.size)
    for start in range(0, n_steps, block):
        stop = min(start + block, n_steps)
        steps = np.array(mids[start:stop]).reshape((-1,) + lane_axes)
        i_top, i_bottom = _lane_currents(technology, i0_ratio, vth, steps, n_vt)
        want = balances[start:stop].reshape((-1,) + lane_axes)
        if not np.array_equal(_balanced(i_top, i_bottom, tolerance),
                              np.broadcast_to(want, i_top.shape)):
            return False
        moved = min(stop, len(charges_up)) - start
        if moved > 0:
            want = directions[start:start + moved].reshape((-1,) + lane_axes)
            if not np.array_equal(i_top[:moved] > i_bottom[:moved],
                                  np.broadcast_to(want, i_top[:moved].shape)):
                return False
    return True


def _lane_wise(technology, i0_ratio, vth, n_vt, tolerance, max_iterations):
    """Bisect every lane on its own brackets, freezing each lane at the
    iteration where the scalar algorithm would have returned.  The
    fallback of :func:`solve_intermediate_node` and its test oracle."""
    shape = vth.shape
    lo = np.zeros(shape)
    hi = np.full(shape, technology.vdd / 2.0)
    result = np.zeros(shape)
    done = np.zeros(shape, dtype=bool)
    for _ in range(max_iterations):
        mid = 0.5 * (lo + hi)
        i_top, i_bottom = _lane_currents(technology, i0_ratio, vth, mid, n_vt)
        converged = _balanced(i_top, i_bottom, tolerance)
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
    return np.where(done, result, 0.5 * (lo + hi))


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

    ``vth``, ``tox`` and ``leff`` may be numpy arrays; they broadcast,
    and every lane's answer is the one its own scalar bisection gives.
    ``I_top / I_bottom`` does not depend on Vth or on ``I0 * W / Leff``
    (both cancel), so all lanes normally share one bisection path: the
    solve follows the first lane on the scalar path, then checks in one
    broadcast pass that every lane balances and moves the same way at
    every midpoint it tried.  If any lane disagrees, every lane is
    bisected on its own (:func:`_lane_wise`).
    """
    _check_stack(vth, tox, leff)
    knobs = (vth, tox, leff)
    if not any(isinstance(knob, np.ndarray) for knob in knobs):
        return _bisect(technology, vth, tox, leff, tolerance, max_iterations)[0]

    vth_b, tox_b, leff_b = np.broadcast_arrays(
        *(np.atleast_1d(np.asarray(knob, dtype=float)) for knob in knobs)
    )
    i0_ratio = prefactor_kernel(technology, tox_b) * (1.0 / leff_b)
    n_vt = technology.subthreshold_swing_n * technology.thermal_voltage
    result = None
    if vth_b.size:
        vx, mids, charges_up = _bisect(
            technology, float(vth_b.flat[0]), float(tox_b.flat[0]),
            float(leff_b.flat[0]), tolerance, max_iterations,
        )
        if _lanes_follow(technology, i0_ratio, vth_b, n_vt, mids,
                         charges_up, tolerance):
            result = np.full(vth_b.shape, vx)
    if result is None:
        result = _lane_wise(technology, i0_ratio, vth_b, n_vt, tolerance,
                            max_iterations)
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
    _check_stack(vth, tox, leff)
    return two_stack_factor_kernel(technology, vth, tox, leff)


def two_stack_factor_kernel(technology: Technology, vth, tox, leff):
    """:func:`two_stack_factor` past its check."""
    single = subthreshold_kernel(
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

