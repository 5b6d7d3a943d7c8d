"""Tox co-scaling rules (Section 2 of the paper).

Increasing Tox while keeping the drawn channel length fixed would let the
gate lose electrostatic control of the channel (worsening DIBL), so the
paper scales the drawn channel length together with Tox.  To preserve the
read/write stability ratios of the 6T memory cell, the transistor widths in
the cell are scaled proportionally with the new channel length, which grows
the cell footprint in *both* dimensions.

This module encodes that rule as :class:`ToxScalingRule`:

* ``L(tox) = L_ref * (tox / tox_ref) ** length_exponent``
* ``W_cell(tox) = W_ref * (tox / tox_ref) ** length_exponent``
* ``area_cell(tox) = area_ref * (tox / tox_ref) ** (2 * length_exponent)``

with ``length_exponent = 1`` by default (straight proportionality, the
simplest reading of the paper).  Peripheral-logic transistor widths are a
free sizing variable and are *not* forced to scale — only their channel
length follows the oxide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import TechnologyError
from repro.technology.bptm import Technology


@dataclass(frozen=True)
class ScaledGeometry:
    """Geometry of one technology instantiation after Tox co-scaling.

    Attributes
    ----------
    tox:
        Oxide thickness (m) this geometry was derived for.
    lgate_drawn:
        Scaled drawn channel length (m).
    leff:
        Scaled effective channel length (m).
    width_scale:
        Multiplier applied to memory-cell transistor widths.
    cell_height / cell_width:
        Scaled 6T cell footprint (m).
    cell_area:
        Scaled 6T cell area (m^2).
    """

    tox: float
    lgate_drawn: float
    leff: float
    width_scale: float
    cell_height: float
    cell_width: float

    @property
    def cell_area(self) -> float:
        return self.cell_height * self.cell_width


@dataclass(frozen=True)
class ToxScalingRule:
    """The paper's Tox -> (channel length, cell geometry) coupling.

    Parameters
    ----------
    technology:
        The reference node whose nominal geometry is scaled.
    length_exponent:
        Exponent of the (tox / tox_ref) scaling of drawn length; 1.0 means
        straight proportionality.  Setting 0.0 disables the coupling
        entirely, which the ablation benches use to quantify how much the
        conclusion depends on it.
    """

    technology: Technology
    length_exponent: float = 0.6

    def length_scale(self, tox: float) -> float:
        """Return the drawn-length multiplier for oxide thickness ``tox`` (m).

        ``tox`` may be a numpy array.  Its elements are then evaluated
        one by one on the scalar path: numpy's ``**`` can differ from
        Python's in the last ulp, and a grid column's geometry must equal
        the scalar geometry at its Tox exactly.
        """
        if isinstance(tox, np.ndarray):
            return np.reshape(
                [self.length_scale(value) for value in tox.ravel().tolist()],
                tox.shape,
            )
        if tox <= 0:
            raise TechnologyError(f"tox must be positive, got {tox}")
        return (tox / self.technology.tox_ref) ** self.length_exponent

    def geometry(self, tox: float) -> ScaledGeometry:
        """Return the full scaled geometry for oxide thickness ``tox`` (m).

        ``tox`` may be a numpy array (a row of Tox grid columns); every
        length then has its shape (see :meth:`length_scale`).
        """
        scale = self.length_scale(tox)
        tech = self.technology
        return ScaledGeometry(
            tox=tox,
            lgate_drawn=tech.lgate_drawn * scale,
            leff=tech.lgate_drawn * scale * tech.leff_ratio,
            width_scale=scale,
            cell_height=tech.cell_height_ref * scale,
            cell_width=tech.cell_width_ref * scale,
        )

    def cell_area(self, tox: float) -> float:
        """Return the 6T cell area (m^2) at oxide thickness ``tox`` (m).

        Grows quadratically with the length scale because the cell grows in
        both horizontal and vertical dimensions (Section 2).
        """
        return self.geometry(tox).cell_area
