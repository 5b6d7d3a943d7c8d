"""Discrete (Vth, Tox) design grids.

Section 4: "we have chosen Vth and Tox to take on discrete values with
small step size".  A :class:`DesignSpace` is the cross product of a Vth
axis and a Tox axis, clamped to a (Vth, Tox) box.  The box defaults to
the paper's 65 nm bounds (0.2-0.5 V, 10-14 Å) and, for scaled nodes,
comes from the :class:`~repro.technology.bptm.Technology` instance
(:meth:`DesignSpace.for_technology`, or the ``technology=`` argument of
:func:`default_space` / :func:`coarse_space`) so every node is clamped
to *its own* design range.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional, Sequence, Tuple

import numpy as np

from repro import units
from repro.errors import OptimizationError
from repro.technology.bptm import (
    TOX_MAX_A,
    TOX_MIN_A,
    VTH_MAX,
    VTH_MIN,
    Technology,
    check_design_box,
)
from repro.cache.assignment import Knobs


@dataclass(frozen=True)
class DesignSpace:
    """A discrete grid of candidate (Vth, Tox) points.

    Attributes
    ----------
    vth_values:
        Ascending Vth candidates (V).
    tox_values_angstrom:
        Ascending Tox candidates (Å).
    vth_min / vth_max / tox_min_a / tox_max_a:
        The clamping box the axes must lie inside; defaults are the
        paper's 65 nm bounds.  The box does not participate in table
        caching (tables depend only on the axes and the model).
    """

    vth_values: Tuple[float, ...]
    tox_values_angstrom: Tuple[float, ...]
    vth_min: float = VTH_MIN
    vth_max: float = VTH_MAX
    tox_min_a: float = TOX_MIN_A
    tox_max_a: float = TOX_MAX_A

    def __post_init__(self) -> None:
        if not self.vth_values or not self.tox_values_angstrom:
            raise OptimizationError("design space must have non-empty axes")
        if list(self.vth_values) != sorted(self.vth_values):
            raise OptimizationError("vth_values must be ascending")
        if list(self.tox_values_angstrom) != sorted(self.tox_values_angstrom):
            raise OptimizationError("tox_values_angstrom must be ascending")
        check_design_box(self, self.vth_values, self.tox_values_angstrom,
                         OptimizationError)

    @classmethod
    def for_technology(
        cls,
        technology: Technology,
        vth_values: Sequence[float],
        tox_values_angstrom: Sequence[float],
    ) -> "DesignSpace":
        """A space over explicit axes, clamped to ``technology``'s box."""
        return cls(
            vth_values=tuple(vth_values),
            tox_values_angstrom=tuple(tox_values_angstrom),
            vth_min=technology.vth_min,
            vth_max=technology.vth_max,
            tox_min_a=technology.tox_min_a,
            tox_max_a=technology.tox_max_a,
        )

    @property
    def n_points(self) -> int:
        """Number of grid points."""
        return len(self.vth_values) * len(self.tox_values_angstrom)

    def points(self) -> Iterator[Knobs]:
        """Iterate every (Vth, Tox) grid point as :class:`Knobs`."""
        for vth in self.vth_values:
            for tox_a in self.tox_values_angstrom:
                yield Knobs(vth=vth, tox=units.angstrom(tox_a))

    def point_list(self) -> Tuple[Knobs, ...]:
        """Materialise :meth:`points` (the optimisers index into it)."""
        return tuple(self.points())

    def describe(self) -> str:
        return (
            f"{len(self.vth_values)} Vth x {len(self.tox_values_angstrom)} "
            f"Tox = {self.n_points} points"
        )


def _box(technology: Optional[Technology]) -> Tuple[float, float, float, float]:
    if technology is None:
        return VTH_MIN, VTH_MAX, TOX_MIN_A, TOX_MAX_A
    return (
        technology.vth_min,
        technology.vth_max,
        technology.tox_min_a,
        technology.tox_max_a,
    )


def default_space(
    vth_step: float = 0.025,
    tox_step: float = 0.5,
    technology: Optional[Technology] = None,
) -> DesignSpace:
    """The paper's fine grid: 25 mV Vth steps, 0.5 Å Tox steps at 65 nm.

    The steps set the *point counts* against the 65 nm box (13 x 9 at
    the defaults); with a ``technology``, the same counts span that
    node's own (smaller) box, so grids stay shape-compatible across
    nodes while the step sizes scale with the node's design range.
    """
    vth_min, vth_max, tox_min_a, tox_max_a = _box(technology)
    n_vth = int(round((VTH_MAX - VTH_MIN) / vth_step)) + 1
    n_tox = int(round((TOX_MAX_A - TOX_MIN_A) / tox_step)) + 1
    return DesignSpace(
        vth_values=tuple(np.linspace(vth_min, vth_max, n_vth)),
        tox_values_angstrom=tuple(np.linspace(tox_min_a, tox_max_a, n_tox)),
        vth_min=vth_min,
        vth_max=vth_max,
        tox_min_a=tox_min_a,
        tox_max_a=tox_max_a,
    )


def coarse_space(technology: Optional[Technology] = None) -> DesignSpace:
    """A coarse grid (50 mV / 1 Å at 65 nm) for the tuple problem."""
    vth_min, vth_max, tox_min_a, tox_max_a = _box(technology)
    return DesignSpace(
        vth_values=tuple(np.linspace(vth_min, vth_max, 7)),
        tox_values_angstrom=tuple(np.linspace(tox_min_a, tox_max_a, 5)),
        vth_min=vth_min,
        vth_max=vth_max,
        tox_min_a=tox_min_a,
        tox_max_a=tox_max_a,
    )
