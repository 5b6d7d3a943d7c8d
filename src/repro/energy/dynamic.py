"""Dynamic (switched) energy composition per memory reference.

Every reference pays the L1 read energy; an L1 miss additionally pays the
L2 read energy plus an L1 line fill (modelled as one more L1 access); an
L2 miss pays the main-memory access energy plus an L2 line fill.  The
"dynamic power expended as a result of cache misses" the abstract calls
out is exactly these conditional terms.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError

#: 2005-era DDR/DDR2 access: tens of ns and a couple of nJ per burst; the
#: per-reference values below assume the paper's pJ-scale accounting
#: (energy of moving one cache line on the bus, amortised).
DEFAULT_MEMORY_LATENCY = 20e-9
DEFAULT_MEMORY_ENERGY = 2e-9


def check_energy_input(
    label: str, value: float, positive: bool = False
) -> None:
    """Raise :class:`ConfigurationError` unless ``value`` is finite and
    ``>= 0`` (``> 0`` with ``positive``).

    The finiteness test comes first because every comparison with NaN
    is false: a bare ``value < 0`` lets NaN through.  The energy models
    and both solvers' ``fill_factor`` arguments share this one check.
    """
    if not math.isfinite(value) or value < 0 or (positive and value == 0):
        bound = "> 0" if positive else ">= 0"
        raise ConfigurationError(
            f"{label} must be finite and {bound}, got {value}"
        )


@dataclass(frozen=True)
class MainMemoryModel:
    """Main memory as seen by the L2: a flat latency and access energy.

    Off-chip DRAM leakage is not billed to the processor's budget (the
    paper optimises the on-chip knobs; memory enters through miss latency
    and miss energy only).
    """

    latency: float = DEFAULT_MEMORY_LATENCY
    energy_per_access: float = DEFAULT_MEMORY_ENERGY

    def __post_init__(self) -> None:
        check_energy_input("memory latency", self.latency, positive=True)
        check_energy_input("memory energy", self.energy_per_access)


@dataclass(frozen=True)
class DynamicEnergyModel:
    """Per-reference dynamic energy of the two-level system.

    Parameters
    ----------
    l1_access_energy / l2_access_energy:
        Switched energy (J) of one access at each level, as produced by
        :meth:`repro.cache.cache_model.CacheModel.dynamic_read_energy`.
    memory:
        The main-memory model.
    fill_factor:
        Energy multiplier of a line fill relative to a read access at the
        same level (a fill writes a whole line; 1.0 is the conservative
        default).
    """

    l1_access_energy: float
    l2_access_energy: float
    memory: MainMemoryModel = MainMemoryModel()
    fill_factor: float = 1.0

    def __post_init__(self) -> None:
        for label in ("l1_access_energy", "l2_access_energy", "fill_factor"):
            check_energy_input(label, getattr(self, label))

    def energy_per_reference(
        self, l1_miss_rate: float, l2_local_miss_rate: float
    ) -> float:
        """Return expected dynamic energy (J) of one CPU reference."""
        for label, rate in (
            ("l1_miss_rate", l1_miss_rate),
            ("l2_local_miss_rate", l2_local_miss_rate),
        ):
            if not 0.0 <= rate <= 1.0:
                raise ConfigurationError(
                    f"{label} must be in [0, 1], got {rate}"
                )
        l1 = self.l1_access_energy
        l2 = self.l2_access_energy
        fill_l1 = self.fill_factor * l1
        fill_l2 = self.fill_factor * l2
        miss_to_l2 = l2 + fill_l1
        miss_to_memory = self.memory.energy_per_access + fill_l2
        return l1 + l1_miss_rate * (
            miss_to_l2 + l2_local_miss_rate * miss_to_memory
        )
