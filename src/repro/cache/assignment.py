"""(Vth, Tox) knob assignments — the paper's decision variables.

Every optimisation in the paper chooses, for each cache component, one
point from the (Vth, Tox) grid.  :class:`Knobs` is one such point;
:class:`Assignment` maps the four component names to knobs and provides
the constructors matching the paper's three schemes:

* :meth:`Assignment.uniform` — Scheme III (one pair everywhere);
* :meth:`Assignment.split` — Scheme II (one pair for the memory cell
  array, one shared by the three peripheral components);
* :meth:`Assignment.per_component` — Scheme I (independent pairs).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, NamedTuple, Set, Tuple

from repro import units
from repro.errors import ConfigurationError
from repro.technology.bptm import bptm65, check_design_box

#: The paper's four cache components, in critical-path order.
COMPONENT_NAMES: Tuple[str, ...] = (
    "address_drivers",
    "decoder",
    "array",
    "data_drivers",
)

#: The components the paper groups as "peripheral" in Scheme II.
PERIPHERAL_COMPONENTS: Tuple[str, ...] = (
    "address_drivers",
    "decoder",
    "data_drivers",
)


class Knobs(NamedTuple):
    """One (Vth, Tox) design point.

    Attributes
    ----------
    vth:
        Saturated threshold voltage (V).
    tox:
        Gate-oxide thickness (m).
    """

    vth: float
    tox: float

    @property
    def tox_angstrom(self) -> float:
        """Oxide thickness in ångströms (the paper's unit)."""
        return units.to_angstrom(self.tox)

    def validate(self, technology=None) -> "Knobs":
        """Return self if inside the design box, else raise.

        Without a ``technology`` the box is the paper's 65 nm range;
        with one, the node's own bounds.
        """
        check_design_box(
            technology if technology is not None else bptm65(),
            (self.vth,), (self.tox_angstrom,), ConfigurationError,
        )
        return self

    def label(self) -> str:
        """Return a short human-readable form like ``(0.35 V, 12 Å)``."""
        return f"({self.vth:.2f} V, {self.tox_angstrom:.0f} Å)"


def knobs(vth: float, tox_angstrom: float) -> Knobs:
    """Convenience constructor taking Tox in ångströms (the paper's unit)."""
    return Knobs(vth=vth, tox=units.angstrom(tox_angstrom))


@dataclass(frozen=True)
class Assignment:
    """A complete component -> :class:`Knobs` mapping for one cache."""

    by_component: Tuple[Tuple[str, Knobs], ...]

    def __post_init__(self) -> None:
        names = tuple(name for name, _ in self.by_component)
        if sorted(names) != sorted(COMPONENT_NAMES):
            raise ConfigurationError(
                f"assignment must cover exactly {COMPONENT_NAMES}, got {names}"
            )

    # -- constructors ---------------------------------------------------

    @classmethod
    def from_mapping(cls, mapping: Dict[str, Knobs]) -> "Assignment":
        """Build from a dict with exactly the four component names."""
        if sorted(mapping) != sorted(COMPONENT_NAMES):
            raise ConfigurationError(
                f"assignment must cover exactly {COMPONENT_NAMES}, got "
                f"{tuple(mapping)}"
            )
        return cls(
            by_component=tuple(
                (name, mapping[name]) for name in COMPONENT_NAMES
            )
        )

    @classmethod
    def uniform(cls, point: Knobs) -> "Assignment":
        """Scheme III: the same pair on all four components."""
        return cls.from_mapping({name: point for name in COMPONENT_NAMES})

    @classmethod
    def split(cls, cell: Knobs, periphery: Knobs) -> "Assignment":
        """Scheme II: one pair for the array, one for the periphery."""
        mapping = {name: periphery for name in PERIPHERAL_COMPONENTS}
        mapping["array"] = cell
        return cls.from_mapping(mapping)

    @classmethod
    def per_component(
        cls,
        address_drivers: Knobs,
        decoder: Knobs,
        array: Knobs,
        data_drivers: Knobs,
    ) -> "Assignment":
        """Scheme I: independent pairs per component."""
        return cls.from_mapping(
            {
                "address_drivers": address_drivers,
                "decoder": decoder,
                "array": array,
                "data_drivers": data_drivers,
            }
        )

    # -- queries ----------------------------------------------------------

    def __getitem__(self, component: str) -> Knobs:
        for name, point in self.by_component:
            if name == component:
                return point
        raise KeyError(component)

    def components(self) -> Iterable[Tuple[str, Knobs]]:
        """Iterate (component name, knobs) pairs in critical-path order."""
        return iter(self.by_component)

    @property
    def array(self) -> Knobs:
        return self["array"]

    def distinct_vths(self) -> Set[float]:
        """Return the set of distinct Vth values used."""
        return {point.vth for _, point in self.by_component}

    def distinct_toxes(self) -> Set[float]:
        """Return the set of distinct Tox values used."""
        return {point.tox for _, point in self.by_component}

    def process_cost(self) -> Tuple[int, int]:
        """Return (#Tox, #Vth) — the paper's process-cost measure.

        Each extra oxide thickness is an extra mask/growth step; each
        extra Vth is an extra implant.  Section 5's tuple problem budgets
        these counts across the whole memory system.
        """
        return (len(self.distinct_toxes()), len(self.distinct_vths()))

    def describe(self) -> str:
        """Return a multi-line human-readable dump."""
        lines = [
            f"  {name:16s} -> {point.label()}"
            for name, point in self.by_component
        ]
        return "\n".join(lines)
