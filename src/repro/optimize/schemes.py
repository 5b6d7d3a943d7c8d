"""The paper's three Vth/Tox assignment schemes (Section 4).

* **Scheme I** — independent (Vth, Tox) per cache component: the best
  leakage, but four implants and four oxides is an expensive process.
* **Scheme II** — one pair for the memory cell array, one shared pair for
  the three peripheral components: nearly as good, "economically
  feasible", the paper's preferred scheme.
* **Scheme III** — one pair for everything: the worst performer.
"""

from __future__ import annotations

import enum
from typing import Dict

from repro.errors import OptimizationError


class Scheme(str, enum.Enum):
    """Assignment scheme identifiers."""

    PER_COMPONENT = "scheme-1"
    CELL_VS_PERIPHERY = "scheme-2"
    UNIFORM = "scheme-3"

    @property
    def paper_name(self) -> str:
        """The Roman-numeral name used in the paper."""
        return {
            Scheme.PER_COMPONENT: "Scheme I",
            Scheme.CELL_VS_PERIPHERY: "Scheme II",
            Scheme.UNIFORM: "Scheme III",
        }[self]

    @property
    def free_pairs(self) -> int:
        """How many independent (Vth, Tox) pairs the scheme allows."""
        return {
            Scheme.PER_COMPONENT: 4,
            Scheme.CELL_VS_PERIPHERY: 2,
            Scheme.UNIFORM: 1,
        }[self]


#: The scheme codes requests, campaign specs and the CLI use.
SCHEME_CODES: Dict[str, Scheme] = {
    "1": Scheme.PER_COMPONENT,
    "2": Scheme.CELL_VS_PERIPHERY,
    "3": Scheme.UNIFORM,
}


def scheme_from_code(code: str) -> Scheme:
    """The scheme a code names, else :class:`OptimizationError`."""
    scheme = SCHEME_CODES.get(code)
    if scheme is None:
        raise OptimizationError(
            f"unknown scheme {code!r}; expected one of {sorted(SCHEME_CODES)}"
        )
    return scheme
