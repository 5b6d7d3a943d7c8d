"""User-facing cache configuration.

A :class:`CacheConfig` pins down the architectural shape of one cache —
capacity, block size, associativity, port width — and derives the address
breakdown (tag / index / offset bits).  It is deliberately independent of
any process knob: the same configuration is evaluated across the whole
(Vth, Tox) design grid.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigurationError
from repro.units import is_power_of_two, log2_int, to_kb

#: Address width of the 2005-era machine the paper models.
DEFAULT_ADDRESS_BITS = 32

#: Status bits per cache block (valid + dirty).
STATUS_BITS = 2


@dataclass(frozen=True)
class CacheConfig:
    """Architectural parameters of one cache.

    Attributes
    ----------
    size_bytes:
        Total data capacity in bytes (power of two).
    block_bytes:
        Line size in bytes (power of two).
    associativity:
        Number of ways (power of two; 1 = direct-mapped).
    output_bits:
        Width of the read port in bits (64 for an L1 word port, wider for
        an L2 feeding a line buffer).
    address_bits:
        Physical address width.
    name:
        Optional label used in reports (e.g. ``"L1"``).
    """

    size_bytes: int
    block_bytes: int = 64
    associativity: int = 2
    output_bits: int = 64
    address_bits: int = DEFAULT_ADDRESS_BITS
    name: str = "cache"

    def __post_init__(self) -> None:
        for attribute in ("size_bytes", "block_bytes", "associativity"):
            value = getattr(self, attribute)
            if not is_power_of_two(value):
                raise ConfigurationError(
                    f"{attribute} must be a positive power of two, got {value}"
                )
        if self.block_bytes > self.size_bytes:
            raise ConfigurationError(
                f"block ({self.block_bytes} B) larger than cache "
                f"({self.size_bytes} B)"
            )
        if self.associativity > self.n_blocks:
            raise ConfigurationError(
                f"associativity {self.associativity} exceeds the number of "
                f"blocks {self.n_blocks}"
            )
        if self.output_bits < 8:
            raise ConfigurationError(
                f"output port must be at least a byte, got {self.output_bits} bits"
            )
        if self.address_bits < self.offset_bits + self.index_bits + 1:
            raise ConfigurationError(
                f"address_bits={self.address_bits} leaves no tag bits for "
                f"{self.size_bytes}-byte cache"
            )

    # -- derived shape -------------------------------------------------------

    @property
    def n_blocks(self) -> int:
        """Total number of cache blocks."""
        return self.size_bytes // self.block_bytes

    @property
    def n_sets(self) -> int:
        """Number of sets."""
        return self.n_blocks // self.associativity

    @property
    def offset_bits(self) -> int:
        """Block-offset bits of the address."""
        return log2_int(self.block_bytes)

    @property
    def index_bits(self) -> int:
        """Set-index bits of the address."""
        return log2_int(self.n_sets) if self.n_sets > 1 else 0

    @property
    def tag_bits(self) -> int:
        """Tag bits stored with every block."""
        return self.address_bits - self.index_bits - self.offset_bits

    @property
    def bits_per_way(self) -> int:
        """Data + tag + status bits stored for one way of one set."""
        return self.block_bytes * 8 + self.tag_bits + STATUS_BITS

    @property
    def total_storage_bits(self) -> int:
        """All SRAM bits in the cache, tags and status included."""
        return self.n_sets * self.associativity * self.bits_per_way

    @property
    def size_kb(self) -> float:
        """Capacity in KiB (for labels)."""
        return to_kb(self.size_bytes)

    def describe(self) -> str:
        """Return a one-line human-readable summary."""
        return (
            f"{self.name}: {self.size_kb:g} KB, {self.block_bytes}-byte blocks, "
            f"{self.associativity}-way, {self.n_sets} sets, "
            f"{self.tag_bits}-bit tags"
        )


def kib_to_bytes(size_kb: float) -> int:
    """``size_kb`` KiB in bytes; a size that is not whole bytes raises."""
    if (size_kb * 1024) % 1 != 0:
        raise ConfigurationError(
            f"{size_kb!r} KiB is not a whole number of bytes"
        )
    return int(size_kb * 1024)


def l1_config(
    size_kb: float = 16, name: str = "L1", associativity: int = 2
) -> CacheConfig:
    """Return a typical L1 configuration at the given capacity."""
    return CacheConfig(
        size_bytes=kib_to_bytes(size_kb),
        block_bytes=32,
        associativity=associativity,
        output_bits=64,
        name=name,
    )


def l2_config(
    size_kb: float = 1024, name: str = "L2", associativity: int = 8
) -> CacheConfig:
    """Return a typical unified-L2 configuration at the given capacity."""
    return CacheConfig(
        size_bytes=kib_to_bytes(size_kb),
        block_bytes=64,
        associativity=associativity,
        output_bits=256,
        name=name,
    )
