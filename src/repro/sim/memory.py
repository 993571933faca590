"""Flat guest memory.

Little-endian byte-addressable memory backed by a ``bytearray``. Values are
unsigned integers of 1/2/4/8 bytes; register-level signedness is the
interpreter's business. The memory also exposes raw byte access for the
atomic-region undo log, and :attr:`Memory.words`, a view of the same
bytes as native-endian 64-bit words for the replay kernels.
"""

from __future__ import annotations

from typing import Optional


class MemoryFault(Exception):
    """Out-of-bounds guest access."""


class Memory:
    """Byte-addressable little-endian guest memory."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        self._data = bytearray(size)
        self.size = size
        #: the same bytes as native-endian unsigned 64-bit words, over
        #: the first ``size & ~7`` bytes: word ``i`` is bytes ``8*i`` to
        #: ``8*i + 8``. On a little-endian host ``words[addr >> 3]`` is
        #: ``read(addr)`` for an 8-aligned ``addr``; the replay kernels
        #: read, write and roll back memory through it, and lower only on
        #: such a host. Writes through either view show in the other.
        self.words = memoryview(self._data)[: size & ~7].cast("Q")

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + size:#x}) outside memory of "
                f"{self.size:#x} bytes"
            )

    @property
    def buffer(self) -> bytearray:
        """The backing bytearray, for hot-path consumers that inline
        accesses (the VLIW simulator's compiled replay functions). The
        object is stable for the memory's lifetime — mutations always go
        through same-length slice assignment (:attr:`words` holds an
        export of it, so a resize raises :class:`BufferError`). Callers
        must enforce bounds via :meth:`check_bounds` to preserve
        :class:`MemoryFault` semantics."""
        return self._data

    def check_bounds(self, addr: int, size: int) -> None:
        """Public bounds check: raises :class:`MemoryFault` exactly as the
        read/write accessors would for an out-of-range access."""
        self._check(addr, size)

    def read(self, addr: int, size: int = 8) -> int:
        """Read an unsigned little-endian integer."""
        self._check(addr, size)
        return int.from_bytes(self._data[addr : addr + size], "little")

    def write(self, addr: int, value: int, size: int = 8) -> None:
        """Write an unsigned little-endian integer (value masked to size)."""
        self._check(addr, size)
        mask = (1 << (8 * size)) - 1
        self._data[addr : addr + size] = (int(value) & mask).to_bytes(
            size, "little"
        )

    def read_bytes(self, addr: int, size: int) -> bytes:
        self._check(addr, size)
        return bytes(self._data[addr : addr + size])

    def write_bytes(self, addr: int, data: bytes) -> None:
        self._check(addr, len(data))
        self._data[addr : addr + len(data)] = data

    def fill(self, addr: int, size: int, pattern: int = 0) -> None:
        """Fill a span with a repeating byte pattern."""
        self._check(addr, size)
        self._data[addr : addr + size] = bytes([pattern & 0xFF]) * size

    def __repr__(self) -> str:
        return f"<Memory {self.size:#x} bytes>"
