"""Flat guest memory.

Little-endian byte-addressable memory held as one Python ``list`` of
unsigned 64-bit words: word ``i`` is bytes ``8*i`` to ``8*i + 8``, as an
int in ``[0, 2**64)``. Values are unsigned integers of 1/2/4/8 bytes;
register-level signedness is the interpreter's business.

Every consumer reads, writes and rolls back the same representation. An
aligned 8-byte access is one list subscript; any other size or alignment
shifts and masks over the words it touches. The replay kernels index
:attr:`Memory.words` directly. Every replay tier rolls a store back
through a ``(word index, old word)`` pair, which one loop restores:
the dispatch loop and ``py`` log one per word they touch
(:meth:`Memory.write_logged`), the vec kernel one per store, and a
batch kernel keeps them in locals and returns only those of the
iteration it was running. The word list holds ``ceil(size / 8)``
words, so it ends where the memory does exactly when ``size`` is a
whole number of words; the kernels take their upper bound from it only
then. :meth:`Memory.to_bytes` serves the whole memory to oracles and
tests.
"""

from __future__ import annotations

from struct import pack, unpack

_MASK64 = (1 << 64) - 1


class MemoryFault(Exception):
    """Out-of-bounds guest access."""


class Memory:
    """Byte-addressable little-endian guest memory of 64-bit words."""

    def __init__(self, size: int) -> None:
        if size <= 0:
            raise ValueError("memory size must be positive")
        #: the byte bound every access is checked against
        self.size = size
        #: ``ceil(size / 8)`` canonical unsigned words; the bytes of the
        #: last word past ``size`` stay 0, since no access reaches them.
        #: The list object is stable for the memory's lifetime (restores
        #: assign a slice), so kernels may hold it.
        self.words = [0] * ((size + 7) >> 3)

    def _check(self, addr: int, size: int) -> None:
        if addr < 0 or addr + size > self.size:
            raise MemoryFault(
                f"access [{addr:#x}, {addr + size:#x}) outside memory of "
                f"{self.size:#x} bytes"
            )

    def _span(self, addr: int, size: int):
        """``(i, j, value)``: the words ``[i, j)`` an access touches, as
        one little-endian int."""
        i = addr >> 3
        j = (addr + size + 7) >> 3
        raw = pack(f"<{j - i}Q", *self.words[i:j])
        return i, j, int.from_bytes(raw, "little")

    def read(self, addr: int, size: int = 8) -> int:
        """Read an unsigned little-endian integer."""
        if size == 8 and not addr & 7 and 0 <= addr <= self.size - 8:
            return self.words[addr >> 3]
        self._check(addr, size)
        return self._span(addr, size)[2] >> ((addr & 7) << 3) & (
            (1 << (size << 3)) - 1
        )

    def write(self, addr: int, value: int, size: int = 8) -> None:
        """Write an unsigned little-endian integer (value masked to size)."""
        if size == 8 and not addr & 7 and 0 <= addr <= self.size - 8:
            self.words[addr >> 3] = value & _MASK64
            return
        self._check(addr, size)
        i, j, old = self._span(addr, size)
        shift = (addr & 7) << 3
        mask = ((1 << (size << 3)) - 1) << shift
        new = old & ~mask | value << shift & mask
        n = j - i
        self.words[i:j] = unpack(f"<{n}Q", new.to_bytes(n << 3, "little"))

    def write_logged(self, addr: int, value: int, size: int, log) -> None:
        """:meth:`write`, first passing ``(word index, old word)`` to
        ``log`` for each word the access touches — the undo entry the
        dispatch loop and ``py`` keep. A fault logs nothing."""
        words = self.words
        i = addr >> 3
        if size == 8 and not addr & 7 and 0 <= addr <= self.size - 8:
            log((i, words[i]))
            words[i] = value & _MASK64
            return
        self._check(addr, size)
        for k in range(i, (addr + size + 7) >> 3):
            log((k, words[k]))
        self.write(addr, value, size)

    def to_bytes(self) -> bytes:
        """The whole memory, ``size`` bytes."""
        return pack(f"<{len(self.words)}Q", *self.words)[: self.size]

    def __repr__(self) -> str:
        return f"<Memory {self.size:#x} bytes>"
