"""Efficeon-like bit-mask alias register file (paper Section 2.2).

Each checking memory operation carries a bit-mask naming exactly the alias
registers it must check. Detection is therefore precise (no false positives)
and store-store aliases are detectable — but the mask lives in the
instruction encoding, so the register count is hard-capped (15 on Efficeon).

SMARQ's experiments model the capacity effect with a 16-entry *ordered*
queue (``SMARQ16``); this module models the Efficeon mechanism itself for
Table 1 and the scheme-comparison example programs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from repro.hw.exceptions import AliasException, AliasRegisterOverflow
from repro.hw.ranges import AccessRange

#: Encoding limit the paper cites for Efficeon's bit-mask.
EFFICEON_MAX_REGISTERS = 15

#: Registers hold plain ``(start, size, is_load)`` tuples; AccessRange
#: objects are materialized only for exception messages and ``repr``.
_FileEntry = Tuple[int, int, bool]


@dataclass
class BitmaskStats:
    sets: int = 0
    checks: int = 0
    comparisons: int = 0
    exceptions: int = 0


class BitmaskAliasFile:
    """Directly indexed alias registers checked via per-instruction masks."""

    def __init__(self, num_registers: int = EFFICEON_MAX_REGISTERS) -> None:
        if num_registers <= 0:
            raise ValueError("need at least one alias register")
        if num_registers > EFFICEON_MAX_REGISTERS:
            raise AliasRegisterOverflow(
                f"bit-mask encoding supports at most {EFFICEON_MAX_REGISTERS} "
                f"registers; asked for {num_registers}"
            )
        self.num_registers = num_registers
        self._entries: Dict[int, _FileEntry] = {}
        self._setters: Dict[int, Optional[int]] = {}
        self.stats = BitmaskStats()

    def _check_index(self, index: int) -> None:
        if not 0 <= index < self.num_registers:
            raise AliasRegisterOverflow(
                f"alias register {index} out of range 0..{self.num_registers - 1}"
            )

    def set(
        self, index: int, access: AccessRange, setter_mem_index: Optional[int] = None
    ) -> None:
        """Record ``access`` in register ``index``."""
        self.set_range(
            index, access.start, access.size, access.is_load, setter_mem_index
        )

    def set_range(
        self,
        index: int,
        start: int,
        size: int,
        is_load: bool,
        setter_mem_index: Optional[int] = None,
    ) -> None:
        """Scalar fast path for :meth:`set` (no AccessRange allocation).
        Keeps :class:`AccessRange`'s validation contract."""
        if size <= 0:
            raise ValueError("access size must be positive")
        if start < 0:
            raise ValueError("access address must be non-negative")
        if not 0 <= index < self.num_registers:
            self._check_index(index)  # raises; out of the hot path
        self._entries[index] = (start, size, is_load)
        self._setters[index] = setter_mem_index
        self.stats.sets += 1

    def check(
        self,
        mask: int,
        access: AccessRange,
        checker_mem_index: Optional[int] = None,
    ) -> None:
        """Check exactly the registers named by ``mask`` (bit i -> ARi)."""
        self.check_range(
            mask, access.start, access.size, access.is_load, checker_mem_index
        )

    def check_range(
        self,
        mask: int,
        a_start: int,
        a_size: int,
        is_load: bool,
        checker_mem_index: Optional[int] = None,
    ) -> None:
        """Scalar fast path for :meth:`check` (same detection rule).
        Keeps :class:`AccessRange`'s validation contract."""
        if a_size <= 0:
            raise ValueError("access size must be positive")
        if a_start < 0:
            raise ValueError("access address must be non-negative")
        if mask < 0 or mask >= (1 << self.num_registers):
            raise AliasRegisterOverflow(
                f"mask {mask:#x} names registers beyond {self.num_registers}"
            )
        stats = self.stats
        stats.checks += 1
        entries = self._entries
        a_top = a_start + a_size
        for index in range(self.num_registers):
            if not mask & (1 << index):
                continue
            entry = entries.get(index)
            if entry is None:
                continue
            stats.comparisons += 1
            e_start, e_size, e_is_load = entry
            if e_start < a_top and a_start < e_start + e_size:
                stats.exceptions += 1
                access = AccessRange(start=a_start, size=a_size, is_load=is_load)
                stored = AccessRange(
                    start=e_start, size=e_size, is_load=e_is_load
                )
                raise AliasException(
                    f"bitmask alias: {access} overlaps AR{index} {stored}",
                    setter_mem_index=self._setters.get(index),
                    checker_mem_index=checker_mem_index,
                )

    def clear(self) -> None:
        self._entries.clear()
        self._setters.clear()

    def reset(self) -> None:
        self.clear()

    def __repr__(self) -> str:
        live = ", ".join(
            f"AR{i}:{AccessRange(start=s, size=n, is_load=ld)}"
            for i, (s, n, ld) in sorted(self._entries.items())
        )
        return f"<BitmaskAliasFile {self.num_registers} regs live=[{live}]>"
