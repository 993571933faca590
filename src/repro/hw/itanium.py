"""Itanium-like ALAT model (paper Sections 2.3 and 6.1).

The Advanced Load Address Table records the address range of each advanced
load. Every store automatically checks *all* live entries — software cannot
name which entries to check. Consequences the paper exploits:

* **False positives**: a store that aliases an advanced load it was never
  reordered against still raises an exception (Figure 3's M2 vs M1 case).
* **No store-store detection**: stores do not allocate entries, so aliases
  between reordered stores are invisible; the optimizer must not reorder
  stores under this model.

The model keys entries by the setter's mem_index so invalidation semantics
(a check-load removing its own entry) can be expressed.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Set, Tuple

from repro.hw.exceptions import AliasException
from repro.hw.ranges import AccessRange

#: Live ALAT entries are plain ``(start, size, is_load)`` tuples — every
#: store scans the whole table, so the scan loop avoids attribute reads;
#: :class:`AccessRange` objects exist only at the API boundary
#: (exception messages, :meth:`AlatModel.advanced_load`'s signature).
_AlatEntry = Tuple[int, int, bool]


@dataclass
class AlatStats:
    inserts: int = 0
    store_checks: int = 0
    comparisons: int = 0
    exceptions: int = 0
    false_positives: int = 0


class AlatModel:
    """ALAT-style alias detection: loads insert, stores check everything."""

    def __init__(self, num_entries: int = 32) -> None:
        if num_entries <= 0:
            raise ValueError("ALAT needs at least one entry")
        self.num_entries = num_entries
        self._entries: Dict[int, _AlatEntry] = {}  # mem_index -> range
        #: mem_index keys kept sorted, so every store's full-table check
        #: walks them directly instead of re-sorting the dict
        self._keys: List[int] = []
        self.stats = AlatStats()

    def _drop_key(self, mem_index: int) -> None:
        idx = bisect_left(self._keys, mem_index)
        if idx < len(self._keys) and self._keys[idx] == mem_index:
            del self._keys[idx]

    def advanced_load(self, mem_index: int, access: AccessRange) -> None:
        """``ld.a`` — insert an entry; evicts the oldest when full.

        Eviction silently loses protection; real Itanium turns the later
        ``chk.a`` into a recovery branch. Our model treats eviction as a
        detection (conservative) to keep the simulator's recovery story
        uniform: see :meth:`check_load`.
        """
        self.advanced_load_range(
            mem_index, access.start, access.size, access.is_load
        )

    def advanced_load_range(
        self, mem_index: int, start: int, size: int, is_load: bool
    ) -> None:
        """Scalar fast path for :meth:`advanced_load` (no
        :class:`AccessRange` allocation — called once per P-bit load).
        Keeps :class:`AccessRange`'s validation contract."""
        if size <= 0:
            raise ValueError("access size must be positive")
        if start < 0:
            raise ValueError("access address must be non-negative")
        entries = self._entries
        if len(entries) >= self.num_entries:
            oldest = self._keys[0]
            del self._keys[0]
            del entries[oldest]
        if mem_index not in entries:
            insort(self._keys, mem_index)
        entries[mem_index] = (start, size, is_load)
        self.stats.inserts += 1

    def store_check(
        self,
        access: AccessRange,
        checker_mem_index: Optional[int] = None,
        required_targets: Optional[Set[int]] = None,
    ) -> None:
        """Every store checks ALL live entries.

        ``required_targets`` is the set of setter mem_indexes that a precise
        scheme (SMARQ) would have needed to check; it is used purely for
        accounting, letting the model label an exception as a false positive
        when the overlapping entry was not a required target.
        """
        self.store_check_range(
            access.start,
            access.size,
            access.is_load,
            checker_mem_index,
            required_targets,
        )

    def store_check_range(
        self,
        a_start: int,
        a_size: int,
        is_load: bool,
        checker_mem_index: Optional[int] = None,
        required_targets: Optional[Set[int]] = None,
    ) -> None:
        """Scalar fast path for :meth:`store_check` (same rule).
        Keeps :class:`AccessRange`'s validation contract."""
        if a_size <= 0:
            raise ValueError("access size must be positive")
        if a_start < 0:
            raise ValueError("access address must be non-negative")
        stats = self.stats
        stats.store_checks += 1
        entries = self._entries
        a_top = a_start + a_size
        compared = 0
        try:
            for mem_index in self._keys:
                e_start, e_size, e_is_load = entries[mem_index]
                compared += 1
                if e_start < a_top and a_start < e_start + e_size:
                    self._raise_overlap(
                        AccessRange(start=e_start, size=e_size, is_load=e_is_load),
                        AccessRange(start=a_start, size=a_size, is_load=is_load),
                        mem_index,
                        checker_mem_index,
                        required_targets,
                    )
        finally:
            stats.comparisons += compared

    def _raise_overlap(
        self,
        entry: AccessRange,
        access: AccessRange,
        mem_index: int,
        checker_mem_index: Optional[int],
        required_targets: Optional[Set[int]],
    ) -> None:
        """Account for and raise a store-check hit (cold path)."""
        false_positive = (
            required_targets is not None and mem_index not in required_targets
        )
        self.stats.exceptions += 1
        if false_positive:
            self.stats.false_positives += 1
        raise AliasException(
            f"ALAT alias: store {access} overlaps entry {entry}",
            setter_mem_index=mem_index,
            checker_mem_index=checker_mem_index,
            false_positive=false_positive,
        )

    def check_load(self, mem_index: int) -> bool:
        """``ld.c`` / ``chk.a`` — verify the advanced load's entry survives.

        Returns True (and removes the entry) if the entry is intact; False
        means the entry was evicted and the speculation must be recovered.
        """
        if self._entries.pop(mem_index, None) is not None:
            self._drop_key(mem_index)
            return True
        return False

    def invalidate(self, mem_index: int) -> None:
        """Drop an entry without checking (region exit cleanup)."""
        if self._entries.pop(mem_index, None) is not None:
            self._drop_key(mem_index)

    def clear(self) -> None:
        self._entries.clear()
        self._keys.clear()

    def reset(self) -> None:
        self._entries.clear()
        self._keys.clear()

    @property
    def live_count(self) -> int:
        return len(self._entries)

    def __repr__(self) -> str:
        return f"<AlatModel {len(self._entries)}/{self.num_entries} live>"
