"""Order-based alias register queue — the hardware SMARQ manages.

The queue is a circular file of ``num_registers`` alias registers with a
rotating BASE pointer. Software references registers by *offset* relative to
the current BASE; the model tracks the absolute *order* (``base + offset``)
internally, exactly the invariance the paper states in Section 3.2.

Detection implements ORDERED-ALIAS-DETECTION-RULE (Section 3.1): an
executing memory operation ``X`` with the C bit checks every previously set,
still-live register whose order is *not earlier* than the order of the
register allocated to ``X``, i.e. every live entry at order >= order(X).
Entries set by loads are marked and skipped when the checker is a load.

Operations:

``set(offset, range)``       — P-bit action: store the access range.
``check(offset, range)``     — C-bit action: compare against live entries.
``rotate(n)``                — advance BASE by ``n``; released entries clear.
``amov(src, dst)``           — move a range between offsets (or clean it
                               when ``src == dst``), paper Section 3.3.

The model raises :class:`AliasRegisterOverflow` if software references an
offset at or beyond the physical register count — SMARQ's allocator
guarantees this never happens; the check catches allocator bugs.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.hw.exceptions import AliasException, AliasRegisterOverflow
from repro.hw.ranges import AccessRange

#: Live entries are stored as plain ``(start, size, is_load,
#: setter_mem_index)`` tuples — the check loop is the simulator's hottest
#: scan and a tuple unpack beats three attribute reads on a dataclass.
#: :class:`AccessRange` objects are materialized only at the API boundary
#: (:meth:`AliasRegisterQueue.entry_at_offset`, exception messages,
#: ``repr``).
_EntryTuple = Tuple[int, int, bool, Optional[int]]


@dataclass
class QueueStats:
    """Counters for energy/efficiency accounting (paper Section 2.4)."""

    sets: int = 0
    checks: int = 0
    comparisons: int = 0  # individual entry comparisons performed
    rotations: int = 0
    rotated_registers: int = 0
    amovs: int = 0
    exceptions: int = 0
    max_live: int = 0


class AliasRegisterQueue:
    """Circular, ordered alias register file with a rotating BASE."""

    def __init__(self, num_registers: int = 64) -> None:
        if num_registers <= 0:
            raise ValueError("need at least one alias register")
        self.num_registers = num_registers
        self._base = 0  # absolute order of offset 0
        self._entries: Dict[int, _EntryTuple] = {}  # keyed by absolute order
        #: live orders kept sorted incrementally, so a check scans only
        #: the suffix at >= its own order instead of sorting every call
        self._orders: List[int] = []
        self.stats = QueueStats()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def base(self) -> int:
        """Absolute order of the register at offset 0."""
        return self._base

    def live_orders(self) -> List[int]:
        """Absolute orders of currently live entries (sorted)."""
        return list(self._orders)

    def entry_at_offset(self, offset: int) -> Optional[AccessRange]:
        """The access range stored at ``offset``, if any."""
        self._check_offset(offset)
        entry = self._entries.get(self._base + offset)
        if entry is None:
            return None
        start, size, is_load, _setter = entry
        return AccessRange(start=start, size=size, is_load=is_load)

    def _check_offset(self, offset: int) -> None:
        if offset < 0:
            raise AliasRegisterOverflow(f"negative alias register offset {offset}")
        if offset >= self.num_registers:
            raise AliasRegisterOverflow(
                f"offset {offset} >= physical register count {self.num_registers}"
            )

    # ------------------------------------------------------------------
    # Architectural operations
    # ------------------------------------------------------------------
    def set(
        self,
        offset: int,
        access: AccessRange,
        setter_mem_index: Optional[int] = None,
    ) -> None:
        """P-bit action: record ``access`` in the register at ``offset``."""
        self.set_range(
            offset, access.start, access.size, access.is_load, setter_mem_index
        )

    def set_range(
        self,
        offset: int,
        start: int,
        size: int,
        is_load: bool,
        setter_mem_index: Optional[int] = None,
    ) -> None:
        """Scalar fast path for :meth:`set` (no :class:`AccessRange`
        allocation — the simulator calls this once per P-bit memory op).

        Keeps :class:`AccessRange`'s validation contract: degenerate
        ranges are rejected here too, not just at the object boundary."""
        if size <= 0:
            raise ValueError("access size must be positive")
        if start < 0:
            raise ValueError("access address must be non-negative")
        if offset < 0 or offset >= self.num_registers:
            self._check_offset(offset)  # raises; out of the hot path
        order = self._base + offset
        entries = self._entries
        if order not in entries:
            insort(self._orders, order)
        entries[order] = (start, size, is_load, setter_mem_index)
        stats = self.stats
        stats.sets += 1
        if len(entries) > stats.max_live:
            stats.max_live = len(entries)

    def check(
        self,
        offset: int,
        access: AccessRange,
        checker_mem_index: Optional[int] = None,
    ) -> None:
        """C-bit action: detect aliases per ORDERED-ALIAS-DETECTION-RULE.

        Checks every live entry whose order is >= ``base + offset``. Entries
        set by loads are skipped when ``access`` is itself a load (hardware
        auto-marks load-set registers, Section 2.4).

        Raises :class:`AliasException` on the first overlapping range.
        """
        self.check_range(
            offset, access.start, access.size, access.is_load, checker_mem_index
        )

    def check_range(
        self,
        offset: int,
        a_start: int,
        a_size: int,
        is_load: bool,
        checker_mem_index: Optional[int] = None,
    ) -> None:
        """Scalar fast path for :meth:`check` (same detection rule).

        Stats contract (identical to the historical ``check``): the
        comparisons performed are always counted, an overlap counts one
        exception, and ``checks`` is incremented only when the check
        completes without detecting — an aborting check never counted.
        """
        if a_size <= 0:
            raise ValueError("access size must be positive")
        if a_start < 0:
            raise ValueError("access address must be non-negative")
        if offset < 0 or offset >= self.num_registers:
            self._check_offset(offset)  # raises; out of the hot path
        own_order = self._base + offset
        orders = self._orders
        entries = self._entries
        stats = self.stats
        a_top = a_start + a_size
        compared = 0
        for idx in range(bisect_left(orders, own_order), len(orders)):
            order = orders[idx]
            s_start, s_size, s_is_load, s_setter = entries[order]
            if is_load and s_is_load:
                continue
            compared += 1
            if s_start < a_top and a_start < s_start + s_size:
                stats.comparisons += compared
                stats.exceptions += 1
                access = AccessRange(
                    start=a_start, size=a_size, is_load=is_load
                )
                stored = AccessRange(
                    start=s_start, size=s_size, is_load=s_is_load
                )
                raise AliasException(
                    f"alias: {access} overlaps {stored} "
                    f"(order {order}, base {self._base})",
                    setter_mem_index=s_setter,
                    checker_mem_index=checker_mem_index,
                )
        stats.comparisons += compared
        stats.checks += 1

    def check_then_set(
        self,
        offset: int,
        access: AccessRange,
        mem_index: Optional[int] = None,
    ) -> None:
        """Combined P+C behaviour: check *before* setting (Section 3.1),
        so an operation never aliases against itself."""
        self.check_range(
            offset, access.start, access.size, access.is_load, mem_index
        )
        self.set_range(
            offset, access.start, access.size, access.is_load, mem_index
        )

    def check_then_set_range(
        self,
        offset: int,
        start: int,
        size: int,
        is_load: bool,
        mem_index: Optional[int] = None,
    ) -> None:
        """Scalar fast path for :meth:`check_then_set`."""
        self.check_range(offset, start, size, is_load, mem_index)
        self.set_range(offset, start, size, is_load, mem_index)

    def rotate(self, amount: int) -> None:
        """Advance BASE by ``amount``; entries rotated past BASE are freed."""
        if amount < 0:
            raise ValueError("rotate amount must be non-negative")
        new_base = self._base + amount
        released = bisect_left(self._orders, new_base)
        if released:
            for order in self._orders[:released]:
                del self._entries[order]
            del self._orders[:released]
        self._base = new_base
        self.stats.rotations += 1
        self.stats.rotated_registers += amount

    def amov(self, src_offset: int, dst_offset: int) -> None:
        """Move the access range from ``src_offset`` to ``dst_offset``.

        After the move the source register is cleaned. ``src == dst`` only
        cleans (the common case the paper notes in Section 3.3).
        """
        self._check_offset(src_offset)
        self._check_offset(dst_offset)
        src_order = self._base + src_offset
        entry = self._entries.pop(src_order, None)
        if entry is not None:
            idx = bisect_left(self._orders, src_order)
            del self._orders[idx]
            if src_offset != dst_offset:
                dst_order = self._base + dst_offset
                if dst_order not in self._entries:
                    insort(self._orders, dst_order)
                self._entries[dst_order] = entry
        self.stats.amovs += 1

    def clear(self) -> None:
        """Flush all entries (atomic region commit/rollback)."""
        self._entries.clear()
        self._orders.clear()

    def reset(self) -> None:
        """Full reset including BASE (new region entry)."""
        self._entries.clear()
        self._orders.clear()
        self._base = 0

    def __repr__(self) -> str:
        live = ", ".join(
            f"AR@{order}:{AccessRange(start=s, size=n, is_load=ld)}"
            for order, (s, n, ld, _m) in sorted(self._entries.items())
        )
        return (
            f"<AliasRegisterQueue base={self._base} "
            f"regs={self.num_registers} live=[{live}]>"
        )
