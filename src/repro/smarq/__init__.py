"""SMARQ — software management of the order-based alias register queue.

The paper's primary contribution, in four pieces:

* :mod:`repro.smarq.fast_alloc` — the FAST ALGORITHM (Section 5.1): given a
  fixed schedule and an acyclic constraint graph, allocate alias register
  *orders* by topological traversal, then maximize each operation's BASE
  (MAX-BASE) and insert ``ROTATE`` instructions, minimizing offsets.
* :mod:`repro.smarq.program_order` — the straightforward baseline that
  allocates one register per memory operation in original program order
  (the working-set strawman of Figure 17).
* :mod:`repro.smarq.allocator` — the full integrated algorithm of paper
  Figure 13: constraints built incrementally during list scheduling,
  ready/delay queues, incremental cycle detection, AMOV cycle breaking,
  rotation insertion, and overflow-driven speculation throttling.
* :mod:`repro.smarq.validator` — replays allocations against the hardware
  queue model and proves that every check-constraint is detected and no
  anti-constraint can fire (no false positives).
"""

from repro.smarq.fast_alloc import FastAllocation, fast_allocate
from repro.smarq.program_order import (
    program_order_all_allocation,
    program_order_pbit_allocation,
)
from repro.smarq.allocator import (
    AllocationStats,
    AllocationSummary,
    SmarqAllocator,
)
from repro.smarq.bitmask_alloc import BitmaskAllocator
from repro.smarq.plain_order_alloc import PlainOrderAllocator
from repro.smarq.validator import (
    ValidationError,
    count_anti_violations,
    semantic_pairs_from_allocator,
    validate_allocation,
)

__all__ = [
    "AllocationStats",
    "AllocationSummary",
    "BitmaskAllocator",
    "FastAllocation",
    "PlainOrderAllocator",
    "SmarqAllocator",
    "ValidationError",
    "count_anti_violations",
    "fast_allocate",
    "program_order_all_allocation",
    "program_order_pbit_allocation",
    "semantic_pairs_from_allocator",
    "validate_allocation",
]
