"""Hotness profiling (paper Section 6: hot/cold thresholds).

The profiler counts executions of basic-block heads and of branch edges.
A block becomes *hot* when its head's execution count reaches
``hot_threshold``; a block is *cold* (terminates region growth) while its
count is below ``cold_threshold``. Edge counts steer superblock formation
toward the most frequent successor of each conditional branch.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, FrozenSet, Optional, Set, Tuple

from repro.frontend.program import GuestProgram


@dataclass
class ProfilerConfig:
    hot_threshold: int = 50
    cold_threshold: int = 5


class HotnessProfiler:
    """Execution-count profiler attached to the interpreter's trace hook."""

    def __init__(self, program: GuestProgram, config: Optional[ProfilerConfig] = None) -> None:
        self.program = program
        self.config = config or ProfilerConfig()
        self._heads: FrozenSet[int] = program.block_heads()
        self.block_counts: Dict[int, int] = {}
        self.edge_counts: Dict[Tuple[int, int], int] = {}
        self._last_pc: Optional[int] = None

    # ------------------------------------------------------------------
    def observe(self, pc: int) -> None:
        """Trace hook: called with each executed pc."""
        if pc in self._heads:
            self.block_counts[pc] = self.block_counts.get(pc, 0) + 1
        if self._last_pc is not None and pc != self._last_pc + 1:
            edge = (self._last_pc, pc)
            self.edge_counts[edge] = self.edge_counts.get(edge, 0) + 1
        self._last_pc = pc

    # ------------------------------------------------------------------
    def is_hot(self, head_pc: int) -> bool:
        return self.block_counts.get(head_pc, 0) >= self.config.hot_threshold

    def is_cold(self, head_pc: int) -> bool:
        return self.block_counts.get(head_pc, 0) < self.config.cold_threshold

    def hot_heads(self) -> Set[int]:
        return {
            pc
            for pc, count in self.block_counts.items()
            if count >= self.config.hot_threshold
        }

    def taken_count(self, branch_pc: int, target_pc: int) -> int:
        return self.edge_counts.get((branch_pc, target_pc), 0)

    def prefer_taken(self, branch_pc: int, target_pc: int) -> bool:
        """Did this branch go to ``target_pc`` more often than it fell
        through? Fall-through count is approximated as head count of the
        fall-through block minus the taken count."""
        taken = self.taken_count(branch_pc, target_pc)
        fall_head = branch_pc + 1
        fall = max(0, self.block_counts.get(fall_head, 0) - 0)
        # Fall-through executions of this branch == total branch executions
        # minus taken; total is approximated by the containing block's head
        # count, which we do not track per-branch. The edge count versus
        # fall-through head count comparison is a standard approximation.
        return taken > fall
