"""Plain order-based allocation — Section 2.4's baseline, runnable.

The order-based hardware *without* SMARQ's management: every memory
operation gets an alias register in original program order, sets it, and
checks all later-ordered live registers (no P/C selectivity, no
rotation). The paper argues three weaknesses, and this executable version
exhibits all of them:

1. **register waste** — the working set is the full memory-op count, so
   a region with more memory operations than physical registers cannot
   speculate at all (the allocator refuses speculation for the whole
   region, degrading it to a conservative schedule);
2. **wasted checks** — every operation compares against every live later
   register, not just the constrained ones (energy, Section 2.4);
3. **no eliminations** — program-order allocation cannot express the
   checks speculative load/store elimination requires, so the scheme is
   used with eliminations disabled.

Correct for pure reordering by the paper's Section 5.2 argument: all
constraints follow program order, so the program-order assignment
satisfies every check-constraint and can produce no false positive.
"""

from __future__ import annotations

from typing import List, Tuple, Union

from repro.analysis.dependence import DependenceSet, DependenceSources
from repro.ir.instruction import Instruction
from repro.sched.list_scheduler import AllocatorHook
from repro.sched.machine import MachineModel
from repro.smarq.allocator import AllocationStats


class PlainOrderAllocator(AllocatorHook):
    """One register per memory op, in program order, set+check on all."""

    def __init__(
        self,
        machine: MachineModel,
        dependences: Union[DependenceSet, DependenceSources],
        program_order: List[Instruction],
    ) -> None:
        """``dependences`` is accepted for the allocator interface; every
        memory operation is set and checked, so none is read."""
        self.machine = machine
        self.stats = AllocationStats()
        mem_ops = [inst for inst in program_order if inst.is_mem]
        self.stats.memory_ops = len(mem_ops)
        #: speculation is only possible when every memory op fits
        self.fits = len(mem_ops) <= machine.alias_registers
        if self.fits:
            for op in mem_ops:
                # every op both protects and checks, at its program index
                op.p_bit = True
                op.c_bit = True
                op.ar_offset = op.mem_index
                op.ar_order = op.mem_index
            self.stats.p_bit_ops = len(mem_ops)
            self.stats.c_bit_ops = len(mem_ops)
            self.stats.registers_allocated = len(mem_ops)
            self.stats.working_set = len(mem_ops)

    def speculation_allowed(self, inst: Instruction) -> bool:
        if not self.fits:
            self.stats.speculation_throttled += 1
            return False
        return True

    def on_scheduled(
        self, inst: Instruction, cycle: int
    ) -> Tuple[List[Instruction], List[Instruction]]:
        return ([], [])

    def on_finish(self, linear: List[Instruction]) -> None:
        if not self.fits:
            # conservative schedule: annotations must not reach hardware
            for inst in linear:
                if inst.is_mem:
                    inst.p_bit = inst.c_bit = False
                    inst.ar_offset = inst.ar_order = None
            self.stats.p_bit_ops = 0
            self.stats.c_bit_ops = 0
            self.stats.registers_allocated = 0
            self.stats.working_set = 0
