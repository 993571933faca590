"""Bit-mask (Efficeon-style) alias register allocation.

The paper approximates Efficeon with a 16-entry *ordered* queue (SMARQ16);
this module implements the real thing end to end, so the bit-mask design
point can be evaluated directly: directly-indexed registers, each checking
memory operation carrying an explicit mask of the registers it must check.

Compared to SMARQ's ordered allocation this is *simpler software*:

* no ordering constraints at all — no partial order, no cycles, no AMOV;
* a register frees the moment its last checker is scheduled (no in-order
  rotation requirement), so the working set can even undercut SMARQ's;

and a *hard hardware wall*: the mask lives in the instruction encoding,
capping the file at :data:`~repro.hw.efficeon.EFFICEON_MAX_REGISTERS`
registers. When the free list runs dry the allocator refuses further
speculation, exactly like SMARQ's overflow throttling.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.dependence import (
    DependenceSet,
    DependenceSources,
    dependence_sources,
)
from repro.hw.efficeon import EFFICEON_MAX_REGISTERS
from repro.ir.instruction import Instruction
from repro.sched.list_scheduler import AllocatorHook
from repro.sched.machine import MachineModel
from repro.smarq.allocator import AllocationStats


class BitmaskAllocator(AllocatorHook):
    """Scheduler hook performing bit-mask alias register allocation."""

    def __init__(
        self,
        machine: MachineModel,
        dependences: Union[DependenceSet, DependenceSources],
        program_order: List[Instruction],
        num_registers: int = EFFICEON_MAX_REGISTERS,
        reserve: int = 1,
    ) -> None:
        if num_registers > EFFICEON_MAX_REGISTERS:
            raise ValueError(
                f"bit-mask encoding caps at {EFFICEON_MAX_REGISTERS} registers"
            )
        self.machine = machine
        self._sources = dependence_sources(dependences)
        self.num_registers = num_registers
        self._reserve = reserve
        self.stats = AllocationStats()
        self.stats.memory_ops = sum(1 for i in program_order if i.is_mem)

        self._free: List[int] = list(range(num_registers - 1, -1, -1))
        self._scheduled: Set[int] = set()
        #: setter uid -> its register index
        self._index: Dict[int, int] = {}
        #: setter uid -> uids of checkers not yet scheduled
        self._pending_checkers: Dict[int, Set[int]] = {}
        #: checker uid -> target setter uids
        self._targets_of: Dict[int, Set[int]] = {}
        #: (checker_uid, target_uid) — same shape as SmarqAllocator's
        self._check_pairs: Set[Tuple[int, int]] = set()
        self._inst: Dict[int, Instruction] = {i.uid: i for i in program_order}
        self._live_peak = 0

    # ------------------------------------------------------------------
    # AllocatorHook
    # ------------------------------------------------------------------
    def speculation_allowed(self, inst: Instruction) -> bool:
        if len(self._free) > self._reserve:
            return True
        self.stats.speculation_throttled += 1
        return False

    def on_scheduled(
        self, inst: Instruction, cycle: int
    ) -> Tuple[List[Instruction], List[Instruction]]:
        self._scheduled.add(inst.uid)
        if not inst.is_mem:
            return ([], [])

        # New obligations: unscheduled dependence sources must check inst.
        for checker in self._sources.sources_of(inst):
            if checker.uid in self._scheduled:
                continue  # in program order: bit-mask needs nothing
            if (checker.uid, inst.uid) in self._check_pairs:
                continue
            self._check_pairs.add((checker.uid, inst.uid))
            self.stats.check_constraints += 1
            if not checker.c_bit:
                checker.c_bit = True
                self.stats.c_bit_ops += 1
            if not inst.p_bit:
                inst.p_bit = True
                self.stats.p_bit_ops += 1
                self._allocate_register(inst)
            self._pending_checkers.setdefault(inst.uid, set()).add(checker.uid)
            self._targets_of.setdefault(checker.uid, set()).add(inst.uid)

        # If inst is itself a checker, build its mask and release targets
        # in uid (creation) order: the free list's order picks the next
        # register, so it must not follow a set's hash order, which
        # depends on the uid values themselves.
        if inst.uid in self._targets_of:
            mask = inst.ar_mask or 0
            for target_uid in sorted(self._targets_of.pop(inst.uid)):
                mask |= 1 << self._index[target_uid]
                pending = self._pending_checkers.get(target_uid)
                if pending is not None:
                    pending.discard(inst.uid)
                    if not pending:
                        self._release_register(target_uid)
            inst.ar_mask = mask
        return ([], [])

    def on_finish(self, linear: List[Instruction]) -> None:
        self.stats.registers_allocated = len(self._index)
        self.stats.working_set = self._live_peak

    # ------------------------------------------------------------------
    def _allocate_register(self, inst: Instruction) -> None:
        if not self._free:
            raise RuntimeError(
                "bit-mask register file exhausted (throttling bug)"
            )
        index = self._free.pop()
        self._index[inst.uid] = index
        inst.ar_offset = index  # direct index, never rotated
        live = self.num_registers - len(self._free)
        self._live_peak = max(self._live_peak, live)

    def _release_register(self, setter_uid: int) -> None:
        index = self._index[setter_uid]
        if index not in self._free:
            self._free.append(index)

    def index_of(self, inst: Instruction) -> Optional[int]:
        return self._index.get(inst.uid)
