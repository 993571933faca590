"""Guest program images.

A :class:`GuestProgram` is a code image (pc -> instruction) plus a data
layout (named regions in guest memory) and optional profile hints. The pc
space is dense: instruction at pc ``i`` falls through to ``i + 1`` unless
it branches. ``EXIT`` terminates execution.

Workload generators (:mod:`repro.workloads`) build these images; the
interpreter executes them; the region former extracts superblocks from
them.

A program is immutable once built: its fields cannot be reassigned, its
instructions are a tuple and its maps are read-only views, so one build
can be shared by every run in a process (``make_benchmark`` memoizes
them). :class:`~repro.ir.instruction.Instruction` itself stays mutable;
nothing may write a program's instructions after the build (region
formation copies them before the optimizer annotates anything). The
program validates itself and computes its block heads at construction.
"""

from __future__ import annotations

import hashlib
import pickle
from dataclasses import dataclass, field
from operator import attrgetter
from types import MappingProxyType
from typing import FrozenSet, Mapping, Optional, Set, Tuple

from repro.ir.instruction import Instruction, Opcode

#: every instruction field the interpreter, the profiler and region
#: formation read (the rest are optimizer annotations)
_FRONT_END_FIELDS = attrgetter(
    "opcode", "dest", "srcs", "imm", "base", "disp", "size", "target"
)


@dataclass(frozen=True)
class GuestProgram:
    """Code image + data layout of one synthetic guest binary."""

    name: str
    instructions: Tuple[Instruction, ...] = ()
    #: region name -> (start address, byte size)
    region_map: Mapping[str, Tuple[int, int]] = field(default_factory=dict)
    entry_pc: int = 0
    #: profile hints: (mem_index_a, mem_index_b) -> runtime alias rate.
    #: Keyed per superblock entry pc by the caller when installed; the
    #: program-level hints here are global pairs used by generators.
    alias_hints: Mapping[Tuple[int, int], float] = field(default_factory=dict)
    #: initial guest register values (register -> value)
    initial_registers: Mapping[int, int] = field(default_factory=dict)
    #: loop-invariant pointer registers: register -> region name. The
    #: dynamic optimizer learns these from runtime register values at
    #: translation time; generators declare them directly.
    register_regions: Mapping[int, str] = field(default_factory=dict)

    def __post_init__(self) -> None:
        # Fields are frozen: the conversions go through object.__setattr__.
        set_ = object.__setattr__
        set_(self, "instructions", tuple(self.instructions))
        for name in (
            "region_map", "alias_hints", "initial_registers",
            "register_regions",
        ):
            set_(self, name, MappingProxyType(dict(getattr(self, name))))
        for pc, inst in enumerate(self.instructions):
            inst.guest_pc = pc
        self.validate()
        set_(self, "_heads", self._compute_block_heads())
        set_(self, "_front_end_digest", None)

    def __len__(self) -> int:
        return len(self.instructions)

    def at(self, pc: int) -> Instruction:
        if not 0 <= pc < len(self.instructions):
            raise IndexError(f"guest pc {pc} out of range")
        return self.instructions[pc]

    # ------------------------------------------------------------------
    # Static structure
    # ------------------------------------------------------------------
    def branch_targets(self) -> Set[int]:
        targets = set()
        for inst in self.instructions:
            if inst.is_branch and inst.opcode is not Opcode.EXIT:
                if inst.target is not None:
                    targets.add(inst.target)
        return targets

    def block_heads(self) -> FrozenSet[int]:
        """Pcs that start a basic block (computed once, at construction)."""
        return self._heads

    def _compute_block_heads(self) -> FrozenSet[int]:
        heads = {self.entry_pc}
        heads |= self.branch_targets()
        for pc, inst in enumerate(self.instructions):
            if inst.is_branch and pc + 1 < len(self.instructions):
                heads.add(pc + 1)
        return frozenset(heads)

    def front_end_digest(self) -> bytes:
        """SHA-256 over everything the front end reads of this program:
        each instruction's front-end fields, the entry pc and the data
        layout. Computed on first use and kept, since the program never
        changes; the DBT's warm-up memo folds it into every run's key."""
        digest: Optional[bytes] = self._front_end_digest
        if digest is None:
            parts = (
                list(map(_FRONT_END_FIELDS, self.instructions)),
                self.entry_pc,
                tuple(sorted(self.region_map.items())),
            )
            blob = pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).digest()
            object.__setattr__(self, "_front_end_digest", digest)
        return digest

    def validate(self) -> None:
        """Check branch targets and memory layout sanity."""
        n = len(self.instructions)
        for pc, inst in enumerate(self.instructions):
            if inst.is_branch and inst.opcode is not Opcode.EXIT:
                if inst.target is None or not 0 <= inst.target < n:
                    raise ValueError(
                        f"pc {pc}: branch target {inst.target} out of range"
                    )
        spans = sorted(self.region_map.values())
        for (a_start, a_size), (b_start, b_size) in zip(spans, spans[1:]):
            if a_start + a_size > b_start:
                raise ValueError("overlapping data regions")

    def memory_size(self) -> int:
        """Smallest memory size containing all regions."""
        end = 0
        for start, size in self.region_map.values():
            end = max(end, start + size)
        return end

    def __repr__(self) -> str:
        return (
            f"<GuestProgram {self.name}: {len(self.instructions)} insts, "
            f"{len(self.region_map)} regions>"
        )
