"""Static and speculative alias classification.

A dynamic optimizer has no source-level type or array information, so its
alias analysis is deliberately simple (paper Section 1). We implement the
two techniques such systems actually use:

1. **Base+displacement disambiguation**: two accesses through the *same*
   base register (with no intervening redefinition of that register) are
   MUST aliases when their ``[disp, disp+size)`` ranges coincide exactly,
   NO aliases when the ranges are disjoint, and MAY aliases otherwise.
2. **Symbolic region tracking**: a forward pass over the superblock tracks,
   per register, whether it holds ``region_base + known_offset`` for one of
   the guest program's data regions (seeded by ``MOVI`` of region addresses
   and updated through ``ADD/SUB`` with immediates and ``MOV``). Accesses
   resolved to *different* regions are NO aliases; same region with known
   offsets resolves exactly.

Anything the analysis cannot prove is MAY — exactly the pairs the optimizer
speculates on and the alias hardware guards.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from repro.ir.instruction import Instruction, Opcode


class AliasClass(enum.Enum):
    """Result of a pairwise alias query."""

    NO = "no"
    MAY = "may"
    MUST = "must"


@dataclass(frozen=True)
class SymbolicAddress:
    """What the analysis knows about one access's address.

    ``region`` is the guest data-region name (``None`` = unknown region);
    ``offset`` is the byte offset of the access within that region
    (``None`` = unknown). ``base`` / ``disp`` echo the register-level view
    used for same-base disambiguation; ``base_version`` distinguishes
    redefinitions of the base register inside the block.
    """

    region: Optional[str]
    offset: Optional[int]
    base: int
    disp: int
    size: int
    base_version: int

    @property
    def resolved(self) -> bool:
        return self.region is not None and self.offset is not None


def classify_pair(a: SymbolicAddress, b: SymbolicAddress) -> AliasClass:
    """Classify two accesses per the rules in the module docstring."""
    # Fully resolved: exact interval reasoning.
    if a.resolved and b.resolved:
        if a.region != b.region:
            return AliasClass.NO
        a_lo, a_hi = a.offset, a.offset + a.size - 1
        b_lo, b_hi = b.offset, b.offset + b.size - 1
        if a_hi < b_lo or b_hi < a_lo:
            return AliasClass.NO
        if a_lo == b_lo and a.size == b.size:
            return AliasClass.MUST
        return AliasClass.MAY
    # Distinct known regions never alias even if offsets are unknown.
    if a.region is not None and b.region is not None and a.region != b.region:
        return AliasClass.NO
    # Same base register, same version: pure displacement reasoning.
    if a.base == b.base and a.base_version == b.base_version:
        a_lo, a_hi = a.disp, a.disp + a.size - 1
        b_lo, b_hi = b.disp, b.disp + b.size - 1
        if a_hi < b_lo or b_hi < a_lo:
            return AliasClass.NO
        if a_lo == b_lo and a.size == b.size:
            return AliasClass.MUST
        return AliasClass.MAY
    return AliasClass.MAY


class AliasAnalysis:
    """Per-superblock alias facts for every memory operation.

    Parameters
    ----------
    block:
        The superblock in *original program order*.
    region_map:
        Guest data layout: ``{region_name: (start_address, size)}``. Used to
        resolve ``MOVI`` immediates to region bases.
    alias_hints:
        Optional profile hints: ``{(mem_index_a, mem_index_b): rate}`` with
        the observed runtime alias rate of a MAY pair. The speculative
        optimizer refuses to speculate on pairs whose rate exceeds its
        threshold (re-optimization would otherwise thrash).
    """

    def __init__(
        self,
        block,
        region_map: Optional[Mapping[str, Tuple[int, int]]] = None,
        alias_hints: Optional[Mapping[Tuple[int, int], float]] = None,
        initial_regions: Optional[Mapping[int, str]] = None,
        no_speculate: Optional[set] = None,
    ) -> None:
        """``initial_regions`` maps registers live at region entry to the
        data region they point into (the dynamic optimizer learns this from
        runtime register values at translation time). ``no_speculate`` is a
        set of mem_indexes the runtime has banned from speculation after
        repeated alias faults."""
        self._region_map = dict(region_map or {})
        self._alias_hints = dict(alias_hints or {})
        self._initial_regions = dict(initial_regions or {})
        self._no_speculate = set(no_speculate or ())
        self._addresses: Dict[int, SymbolicAddress] = {}
        self._classify_cache: Dict[Tuple[int, int], AliasClass] = {}
        self._run(block)

    # ------------------------------------------------------------------
    # Forward symbolic pass
    # ------------------------------------------------------------------
    def _run(self, block) -> None:
        # Register state: reg -> (region, offset) with offset possibly
        # None (region known, position within it unknown), or None for a
        # fully unknown register.
        state: Dict[int, Optional[Tuple[str, Optional[int]]]] = {
            reg: (region, None)
            for reg, region in self._initial_regions.items()
        }
        versions: Dict[int, int] = {}

        def bump(reg: int) -> None:
            versions[reg] = versions.get(reg, 0) + 1

        def resolve_immediate(value: int) -> Optional[Tuple[str, int]]:
            for name, (start, size) in self._region_map.items():
                if start <= value < start + size:
                    return (name, value - start)
            return None

        for inst in block:
            if inst.is_mem:
                pointer = state.get(inst.base)
                if pointer is not None:
                    region, reg_offset = pointer
                    sym = SymbolicAddress(
                        region=region,
                        offset=(
                            reg_offset + inst.disp
                            if reg_offset is not None
                            else None
                        ),
                        base=inst.base,
                        disp=inst.disp,
                        size=inst.size,
                        base_version=versions.get(inst.base, 0),
                    )
                else:
                    sym = SymbolicAddress(
                        region=None,
                        offset=None,
                        base=inst.base,
                        disp=inst.disp,
                        size=inst.size,
                        base_version=versions.get(inst.base, 0),
                    )
                self._addresses[inst.uid] = sym

            # Transfer function for register state.
            if inst.opcode is Opcode.MOVI and inst.dest is not None:
                state[inst.dest] = resolve_immediate(inst.imm or 0)
                bump(inst.dest)
            elif inst.opcode is Opcode.MOV and inst.dest is not None:
                state[inst.dest] = state.get(inst.srcs[0])
                bump(inst.dest)
            elif (
                inst.opcode in (Opcode.ADD, Opcode.SUB)
                and inst.dest is not None
                and inst.imm is not None
                and len(inst.srcs) == 1
            ):
                src_val = state.get(inst.srcs[0])
                if src_val is not None:
                    region, offset = src_val
                    delta = inst.imm if inst.opcode is Opcode.ADD else -inst.imm
                    new_offset = offset + delta if offset is not None else None
                    state[inst.dest] = (region, new_offset)
                else:
                    state[inst.dest] = None
                bump(inst.dest)
            elif inst.dest is not None:
                state[inst.dest] = None
                bump(inst.dest)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def address_of(self, inst: Instruction) -> SymbolicAddress:
        try:
            return self._addresses[inst.uid]
        except KeyError:
            raise KeyError(f"{inst!r} is not a memory operation of this block")

    def must_key(self, inst: Instruction) -> Tuple:
        """A key two memory operations share exactly when :meth:`classify`
        says MUST.

        Resolved accesses key on ``(region, offset, size)``, all others on
        ``(base, base_version, disp, size)``; the lengths differ, so the
        two forms never collide. That is exact because two accesses
        through the same base register and version share one pointer
        state, so they are both resolved or both not: a MUST pair never
        mixes the forms.
        """
        sym = self.address_of(inst)
        if sym.resolved:
            return (sym.region, sym.offset, sym.size)
        return (sym.base, sym.base_version, sym.disp, sym.size)

    def classify(self, a: Instruction, b: Instruction) -> AliasClass:
        """Alias class of two memory operations of the analyzed block."""
        key = (min(a.uid, b.uid), max(a.uid, b.uid))
        cached = self._classify_cache.get(key)
        if cached is None:
            cached = classify_pair(self.address_of(a), self.address_of(b))
            self._classify_cache[key] = cached
        return cached

    def speculation_banned(self, inst: Instruction) -> bool:
        """Has the runtime banned this operation from speculation?"""
        return inst.mem_index is not None and inst.mem_index in self._no_speculate

    def alias_rate(self, a: Instruction, b: Instruction) -> float:
        """Profiled runtime alias rate of a MAY pair (0.0 when unprofiled)."""
        if a.mem_index is None or b.mem_index is None:
            return 0.0
        lo = min(a.mem_index, b.mem_index)
        hi = max(a.mem_index, b.mem_index)
        return self._alias_hints.get((lo, hi), 0.0)

    def must_alias_pairs(self, block) -> List[Tuple[Instruction, Instruction]]:
        """All (earlier, later) MUST-alias pairs in program order —
        the candidate set for speculative load/store elimination."""
        ops = block.memory_ops_in_program_order()
        pairs = []
        for i, earlier in enumerate(ops):
            for later in ops[i + 1 :]:
                if self.classify(earlier, later) is AliasClass.MUST:
                    pairs.append((earlier, later))
        return pairs
