"""Speculative load elimination (store->load and load->load forwarding).

For each load Z, find the nearest earlier memory access X that MUST alias Z
(same location, same size) with no MUST-alias store in between. Replace Z
with a register move from X's value register (from a store, a move that
zero-extends it: Z reads the word back unsigned, while the store's
register may hold it as a negative value). MUST aliasing is exactly
equality of :meth:`~repro.analysis.aliasinfo.AliasAnalysis.must_key`, so
the forward scan keeps the latest surviving access per key and finds X in
O(1); a load with no earlier same-key access costs no classification.

The elimination is *speculative* whenever MAY-alias stores sit between X
and Z: each such store S gains an EXTENDED-DEPENDENCE ``S ->dep X`` so
that the constraint machinery forces a runtime check between S and X
(paper Section 4.1, Figure 8).

Safety conditions enforced here (non-speculative, must hold statically):

* X is a load or an 8-byte store: a narrower store's value register
  holds more than Z reads back (its low bytes, zero-extended), while a
  load's register already holds exactly that;
* X's value register is not redefined between X and Z;
* no MUST-alias store to the same location between X and Z (forwarding
  would be *always* wrong — there is nothing to speculate on);
* no intervening MAY-alias store whose profiled alias rate with X exceeds
  the configured threshold (speculating there causes rollback storms);
* a per-block cap on eliminations bounds the mandatory alias register
  pressure the extended dependences create.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.aliasinfo import AliasAnalysis, AliasClass
from repro.analysis.dependence import (
    Dependence,
    ExtendedPair,
    extended_deps_for_load_elimination,
    extended_views,
)
from repro.ir.instruction import Instruction, Opcode, mov
from repro.ir.superblock import Superblock

#: what an 8-byte load of a stored register reads back
_WORD_MASK = (1 << 64) - 1


@dataclass
class LoadEliminationResult:
    eliminated: int = 0
    #: extended dependences ``S ->dep X`` as (S, X) pairs, in creation order
    extended: List[ExtendedPair] = field(default_factory=list)
    #: forwarding sources that must survive later passes
    pinned: List[Instruction] = field(default_factory=list)
    #: (source, eliminated_load) pairs, for reporting
    pairs: List[Tuple[Instruction, Instruction]] = field(default_factory=list)

    @property
    def extended_deps(self) -> List[Dependence]:
        """The extended dependences as :class:`Dependence` views."""
        return extended_views(self.extended)

    def protected_ops(self) -> List[Instruction]:
        """Operations later passes must not eliminate: the forwarding
        sources AND every extended-dependence checker. Removing a checker
        store would silently drop a runtime check the forwarding's
        correctness depends on (it also leaves a dangling constraint)."""
        protected = list(self.pinned)
        protected.extend(src for src, _dst in self.extended)
        return protected


class LoadElimination:
    """One-pass forward scan performing speculative load elimination."""

    def __init__(
        self,
        alias_rate_threshold: float = 0.25,
        max_eliminations: Optional[int] = None,
        require_safe: bool = False,
        sources: str = "any",
    ) -> None:
        """``require_safe`` restricts to eliminations needing no runtime
        checks (for machines without alias hardware); ``sources`` is
        ``"any"`` or ``"loads"`` (ALAT-style hardware can only protect
        load-sourced forwarding)."""
        if sources not in ("any", "loads"):
            raise ValueError(f"unknown sources policy {sources!r}")
        self.alias_rate_threshold = alias_rate_threshold
        self.max_eliminations = max_eliminations
        self.require_safe = require_safe
        self.sources = sources

    def run(
        self, block: Superblock, analysis: AliasAnalysis
    ) -> LoadEliminationResult:
        result = LoadEliminationResult()
        instructions = block.instructions
        new_instructions: List[Instruction] = []
        mem_ops: List[Instruction] = []  # surviving + original mem ops so far
        #: must key -> index in mem_ops of the latest access with that key
        latest: Dict[Tuple, int] = {}
        must_key = analysis.must_key

        for inst in instructions:
            replaced: Optional[Instruction] = None
            if (
                inst.is_load
                and self._under_cap(result)
                and not analysis.speculation_banned(inst)
            ):
                candidate = self._find_source(
                    latest.get(must_key(inst)), mem_ops, analysis,
                    new_instructions,
                )
                if candidate is not None:
                    source, between = candidate
                    ext = extended_deps_for_load_elimination(
                        source, inst, between, analysis
                    )
                    usable = not (self.require_safe and ext)
                    if usable and self.sources == "loads" and not source.is_load:
                        usable = False
                    if usable:
                        # a load reads a stored word back unsigned, and
                        # the store's value register may hold it signed
                        replaced = (
                            mov(inst.dest, source.dest)
                            if source.is_load
                            else mov(inst.dest, source.srcs[0], _WORD_MASK)
                        )
                        replaced.speculative = True
                        replaced.guest_pc = inst.guest_pc
                        result.extended.extend(ext)
                        result.pinned.append(source)
                        result.pairs.append((source, inst))
                        result.eliminated += 1
            if replaced is not None:
                new_instructions.append(replaced)
            else:
                new_instructions.append(inst)
                if inst.is_mem:
                    latest[must_key(inst)] = len(mem_ops)
                    mem_ops.append(inst)

        block.instructions = new_instructions
        return result

    # ------------------------------------------------------------------
    def _under_cap(self, result: LoadEliminationResult) -> bool:
        if self.max_eliminations is None:
            return True
        return result.eliminated < self.max_eliminations

    def _find_source(
        self,
        index: Optional[int],
        mem_ops: List[Instruction],
        analysis: AliasAnalysis,
        emitted: List[Instruction],
    ) -> Optional[Tuple[Instruction, List[Instruction]]]:
        """The forwarding source at ``mem_ops[index]`` — the nearest
        earlier access that MUST alias the load, None when there is none —
        and the mem ops in between, when it is usable."""
        if index is None:
            return None
        source = mem_ops[index]
        if source.is_store and source.size != 8:
            return None  # the load reads back only the stored low bytes
        if analysis.speculation_banned(source):
            return None  # runtime banned this op from speculation
        if not self._value_register_live(source, emitted):
            return None
        between = mem_ops[index + 1:]
        if not self._speculation_profitable(source, between, analysis):
            return None
        return (source, between)

    def _value_register_live(
        self, source: Instruction, emitted: List[Instruction]
    ) -> bool:
        """True iff source's value register reaches the current point."""
        value_reg = source.dest if source.is_load else source.srcs[0]
        if value_reg is None:
            return False
        seen_source = False
        for inst in emitted:
            if inst is source:
                seen_source = True
                continue
            if seen_source and value_reg in inst.defs():
                return False
        return seen_source

    def _speculation_profitable(
        self,
        source: Instruction,
        between: List[Instruction],
        analysis: AliasAnalysis,
    ) -> bool:
        """Refuse when an intervening store aliases the source too often."""
        for inst in between:
            if not inst.is_store:
                continue
            if analysis.classify(inst, source) is AliasClass.NO:
                continue
            if analysis.alias_rate(inst, source) > self.alias_rate_threshold:
                return False
        return True
