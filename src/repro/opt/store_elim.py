"""Speculative store elimination (dead-store removal across the region).

A store X whose location is overwritten by a later MUST-alias store Z of
the same size is removed. The elimination is speculative when MAY-alias
loads sit between X and Z: had X executed, such a load could have observed
X's value, so every intervening load Y that may alias Z gains an
EXTENDED-DEPENDENCE ``Z ->dep Y`` forcing a runtime check between Z and Y
(paper Section 4.1, Figure 9). Intervening *stores* need nothing — their
aliases cannot affect the elimination's correctness (the paper calls this
out explicitly).

Static safety conditions:

* no MUST-alias access (load or store) between X and Z — a must-alias load
  *always* observes X, so elimination would always be wrong;
* X and Z must write the same size at the same location (MUST alias);
* forwarding sources pinned by load elimination are not eliminated;
* intervening MAY-alias loads with high profiled alias rate veto the
  elimination;
* side exits between X and Z veto it (the region could exit with the
  overwrite never executed, making X's removal architecturally visible).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Set, Tuple

from repro.analysis.aliasinfo import AliasAnalysis, AliasClass
from repro.analysis.dependence import (
    Dependence,
    ExtendedPair,
    extended_deps_for_store_elimination,
    extended_views,
)
from repro.ir.instruction import Instruction
from repro.ir.superblock import Superblock


@dataclass
class StoreEliminationResult:
    eliminated: int = 0
    #: extended dependences ``Z ->dep Y`` as (Z, Y) pairs, in creation order
    extended: List[ExtendedPair] = field(default_factory=list)
    #: (eliminated_store, overwriting_store) pairs
    pairs: List[Tuple[Instruction, Instruction]] = field(default_factory=list)

    @property
    def extended_deps(self) -> List[Dependence]:
        """The extended dependences as :class:`Dependence` views."""
        return extended_views(self.extended)


class StoreElimination:
    """Backward scan removing overwritten stores."""

    def __init__(
        self,
        alias_rate_threshold: float = 0.25,
        max_eliminations: Optional[int] = None,
        require_safe: bool = False,
    ) -> None:
        """``require_safe`` restricts to eliminations needing no runtime
        checks (for machines without alias hardware)."""
        self.alias_rate_threshold = alias_rate_threshold
        self.max_eliminations = max_eliminations
        self.require_safe = require_safe

    def run(
        self,
        block: Superblock,
        analysis: AliasAnalysis,
        pinned: Optional[List[Instruction]] = None,
    ) -> StoreEliminationResult:
        result = StoreEliminationResult()
        pinned_uids: Set[int] = {inst.uid for inst in (pinned or [])}
        instructions = block.instructions
        to_remove: Set[int] = set()
        # Overwriters that acquired check obligations (extended deps) must
        # themselves survive: eliminating them would drop the runtime check
        # an earlier elimination's correctness depends on.
        obligated: Set[int] = set()

        for i, x in enumerate(instructions):
            if not x.is_store or x.uid in pinned_uids or x.uid in obligated:
                continue
            if analysis.speculation_banned(x):
                continue
            if self.max_eliminations is not None and (
                result.eliminated >= self.max_eliminations
            ):
                break
            overwrite = self._find_overwriting_store(
                x, instructions[i + 1 :], analysis, to_remove
            )
            if overwrite is None:
                continue
            z, between_mem = overwrite
            ext = extended_deps_for_store_elimination(z, x, between_mem, analysis)
            if self.require_safe and ext:
                continue
            result.extended.extend(ext)
            result.pairs.append((x, z))
            result.eliminated += 1
            to_remove.add(x.uid)
            if ext:
                obligated.add(z.uid)

        if to_remove:
            block.instructions = [
                inst for inst in instructions if inst.uid not in to_remove
            ]
        return result

    # ------------------------------------------------------------------
    def _find_overwriting_store(
        self,
        x: Instruction,
        rest: List[Instruction],
        analysis: AliasAnalysis,
        already_removed: Set[int],
    ) -> Optional[Tuple[Instruction, List[Instruction]]]:
        """The overwriting store Z plus the mem ops strictly in between."""
        between: List[Instruction] = []
        for inst in rest:
            if inst.uid in already_removed:
                continue
            if inst.is_branch:
                return None  # side exit: X must remain architectural
            if not inst.is_mem:
                continue
            klass = analysis.classify(x, inst)
            # MUST implies equal sizes (classify_pair)
            if inst.is_store and klass is AliasClass.MUST:
                if analysis.speculation_banned(inst):
                    return None
                if self._speculation_profitable(inst, between, analysis):
                    return (inst, between)
                return None
            if klass is AliasClass.MUST:
                return None  # must-alias access observes X: cannot remove
            between.append(inst)
        return None

    def _speculation_profitable(
        self,
        z: Instruction,
        between: List[Instruction],
        analysis: AliasAnalysis,
    ) -> bool:
        for inst in between:
            if not inst.is_load:
                continue
            if analysis.classify(z, inst) is AliasClass.NO:
                continue
            if analysis.alias_rate(z, inst) > self.alias_rate_threshold:
                return False
        return True
