"""Data dependence graph over a superblock.

Edges:

* register **flow** (def -> use), **anti** (use -> def), **output**
  (def -> def), each with the producing op's latency (anti/output carry
  latency 0/1 respectively — in-order VLIW semantics);
* **control**: side-exit branches pin all earlier-in-program-order stores
  (a store may not move above a branch it could escape through; loads MAY
  hoist above branches — that is control speculation, safe in our atomic
  regions because rollback undoes everything), and nothing may move above
  the region's final branch;
* **memory**: the dependences from :mod:`repro.analysis.dependence`. Each
  memory edge is tagged with whether it is breakable by alias speculation
  (MAY alias) or not (MUST alias).

The graph is stored in the one form its consumers read: a tuple of
``(src_position, dst_position, kind, latency, breakable)`` edges in global
insertion order, positions indexing the block in program order and
``kind`` an :class:`EdgeKind` value. That tuple is also the translation
cache's ``ddg`` memo (:meth:`DataDependenceGraph.structural`), so a memo
hit adopts it as is (:meth:`DataDependenceGraph.from_structural`), and
the scheduler (:meth:`~repro.sched.list_scheduler.ListScheduler.prepare`)
indexes it by position. :class:`DdgEdge` objects exist only as on-demand
views (:meth:`~DataDependenceGraph.successors`,
:meth:`~DataDependenceGraph.predecessors`) for tests and tools.
"""

from __future__ import annotations

import enum
from bisect import bisect_right
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Tuple

from repro.analysis.dependence import Dependence
from repro.ir.instruction import Instruction


class EdgeKind(enum.Enum):
    FLOW = "flow"
    ANTI = "anti"
    OUTPUT = "output"
    CONTROL = "control"
    MEMORY = "memory"


#: one edge: (src_position, dst_position, EdgeKind value, latency, breakable)
Edge = Tuple[int, int, str, int, bool]

_FLOW = EdgeKind.FLOW.value
_ANTI = EdgeKind.ANTI.value
_OUTPUT = EdgeKind.OUTPUT.value
_CONTROL = EdgeKind.CONTROL.value
_MEMORY = EdgeKind.MEMORY.value


@dataclass(frozen=True)
class DdgEdge:
    src: Instruction
    dst: Instruction
    kind: EdgeKind
    latency: int = 0
    #: memory edges only: True when the optimizer may speculatively break
    #: this edge (MAY alias) relying on alias hardware.
    speculative_breakable: bool = False

    def __repr__(self) -> str:
        return (
            f"<{self.src!r} -{self.kind.value}/{self.latency}-> {self.dst!r}"
            f"{' (spec)' if self.speculative_breakable else ''}>"
        )


class DataDependenceGraph:
    """DDG in original program order, built once per superblock."""

    def __init__(
        self,
        block,
        machine,
        memory_dependences: Iterable[Dependence] = (),
        allow_store_reorder: bool = True,
        speculation_policy: str = "full",
        _structural: Optional[Tuple[Edge, ...]] = None,
    ) -> None:
        """``speculation_policy`` is ``"full"`` (any MAY-alias pair may be
        reordered) or ``"loads_only"`` (only loads may hoist above stores —
        the ALAT restriction). ``_structural`` adopts a previously built
        graph's edge tuple (see :meth:`structural`) instead of deriving the
        edges — the translation cache's DDG memo."""
        if speculation_policy not in ("full", "loads_only"):
            raise ValueError(f"unknown speculation policy {speculation_policy!r}")
        self.block = block
        self.machine = machine
        if _structural is not None:
            self._edges: Tuple[Edge, ...] = _structural
            return
        instructions = list(block)
        edges: List[Edge] = []
        #: dedup index: (src, dst, kind) -> highest latency kept
        best: Dict[Tuple[int, int, str], int] = {}

        def add(src: int, dst: int, kind: str, latency: int,
                breakable: bool = False) -> None:
            if src == dst:
                return
            # A duplicate (src, dst, kind) edge (e.g. a register used
            # twice) is appended only with a strictly higher latency than
            # every earlier one; the earlier edge stays in the list too.
            key = (src, dst, kind)
            kept = best.get(key)
            if kept is not None and latency <= kept:
                return
            best[key] = latency
            edges.append((src, dst, kind, latency, breakable))

        _register_edges(instructions, machine, add)
        _control_edges(instructions, add)
        _memory_edges(
            instructions,
            memory_dependences,
            allow_store_reorder,
            speculation_policy == "loads_only",
            add,
        )
        self._edges = tuple(edges)

    # ------------------------------------------------------------------
    # Structural memoization (translation cache)
    # ------------------------------------------------------------------
    def structural(self) -> Tuple[Edge, ...]:
        """The stored edge tuple: ``(src_position, dst_position, kind,
        latency, breakable)`` in global insertion order. Identity-free:
        adopting it over any block with identical content yields this
        graph exactly."""
        return self._edges

    @classmethod
    def from_structural(
        cls,
        block,
        machine,
        structural: Tuple[Edge, ...],
        speculation_policy: str = "full",
    ) -> "DataDependenceGraph":
        """Adopt :meth:`structural` output (cache hit) in O(1)."""
        return cls(
            block,
            machine,
            speculation_policy=speculation_policy,
            _structural=structural,
        )

    # ------------------------------------------------------------------
    # Queries (views for tests and tools; the scheduler reads positions)
    # ------------------------------------------------------------------
    def _edge_views(self) -> List[DdgEdge]:
        insts = list(self.block)
        return [
            DdgEdge(insts[src], insts[dst], EdgeKind(kind), latency, breakable)
            for src, dst, kind, latency, breakable in self._edges
        ]

    def successors(self, inst: Instruction) -> List[DdgEdge]:
        return [e for e in self._edge_views() if e.src is inst]

    def predecessors(self, inst: Instruction) -> List[DdgEdge]:
        return [e for e in self._edge_views() if e.dst is inst]

    def instructions(self) -> List[Instruction]:
        return list(self.block)

    def edge_count(self) -> int:
        return len(self._edges)

    def critical_path_length(self) -> int:
        """Longest latency-weighted path (ignoring breakable memory edges
        is the *speculative* height; this returns the conservative one)."""
        height = [0] * len(self.block)
        # Every edge points forward in program order: visiting sources from
        # last to first finalizes each height before an earlier one reads it.
        for src, dst, _kind, latency, _breakable in sorted(
            self._edges, reverse=True
        ):
            height[src] = max(height[src], latency + height[dst])
        return max(height, default=0)


# ----------------------------------------------------------------------
# Construction (positions index the block in program order)
# ----------------------------------------------------------------------
def _register_edges(instructions: List[Instruction], machine, add) -> None:
    last_def: Dict[int, int] = {}
    uses_since_def: Dict[int, List[int]] = {}
    for pos, inst in enumerate(instructions):
        for reg in inst.uses():
            producer = last_def.get(reg)
            if producer is not None:
                add(
                    producer,
                    pos,
                    _FLOW,
                    machine.latency_of(instructions[producer]),
                )
            uses_since_def.setdefault(reg, []).append(pos)
        for reg in inst.defs():
            previous = last_def.get(reg)
            if previous is not None:
                add(previous, pos, _OUTPUT, 1)
            for user in uses_since_def.get(reg, ()):
                add(user, pos, _ANTI, 0)
            last_def[reg] = pos
            uses_since_def[reg] = []


def _control_edges(instructions: List[Instruction], add) -> None:
    branches = [pos for pos, inst in enumerate(instructions) if inst.is_branch]
    if not branches:
        return
    # Each branch pins every *later* store (a store may not become
    # architectural on a path that already left the region) and every
    # later branch (branches stay ordered). Only stores/branches can be
    # edge targets, so scan that ascending subsequence from just past the
    # branch instead of the whole block.
    targets = [
        pos
        for pos, inst in enumerate(instructions)
        if inst.is_store or inst.is_branch
    ]
    for branch in branches:
        for pos in targets[bisect_right(targets, branch):]:
            add(branch, pos, _CONTROL, 0)
    # Nothing moves below the terminating branch.
    final = len(instructions) - 1
    if instructions[final].is_branch:
        for pos in range(final):
            add(pos, final, _CONTROL, 0)


def _memory_edges(
    instructions: List[Instruction],
    memory_dependences: Iterable[Dependence],
    allow_store_reorder: bool,
    loads_only: bool,
    add,
) -> None:
    positions = {inst.uid: pos for pos, inst in enumerate(instructions)}
    for dep in memory_dependences:
        if dep.extended:
            # Extended dependences do not order the schedule; they only
            # produce constraints (the allocator consumes them directly).
            continue
        src, dst = dep.src, dep.dst
        src_pos = positions.get(src.uid)
        dst_pos = positions.get(dst.uid)
        if src_pos is None or dst_pos is None:
            continue
        breakable = not dep.must
        if (
            breakable
            and not allow_store_reorder
            and src.is_store
            and dst.is_store
        ):
            # Store-store reordering disabled (Itanium model / Fig 16).
            breakable = False
        if breakable and loads_only:
            # Only "hoist later load above earlier store" is breakable.
            breakable = dst.is_load
        add(
            src_pos,
            dst_pos,
            _MEMORY,
            1 if src.is_store or dst.is_store else 0,
            breakable,
        )
