"""The integrated SMARQ allocator (paper Figure 13).

The allocator plugs into :class:`repro.sched.list_scheduler.ListScheduler`
as its :class:`AllocatorHook` and performs alias register allocation *during*
scheduling, in a single pass:

* When the scheduler places a memory operation ``Y``, every memory
  dependence ``S ->dep Y`` is examined (line 8 of Figure 13):

  - ``S`` **not yet scheduled** — the pair is being reordered (or ``S`` is
    the mandatory checker from an extended dependence). Set ``C(S)`` and
    ``P(Y)``, add the check-constraint ``S ->check Y``, and lower ``T(S)``
    to maintain the partial-order invariance (lines 9-12).
  - ``S`` **already scheduled** and still unallocated — add the
    anti-constraint ``S ->anti Y`` when ``P(S)``, ``C(Y)``, and no
    ``Y ->check S`` exists (lines 13-15). If this would close a cycle, an
    ``AMOV`` is inserted just before ``Y`` to relocate ``S``'s access range
    (lines 33-54): unscheduled checkers of ``S`` are rewired to the AMOV.

* Allocation itself is deferred through a ready queue: an operation's
  register *order* is assigned only once every operation that must
  receive an earlier-or-equal order (its constraint-graph predecessors)
  has been allocated (lines 56-75; operations with unallocated
  predecessors simply wait as pending until the allocation that releases
  their last constraint edge pushes them onto the queue). Because of the deferral,
  a register's order is assigned exactly when its last user is scheduled —
  so immediately afterwards the queue BASE can rotate past it, which is
  what keeps the working set small (Figure 17).

* Overflow prevention (lines 21-31): before permitting new speculation the
  allocator bounds the worst-case future offset; if it would reach the
  physical register count it refuses, and the scheduler holds that
  candidate back (the question is asked per candidate) until enough
  registers drain.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Dict, List, Optional, Set, Tuple, Union

from repro.analysis.cycles import IncrementalOrder, OrderCycleError
from repro.analysis.dependence import (
    DependenceSet,
    DependenceSources,
    dependence_sources,
)
from repro.hw.exceptions import AliasRegisterOverflow
from repro.ir.instruction import Instruction, amov, rotate
from repro.sched.list_scheduler import AllocatorHook
from repro.sched.machine import MachineModel


@dataclass
class AllocationStats:
    """Per-superblock allocation statistics (Figures 17 and 19)."""

    memory_ops: int = 0
    p_bit_ops: int = 0
    c_bit_ops: int = 0
    check_constraints: int = 0
    anti_constraints: int = 0
    amovs_inserted: int = 0
    amovs_cleanup_only: int = 0
    rotations_inserted: int = 0
    registers_allocated: int = 0
    #: max offset + 1 over all operations == minimum HW registers needed
    working_set: int = 0
    speculation_throttled: int = 0
    overflow_aborts: int = 0


@dataclass(frozen=True)
class AllocationSummary:
    """What a translation keeps of its allocation once scheduling is done.

    The runtime reads only the statistics and the final check pairs (the
    report's working-set lower bound, the ALAT's required targets), so a
    translation carries this instead of the allocator and its dependence
    set.
    """

    stats: AllocationStats
    #: final ``(checker, target)`` pairs, AMOV rewiring applied; None for
    #: an allocator that tracks no pairs (plain order-based allocation)
    check_pairs: Optional[Tuple[Tuple[Instruction, Instruction], ...]]

    @classmethod
    def of(cls, allocator) -> "AllocationSummary":
        """Summarize ``allocator`` (any hook with ``stats``) after its
        schedule has finished."""
        pairs = getattr(allocator, "_check_pairs", None)
        if pairs is not None:
            inst = allocator._inst
            pairs = tuple((inst[c], inst[t]) for c, t in sorted(pairs))
        return cls(stats=allocator.stats, check_pairs=pairs)


class SmarqAllocator(AllocatorHook):
    """Scheduler hook performing integrated alias register allocation."""

    def __init__(
        self,
        machine: MachineModel,
        dependences: Union[DependenceSet, DependenceSources],
        program_order: List[Instruction],
        overflow_margin: int = 2,
        enable_anti: bool = True,
        enable_amov: bool = True,
        enable_throttle: bool = True,
    ) -> None:
        """``dependences`` is a :class:`DependenceSet` or the optimizer's
        :class:`DependenceSources` table; only the sources of each
        operation's incoming dependences are read. The ``enable_*``
        switches exist for the ablation studies in ``benchmarks/``:
        disabling anti-constraints admits false-positive checks; disabling
        AMOV drops cycle-closing anti-constraints instead of relocating
        the range; disabling throttling lets allocation run into hard
        overflow on small register files."""
        self.machine = machine
        self._sources = dependence_sources(dependences)
        self.stats = AllocationStats()
        self._overflow_margin = overflow_margin
        self.enable_anti = enable_anti
        self.enable_amov = enable_amov
        self.enable_throttle = enable_throttle

        self._torder = IncrementalOrder()
        self._torder.register_program_order(program_order)
        self.stats.memory_ops = sum(1 for i in program_order if i.is_mem)

        # Constraint adjacency for allocation ordering: edge u -> v means
        # order(u) <= order(v), so u must be allocated before v.
        self._out: Dict[int, Set[int]] = {}
        self._in: Dict[int, Set[int]] = {}
        self._inst: Dict[int, Instruction] = {i.uid: i for i in program_order}
        #: (checker_uid, target_uid) pairs — for the "no Y ->check X" test
        self._check_pairs: Set[Tuple[int, int]] = set()
        #: (protected_uid, checker_uid) anti-constraint pairs
        self._anti_pairs: Set[Tuple[int, int]] = set()
        #: target_uid -> unscheduled checker instructions (AMOV rewiring)
        self._checkers_of: Dict[int, List[Instruction]] = {}

        self._scheduled: Set[int] = set()
        self._allocated: Set[int] = set()
        self._next_order = 0
        self._base: Dict[int, int] = {}
        self._order: Dict[int, int] = {}
        self._ready: deque = deque()
        self._pending: Set[int] = set()  # scheduled, awaiting allocation
        # Maintained aggregates so the scheduler's per-candidate
        # speculation_allowed query is O(log n) instead of rescanning
        # every pending operation and every dependence:
        #: lazy-deletion min-heap of (base, uid) over pending operations
        self._base_heap: List[Tuple[int, int]] = []
        #: pending operations carrying a P bit (P bits are stable once an
        #: operation is enqueued — see _enqueue_for_allocation)
        self._pending_p = 0
        #: not-yet-scheduled endpoints of extended dependences (their
        #: checks are mandatory future register pressure)
        self._ext_unsched: Set[int] = set(self._sources.extended_ends)
        #: AMOV fixups: (amov_inst, moved_source_inst)
        self._amov_fixups: List[Tuple[Instruction, Instruction]] = []
        self._linear: Optional[List[Instruction]] = None

    # ------------------------------------------------------------------
    # Public results
    # ------------------------------------------------------------------
    @property
    def next_order(self) -> int:
        return self._next_order

    def order_of(self, inst: Instruction) -> Optional[int]:
        return self._order.get(inst.uid)

    def base_of(self, inst: Instruction) -> Optional[int]:
        return self._base.get(inst.uid)

    # ------------------------------------------------------------------
    # AllocatorHook: speculation throttling (Figure 13 lines 21-31)
    # ------------------------------------------------------------------
    def speculation_allowed(self, inst: Instruction) -> bool:
        if not self.enable_throttle:
            return True
        # min base over pending ops, via the lazy-deletion heap (entries
        # whose op got allocated are discarded on sight).
        heap = self._base_heap
        while heap and heap[0][1] not in self._pending:
            heappop(heap)
        min_base = self._next_order
        if heap and heap[0][0] < min_base:
            min_base = heap[0][0]
        # Future mandatory register pressure: extended dependences force
        # checks even without reordering; their unscheduled endpoints are
        # maintained incrementally in on_scheduled.
        max_order = (
            self._next_order + self._pending_p + len(self._ext_unsched) + 1
        )  # +1 for inst
        max_offset = max_order - min_base
        if max_offset + self._overflow_margin >= self.machine.alias_registers:
            self.stats.speculation_throttled += 1
            return False
        return True

    # ------------------------------------------------------------------
    # AllocatorHook: constraint building + allocation per scheduled op
    # ------------------------------------------------------------------
    def on_scheduled(
        self, inst: Instruction, cycle: int
    ) -> Tuple[List[Instruction], List[Instruction]]:
        self._scheduled.add(inst.uid)
        self._ext_unsched.discard(inst.uid)
        if not inst.is_mem:
            return ([], [])
        before: List[Instruction] = []

        for s in self._sources.sources_of(inst):  # S ->dep Y, Y == inst
            if s.uid not in self._scheduled:
                self._add_check(checker=s, target=inst)
            else:
                maybe_amov = self._maybe_add_anti(protected=s, checker=inst)
                if maybe_amov is not None:
                    before.append(maybe_amov)

        after: List[Instruction] = []
        if inst.p_bit or inst.c_bit:
            rotation = self._allocate_reg(inst)
            if rotation is not None:
                after.append(rotation)
        return (before, after)

    def on_finish(self, linear: List[Instruction]) -> None:
        """Drain anything left and patch AMOV operands."""
        self._linear = linear
        leftovers = [uid for uid in self._pending if uid not in self._allocated]
        if leftovers:
            # Should not happen: every pending op's predecessors are
            # scheduled ops, and scheduling completes. Guard anyway.
            raise RuntimeError(
                f"allocation incomplete for {len(leftovers)} operations"
            )
        for amov_inst, source in self._amov_fixups:
            base = self._base[amov_inst.uid]
            src_order = self._order[source.uid]
            if amov_inst.p_bit:
                dst_order = self._order[amov_inst.uid]
            else:
                dst_order = src_order  # cleanup-only
            src_offset = src_order - base
            dst_offset = dst_order - base
            if src_offset < 0 or src_offset >= self.machine.alias_registers:
                raise AliasRegisterOverflow(
                    f"AMOV source offset {src_offset} out of range"
                )
            amov_inst.amov_src = src_offset
            amov_inst.amov_dst = dst_offset
            amov_inst.ar_offset = dst_offset
            if not amov_inst.p_bit:
                self.stats.amovs_cleanup_only += 1
        self.stats.registers_allocated = self._next_order

    # ------------------------------------------------------------------
    # Constraint insertion
    # ------------------------------------------------------------------
    def _edge(self, u: Instruction, v: Instruction) -> None:
        self._out.setdefault(u.uid, set())
        self._in.setdefault(v.uid, set())
        if v.uid in self._out[u.uid]:
            return
        self._out[u.uid].add(v.uid)
        self._in[v.uid].add(u.uid)

    def _add_check(self, checker: Instruction, target: Instruction) -> None:
        """S ->check Y: S (unscheduled) must check Y (just scheduled)."""
        if not checker.c_bit:
            checker.c_bit = True
            self.stats.c_bit_ops += 1
        if not target.p_bit:
            target.p_bit = True
            self.stats.p_bit_ops += 1
        if (checker.uid, target.uid) in self._check_pairs:
            return
        self._check_pairs.add((checker.uid, target.uid))
        self._edge(checker, target)
        self._checkers_of.setdefault(target.uid, []).append(checker)
        self._torder.add_check_edge(checker, target)
        self.stats.check_constraints += 1

    def _maybe_add_anti(
        self, protected: Instruction, checker: Instruction
    ) -> Optional[Instruction]:
        """S ->anti Y (lines 13-15), with AMOV cycle breaking.

        Returns an AMOV instruction to splice before ``checker`` when a
        cycle had to be broken, else None.
        """
        s, y = protected, checker
        if not self.enable_anti:
            return None  # ablation: accept false-positive hazards
        if s.uid in self._allocated:
            # order(S) is already fixed below next_order; any future order
            # for Y's checks is >= next_order, so the anti-constraint is
            # trivially satisfied.
            return None
        if not (s.p_bit and y.c_bit):
            return None
        if (y.uid, s.uid) in self._check_pairs:
            return None
        try:
            self._torder.add_anti_edge(s, y)
        except OrderCycleError:
            if not self.enable_amov:
                # ablation: drop the anti-constraint instead of breaking
                # the cycle — the check stays correct, but Y may falsely
                # check S at runtime.
                return None
            return self._break_cycle_with_amov(s, y)
        self._edge(s, y)
        self._anti_pairs.add((s.uid, y.uid))
        self.stats.anti_constraints += 1
        return None

    def _break_cycle_with_amov(
        self, s: Instruction, y: Instruction
    ) -> Instruction:
        """Insert AMOV X' just before Y to relocate S's access range."""
        x_prime = amov(0, 0)  # operands patched in on_finish
        self._inst[x_prime.uid] = x_prime
        self._base[x_prime.uid] = self._next_order
        self._torder.set_t(x_prime, self._torder.t(y) - 1)
        self.stats.amovs_inserted += 1
        self._amov_fixups.append((x_prime, s))

        # Rewire unscheduled checkers Z ->check S to Z ->check X'.
        rewired = False
        remaining: List[Instruction] = []
        for z in self._checkers_of.get(s.uid, []):
            if z.uid in self._scheduled:
                remaining.append(z)
                continue
            rewired = True
            self._out[z.uid].discard(s.uid)
            self._in[s.uid].discard(z.uid)
            self._check_pairs.discard((z.uid, s.uid))
            self._check_pairs.add((z.uid, x_prime.uid))
            self._edge(z, x_prime)
            self._checkers_of.setdefault(x_prime.uid, []).append(z)
            self._torder.add_check_edge(z, x_prime)
        self._checkers_of[s.uid] = remaining

        if rewired:
            x_prime.p_bit = True
            # X' must stay earlier than Y in the register queue.
            self._torder.add_anti_edge(x_prime, y)
            self._edge(x_prime, y)
            self._anti_pairs.add((x_prime.uid, y.uid))
            self.stats.anti_constraints += 1
            # X' needs a register: enqueue for allocation.
            self._enqueue_for_allocation(x_prime)
        # S may have become ready (its unscheduled checkers left).
        if s.uid in self._pending and s.uid not in self._allocated:
            if not self._has_unallocated_preds(s):
                self._promote_to_ready(s)
                self._drain_ready()
        return x_prime

    # ------------------------------------------------------------------
    # Allocation with ready/delay queues (lines 56-75)
    # ------------------------------------------------------------------
    def _has_unallocated_preds(self, inst: Instruction) -> bool:
        # Constraint edges are removed the moment their source is
        # allocated (and sources are never allocated when an edge is
        # added), so every remaining in-edge is an unallocated pred.
        return bool(self._in.get(inst.uid))

    def _enqueue_for_allocation(self, inst: Instruction) -> None:
        self._pending.add(inst.uid)
        heappush(self._base_heap, (self._base[inst.uid], inst.uid))
        if inst.p_bit:
            self._pending_p += 1
        if not self._in.get(inst.uid):
            self._ready.append(inst.uid)

    def _promote_to_ready(self, inst: Instruction) -> None:
        # The uid may already sit in the ready deque; _drain_ready skips
        # entries that were already allocated, so stale entries are fine.
        self._ready.append(inst.uid)

    def _drain_ready(self) -> None:
        while self._ready:
            uid = self._ready.popleft()
            if uid in self._allocated:
                continue
            if self._in.get(uid):
                continue  # stale ready entry
            self._allocate_now(self._inst[uid])

    def _allocate_now(self, inst: Instruction) -> None:
        base = self._base[inst.uid]
        order = self._next_order
        self._order[inst.uid] = order
        offset = order - base
        if offset < 0:
            raise AliasRegisterOverflow(
                f"negative offset {offset} for {inst!r} (allocator bug)"
            )
        if offset >= self.machine.alias_registers:
            self.stats.overflow_aborts += 1
            raise AliasRegisterOverflow(
                f"offset {offset} >= {self.machine.alias_registers} "
                f"alias registers while allocating {inst!r}"
            )
        inst.ar_offset = offset
        inst.ar_order = order
        if offset >= self.stats.working_set:
            self.stats.working_set = offset + 1
        if inst.p_bit:
            self._next_order += 1
            self._pending_p -= 1
        self._allocated.add(inst.uid)
        self._pending.discard(inst.uid)
        # Releasing inst's outgoing constraint edges can ready successors.
        # Iterated in uid order: deterministic regardless of how many
        # instructions the process created before this superblock (set
        # iteration over uids is not).
        succs = self._out.get(inst.uid)
        if succs:
            for succ_uid in sorted(succs):
                self._in[succ_uid].discard(inst.uid)
                if succ_uid in self._pending and not self._in[succ_uid]:
                    self._ready.append(succ_uid)
            succs.clear()

    def _allocate_reg(self, inst: Instruction) -> Optional[Instruction]:
        """Record base, enqueue, drain, and emit a rotation if BASE moved."""
        self._base[inst.uid] = self._next_order
        self._enqueue_for_allocation(inst)
        self._drain_ready()
        delta = self._next_order - self._base[inst.uid]
        if delta > 0:
            self.stats.rotations_inserted += 1
            return rotate(delta)
        return None
