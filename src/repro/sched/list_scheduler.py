"""Cycle-driven list scheduler with speculative memory reordering.

The scheduler fills time slots in increasing cycle order (the property the
paper's Figure 13 relies on: once an instruction is scheduled, everything
scheduled later occupies the same or a later slot).

Breakable memory edges (MAY-alias dependences the policy and the alias
profile let it break) do not delay readiness, so loads can hoist above
potentially aliasing stores and stores can reorder among themselves. Every
time that actually happens, the attached :class:`AllocatorHook` (the SMARQ
allocator) records the check/anti constraints and allocates alias
registers. Speculation is throttled per candidate: an instruction that
still has unscheduled breakable predecessors issues only if
:meth:`AllocatorHook.speculation_allowed` says so, and the allocator says
no while its alias registers are close to overflow (paper Section 5.3) —
the instruction then waits for its predecessors like any other, letting
pending alias registers drain.

The hook may splice pseudo operations (``AMOV`` before, ``ROTATE`` after)
into the linear output after each placement.

Everything the readiness loop needs that does not depend on the hook is
computed by :meth:`ListScheduler.prepare` as position-indexed tables
(:class:`SchedulePrep`) straight from the DDG's positional edge tuple, so
the translation cache can memoize them; :meth:`ListScheduler.schedule`
runs on those lists directly and keys only its result by uid.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Tuple

from repro.ir.instruction import Instruction
from repro.sched.ddg import DataDependenceGraph, Edge
from repro.sched.machine import MachineModel


@dataclass
class SchedulerConfig:
    """Knobs controlling speculation policy."""

    speculate: bool = True
    #: MAY-alias pairs with a profiled alias rate above this are treated as
    #: unbreakable (speculating on them would cause rollback storms).
    alias_rate_threshold: float = 0.25
    #: allow speculative reordering of stores relative to stores
    allow_store_reorder: bool = True


class AllocatorHook:
    """Interface the SMARQ allocator implements; defaults are inert.

    A scheduler without a hook performs plain (possibly speculative)
    list scheduling with no alias register management — used for the
    no-alias-hardware baseline (non-speculative) and for tests.
    """

    def speculation_allowed(self, inst: Instruction) -> bool:
        """May ``inst`` be scheduled while breakable predecessors remain
        unscheduled? The allocator answers False when alias registers are
        about to overflow."""
        return True

    def on_scheduled(
        self, inst: Instruction, cycle: int
    ) -> Tuple[List[Instruction], List[Instruction]]:
        """Called after every instruction is placed. Returns
        ``(before, after)`` pseudo-op lists to splice around ``inst`` in the
        linear order."""
        return ([], [])

    def on_finish(self, linear: List[Instruction]) -> None:
        """Called once with the final linear order (operand fixups)."""


@dataclass
class ScheduleResult:
    """Outcome of scheduling one superblock."""

    linear: List[Instruction]
    cycle_of: Dict[int, int]
    length_cycles: int
    speculated_pairs: int = 0

    def position(self) -> Dict[int, int]:
        """uid -> index in the linear order."""
        return {inst.uid: idx for idx, inst in enumerate(self.linear)}


@dataclass(frozen=True)
class SchedulePrep:
    """Precomputed readiness and priority tables for one schedule.

    Everything here is a pure function of the DDG structure, the
    scheduler policy, and the alias profile (hints + bans) — computed by
    :meth:`ListScheduler.prepare` and *position*-indexed (not uid-indexed)
    so the translation cache can reuse one prep across blocks with
    identical content. ``succ_adj[i]`` holds ``(dst_position, latency,
    honoured)`` per outgoing edge; ``honoured`` is the per-edge constant
    the readiness loop tests instead of re-deriving the speculation rules.
    """

    hard_left: Tuple[int, ...]
    spec_left: Tuple[int, ...]
    succ_adj: Tuple[Tuple[Tuple[int, int, bool], ...], ...]
    height: Tuple[int, ...]


class ListScheduler:
    """List scheduling over a :class:`DataDependenceGraph`."""

    def __init__(
        self,
        machine: MachineModel,
        config: Optional[SchedulerConfig] = None,
        hook: Optional[AllocatorHook] = None,
        tracer=None,
    ) -> None:
        from repro.engine.instrumentation import NULL_TRACER

        self.machine = machine
        self.config = config or SchedulerConfig()
        self.hook = hook or AllocatorHook()
        self.tracer = tracer if tracer is not None else NULL_TRACER

    # ------------------------------------------------------------------
    def prepare(
        self, ddg: DataDependenceGraph, alias_analysis=None
    ) -> SchedulePrep:
        """Build the position-indexed readiness/priority tables.

        Split out of :meth:`schedule` so the optimization pipeline can
        memoize the result: the tables depend only on DDG structure,
        policy, and profile state, never on the allocator hook.
        """
        instructions = list(ddg.block)
        n = len(instructions)
        config = self.config
        speculating = config.speculate
        store_reorder = config.allow_store_reorder
        threshold = config.alias_rate_threshold

        # Edges grouped by destination, insertion order kept within each
        # group: the order every successor list below is filled in.
        by_dst: List[List[Edge]] = [[] for _ in range(n)]
        for edge in ddg.structural():
            by_dst[edge[1]].append(edge)
        banned = None
        if speculating and alias_analysis is not None:
            banned = [alias_analysis.speculation_banned(i) for i in instructions]

        hard = [0] * n
        spec = [0] * n
        succ: List[List[Tuple[int, int, bool]]] = [[] for _ in range(n)]
        for di, edges in enumerate(by_dst):
            for si, _di, _kind, latency, breakable in edges:
                # Is this edge a hard ordering requirement? Every input
                # (the speculation mode, the store-reorder policy, the
                # alias analysis) is fixed for the whole schedule, so the
                # answer is a per-edge constant decided once here. Only
                # memory edges are ever breakable.
                honoured = True
                if breakable and speculating:
                    src = instructions[si]
                    dst = instructions[di]
                    honoured = (
                        not store_reorder and src.is_store and dst.is_store
                    ) or (
                        banned is not None
                        and (
                            banned[si]
                            or banned[di]
                            or alias_analysis.alias_rate(src, dst) > threshold
                        )
                    )
                if honoured:
                    hard[di] += 1
                else:
                    spec[di] += 1
                succ[si].append((di, latency, honoured))

        # Priority: latency-weighted height over always-honoured edges,
        # computed with speculation on (optimistic heights pull loads up).
        # Edges always point forward in program order, so one reverse pass
        # over the adjacency just built resolves every height.
        height = [0] * n
        for i in range(n - 1, -1, -1):
            best = 0
            for dst_pos, latency, honoured in succ[i]:
                if honoured:
                    candidate = latency + height[dst_pos]
                    if candidate > best:
                        best = candidate
            height[i] = best

        return SchedulePrep(
            hard_left=tuple(hard),
            spec_left=tuple(spec),
            succ_adj=tuple(tuple(entries) for entries in succ),
            height=tuple(height),
        )

    # ------------------------------------------------------------------
    def schedule(
        self,
        ddg: DataDependenceGraph,
        alias_analysis=None,
        prep: Optional[SchedulePrep] = None,
    ) -> ScheduleResult:
        instructions = list(ddg.block)
        n = len(instructions)
        if prep is None:
            prep = self.prepare(ddg, alias_analysis)

        # Readiness is maintained incrementally instead of re-derived by
        # walking predecessor lists every cycle: per position we keep the
        # count of honoured/breakable predecessor edges whose source is
        # still unscheduled, plus a running earliest-issue cycle updated
        # when a source is placed. The per-candidate test is then O(1),
        # and the functional unit is resolved once per instruction. The
        # tables come position-indexed from ``prep`` (possibly memoized)
        # and are used as is; only the result is keyed by uid.
        hard_left = list(prep.hard_left)
        spec_left = list(prep.spec_left)
        earliest_at = [0] * n
        succ_adj = prep.succ_adj
        height = prep.height
        op_table = self.machine.op_table
        unit_of = [op_table[inst.opcode][0] for inst in instructions]
        allowed = self.hook.speculation_allowed
        on_scheduled = self.hook.on_scheduled

        track_alloc = self.tracer.active
        alloc_seconds = 0.0

        scheduled: Dict[int, int] = {}  # position -> cycle, in issue order
        linear: List[Instruction] = []
        speculated_pairs = 0

        cycle = 0
        remaining = set(range(n))

        safety_limit = 50 * (n + 1) + 10000
        iterations = 0
        # Per-cycle resource state persists until the cycle advances.
        slots_used: Dict[object, int] = {}
        issued = 0
        issue_width = self.machine.issue_width
        slots_for = self.machine.slots_for
        while remaining:
            iterations += 1
            if iterations > safety_limit:
                raise RuntimeError("scheduler failed to converge (cycle in DDG?)")

            # Collect instructions issuable this cycle.
            candidates: List[Tuple[int, int, bool]] = []
            for i in remaining:
                if hard_left[i] or earliest_at[i] > cycle:
                    continue
                speculative = spec_left[i] > 0
                if speculative and not allowed(instructions[i]):
                    continue
                candidates.append((-height[i], i, speculative))
            if not candidates:
                cycle += 1
                slots_used = {}
                issued = 0
                continue
            # Positions are unique: (height, program order) decides.
            candidates.sort()

            # Fill what remains of this cycle's slots. A candidate stays
            # ready while the pass runs (its honoured predecessors were all
            # placed in earlier cycles); only its speculative status can
            # change, as breakable predecessors issue alongside it.
            issued_any = False
            for _, i, speculative in candidates:
                if issued >= issue_width:
                    break
                unit = unit_of[i]
                if slots_used.get(unit, 0) >= slots_for(unit):
                    continue
                inst = instructions[i]
                # Re-verify: an issue earlier in this pass may have changed
                # speculation permission (allocator register pressure).
                if speculative and not allowed(inst):
                    continue
                slots_used[unit] = slots_used.get(unit, 0) + 1
                issued += 1
                issued_any = True
                scheduled[i] = cycle
                remaining.discard(i)
                if spec_left[i] > 0 and inst.is_mem:
                    speculated_pairs += 1
                for dst, latency, honoured in succ_adj[i]:
                    if honoured:
                        hard_left[dst] -= 1
                        available = cycle + latency
                        if available > earliest_at[dst]:
                            earliest_at[dst] = available
                    else:
                        spec_left[dst] -= 1
                if track_alloc:
                    t0 = perf_counter()
                    before, after = on_scheduled(inst, cycle)
                    alloc_seconds += perf_counter() - t0
                else:
                    before, after = on_scheduled(inst, cycle)
                linear.extend(before)
                linear.append(inst)
                linear.extend(after)
            if not issued_any:
                cycle += 1
                slots_used = {}
                issued = 0

        length = 1 + max(scheduled.values(), default=0)
        if track_alloc:
            t0 = perf_counter()
            self.hook.on_finish(linear)
            alloc_seconds += perf_counter() - t0
            self.tracer.add_time("optimize.alloc", alloc_seconds)
        else:
            self.hook.on_finish(linear)
        cycle_of = {instructions[i].uid: c for i, c in scheduled.items()}
        # Pseudo-ops ride along in the issuing instruction's cycle.
        for idx, inst in enumerate(linear):
            if inst.uid not in cycle_of:
                neighbor = next(
                    (linear[j].uid for j in range(idx + 1, len(linear))
                     if linear[j].uid in cycle_of),
                    None,
                )
                if neighbor is None:
                    neighbor_cycle = length - 1
                else:
                    neighbor_cycle = cycle_of[neighbor]
                cycle_of[inst.uid] = neighbor_cycle
        return ScheduleResult(
            linear=linear,
            cycle_of=cycle_of,
            length_cycles=length,
            speculated_pairs=speculated_pairs,
        )
