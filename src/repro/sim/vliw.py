"""Bundle-level in-order VLIW timing simulator.

Executes one optimized region's linear instruction stream functionally
while accounting cycles with an in-order issue model:

* **scoreboard** — each register has a ready cycle; an instruction issues
  no earlier than its operands are ready (stall-on-use);
* **bundling** — per-cycle issue width and per-functional-unit slot limits
  (this is where ``ROTATE``/``AMOV`` bookkeeping costs real slots);
* **atomic region semantics** — registers are copied at entry and every
  memory write keeps the word it overwrites until the region commits;
  an alias exception or a taken side exit rolls everything back. Side
  exits abort because speculation may have hoisted operations above
  them; the runtime then interprets the off-trace path (DESIGN.md
  records this substitution for the paper's commit-at-exit hardware).

The simulator drives the scheme's :class:`HardwareAdapter` at every memory
operation, rotation, and alias move.

Hot-path organisation: a region's linear stream is *compiled once* into a
flat trace of tuples — operand register indices, latency, functional-unit
index, and a specialized ALU closure — and cached on the region object.
Re-executions (the common case: a hot region runs thousands of times)
then run a tight loop over plain ints and lists with no per-step opcode
dispatch, enum hashing, or method calls. Adapter calls for memory
operations that the scheme's hardware provably ignores (no P/C bit, see
:class:`~repro.sim.schemes.HardwareAdapter` fast-path flags) are elided at
compile time. The compiled timing and functional behaviour are identical
to the original interpretive loop — locked by ``tests/goldens/``.

Timing plans: the scoreboard/bundling accounting above is *data
independent* — operand indices, latencies and unit slots are fixed by the
trace, so the cycle counter after issuing instruction ``i`` is a pure
function of the trace prefix ``trace[:i+1]``. A region is therefore
executed in two separable halves:

* **functional replay** — register/memory effects, the stores' rollback
  state, and the adapter's alias callbacks, still per instruction (they
  depend on data);
* **timing plan** — the cycle counter after each trace entry, compiled
  once per region trace (``_compile_timing``) and cached alongside
  ``_vliw_trace``.

The alias hardware changes a region's time only by raising the exception
that rolls it back, so everything an execution reports except an alias
exception's faulting pair is a function of the exit it leaves by: its
trace index and kind. The plan keeps one shared, frozen
:class:`RegionOutcome` per exit. The first execution to leave by an exit
builds it from the cycle array (``vliw.plan_misses``; a plan's first
miss compiles the array, ``vliw.plan_compiles``), and every later one
returns the same object (``vliw.plan_hits``); an alias exit's outcome is
a template each execution copies with its own pair. Every replay tier
finishes through that one table. The planned path relies on every
adapter being timing-transparent (its callbacks never influence issue
timing; see :class:`~repro.sim.schemes.HardwareAdapter`). Every run with
``SMARQ_NO_TIMING_PLANS=1`` in the environment takes the original fully
interpreted scoreboard loop instead, the oracle the plans are checked
against. Both paths produce byte-identical
:class:`RegionOutcome`/:class:`VliwStats` numbers — locked by
``tests/goldens/`` and ``tests/test_timing_plans.py``.

Replay backends: a trace's first :data:`_REPLAY_THRESHOLD` - 1 planned
executions run the generic two-tuple dispatch loop below (the ``interp``
oracle). At the threshold the trace is lowered once to the numeric
replay IR (:mod:`repro.sim.replay_ir`) and compiles exactly **one**
kernel from :mod:`repro.sim.replay_backends`:

* ``batch`` when the trace has a structural back-edge — run at up to
  :data:`_BATCH_WIDTH` iterations per call when the region self-loops
  at its own entry pc and the step budget affords it, and at ``n = 1``
  for every scalar use (which is exactly one ``vec`` execution);
* ``vec`` otherwise — the same statically pre-simulated residue
  (register locals, guarded word indexes, alias tests by word-index
  equality) without the iteration loop.

Every tier rolls back through ``(word index, old word)`` pairs into the
memory's word list (:attr:`~repro.sim.memory.Memory.words`), and one
function, :func:`_restore_words`, restores them: the dispatch loop and
``py`` store through :meth:`~repro.sim.memory.Memory.write_logged`,
which logs them, and the vec kernel logs them as it indexes the list
directly. A batch kernel logs nothing for the iterations it commits:
it keeps each store's old word in a local and returns the pairs of
the one iteration that can still roll back. Any runtime fact that
escapes a kernel's static model (bounds violation, misaligned base,
possible alias overlap) rolls back and re-runs that one execution on
the dispatch loop — the ``interp`` oracle, exact by construction. There
is no demotion: a kernel stays its trace's kernel however often it
escapes. A trace neither kernel can lower — one with an access that is
not an aligned 8-byte word, for instance — stays on the dispatch loop;
no trace adopts ``py`` in auto mode.

``SMARQ_REPLAY_BACKEND=interp|py|vec|batch`` forces a tier for every
region from its first execution (the kill switch / oracle selector:
``vec`` never batches, so it makes ``vec`` the one kernel of every
trace; ``batch`` is the auto policy without the warm-up; ``py`` is the
only way to run the straight-line function). Lowered IR and compiled
kernels live in the region's translation-cache entry
(``region._artifact_map``, attached by
:mod:`repro.opt.translation_cache`), so content-identical clones from
the translation cache never recompile; a region without an entry gets
private artifacts.
Every tier produces byte-identical reports — locked by
``tests/test_replay_ir.py``, ``tests/test_batch_replay.py`` and the
``knobs`` fuzz oracle.
"""

from __future__ import annotations

import time

from dataclasses import dataclass, replace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import knobs
from repro.hw.exceptions import AliasException
from repro.ir.instruction import Instruction, Opcode
from repro.sched.machine import FunctionalUnit, MachineModel
from repro.sim import replay_backends as _backends
from repro.sim.memory import Memory
from repro.sim.replay_ir import (
    K_ALU as _K_ALU,
    K_AMOV as _K_AMOV,
    K_BR as _K_BR,
    K_CBR as _K_CBR,
    K_EXIT as _K_EXIT,
    K_LD as _K_LD,
    K_NOP as _K_NOP,
    K_ROTATE as _K_ROTATE,
    K_ST as _K_ST,
    X_ALIAS as _X_ALIAS,
    X_BR as _X_BR,
    X_EXIT as _X_EXIT,
    X_FALL as _X_FALL,
    X_SIDE as _X_SIDE,
    loop_candidate as _loop_candidate,
    lower_trace as _lower_trace,
)

_MASK64 = (1 << 64) - 1


def _wrap(value: int) -> int:
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


def _restore_words(words, undo_log) -> None:
    """Roll back stores, newest first: every tier's undo entries are
    ``(word index, old word)`` into the memory's word list."""
    for i, old in reversed(undo_log):
        words[i] = old


@dataclass(frozen=True)
class RegionOutcome:
    """Result of attempting one region execution.

    Frozen: a timing plan hands the same object to every execution that
    leaves its trace by the same exit."""

    status: str  # "commit" | "side_exit" | "alias" | "exit"
    cycles: int
    next_pc: Optional[int] = None
    exit_code: Optional[int] = None
    #: alias exceptions carry the faulting memory-op pair
    alias_setter: Optional[int] = None
    alias_checker: Optional[int] = None
    false_positive: bool = False
    instructions_executed: int = 0


@dataclass
class VliwStats:
    regions_executed: int = 0
    commits: int = 0
    side_exit_aborts: int = 0
    alias_aborts: int = 0
    false_positive_aborts: int = 0
    total_cycles: int = 0
    instructions: int = 0


#: functional-unit index order used by the compiled trace's slot vectors
_UNIT_ORDER = (
    FunctionalUnit.MEM,
    FunctionalUnit.ALU,
    FunctionalUnit.FPU,
    FunctionalUnit.BRANCH,
)
_UNIT_INDEX = {unit: idx for idx, unit in enumerate(_UNIT_ORDER)}

_CBR_CODE = {Opcode.BEQ: 0, Opcode.BNE: 1, Opcode.BLT: 2, Opcode.BGE: 3}

# Trace entry kinds (K_*) and exit kinds (X_*), aliased as _K_*/_X_* by
# the import above, are defined once, in repro.sim.replay_ir, which
# lowers the trace and shares the exit vocabulary with the backends.

#: max iterations per batched kernel call
_BATCH_WIDTH = 256

#: scratch-register extension appended to the guest file per execution
#: (a tuple so list.extend copies without allocating a fresh [0]*64)
_SCRATCH64 = (0,) * 64


class _TimingPlan:
    """Per-trace cycle accounting, exit outcomes and tiered replay.

    ``cycle_after[i]`` is the scoreboard cycle counter immediately after
    issue-accounting trace entry ``i`` (compiled lazily, once per trace,
    by :func:`_compile_timing`). ``exits`` maps each ``(exit index, exit
    kind)`` that an execution has left by to the shared outcome of a
    clean execution leaving there (built by
    :meth:`VliwSimulator._exit_outcome`), so repeat executions along a
    known exit never consult the array again — and never re-run the
    per-instruction scoreboard loop. Every replay tier finishes through
    this one table.

    ``executions`` counts planned replays of the trace; the execution
    that reaches :data:`_REPLAY_THRESHOLD` promotes the plan to its
    ``tier``: ``"batch"`` or ``"vec"`` (the one kernel compiled for the
    trace, see :meth:`VliwSimulator._promote`), ``"py"`` (forced) or
    ``"interp"`` (no kernel can run the trace). The threshold keeps
    one-shot regions from paying the ~ms codegen cost; hot regions
    execute hundreds of times and amortize it at once. ``replay_fn`` is
    the straight-line ``py`` function (:func:`repro.sim.replay_backends
    .compile_py`) of a forced ``py`` tier. An execution that escapes a
    kernel re-runs on the dispatch loop. ``artifact`` is the
    :class:`~repro.sim.replay_backends.ReplayArtifact` holding the
    lowered IR and compiled kernels, shared by content-identical region
    clones through their translation-cache entry (the plan itself — exit
    outcomes, execution count, tier — stays per-region).
    """

    __slots__ = ("cycle_after", "exits", "executions", "tier",
                 "replay_fn", "artifact", "batch_loop")

    def __init__(self) -> None:
        self.cycle_after: Optional[List[int]] = None
        self.exits: Dict[Tuple[int, int], RegionOutcome] = {}
        self.executions = 0
        #: None until promotion (dispatch loop), then
        #: "batch"/"vec"/"py"/"interp"
        self.tier: Optional[str] = None
        self.replay_fn: Optional[Callable] = None
        self.artifact: Optional[_backends.ReplayArtifact] = None
        #: the (exit_idx, exit_kind) of the batch kernel's back-edge site
        #: when it re-enters this region, else None (per-region, unlike
        #: the shared artifact: only the region whose entry pc matches
        #: the baked branch target self-loops)
        self.batch_loop: Optional[Tuple[int, int]] = None


#: planned executions of one trace before it compiles its one kernel
_REPLAY_THRESHOLD = 4


def _compile_timing(machine: MachineModel, trace) -> List[int]:
    """Cumulative issue/scoreboard accounting over the whole trace.

    Replays exactly the issue half of the interpreted loop in
    :meth:`VliwSimulator._execute_interpreted` — operand-ready stalls,
    issue-width and per-unit slot limits — over every trace entry,
    recording the cycle counter after each. Data never enters this
    computation, so the result is valid for every execution of the trace
    regardless of register/memory contents.
    """
    max_reg = -1
    for _kind, uses, dest, _latency, _unit_idx, _aux in trace:
        for reg in uses:
            if reg > max_reg:
                max_reg = reg
        if dest is not None and dest > max_reg:
            max_reg = dest
    reg_ready = [0] * (max_reg + 1)
    cycle = machine.checkpoint_cycles
    issue_width = machine.issue_width
    limits = [machine.slots_for(unit) for unit in _UNIT_ORDER]
    slots_used = [0, 0, 0, 0]
    issued_in_cycle = 0
    cycle_after: List[int] = []
    for _kind, uses, dest, latency, unit_idx, _aux in trace:
        earliest = cycle
        for reg in uses:
            ready = reg_ready[reg]
            if ready > earliest:
                earliest = ready
        if earliest > cycle:
            cycle = earliest
            slots_used = [0, 0, 0, 0]
            issued_in_cycle = 0
        while (
            issued_in_cycle >= issue_width
            or slots_used[unit_idx] >= limits[unit_idx]
        ):
            cycle += 1
            slots_used = [0, 0, 0, 0]
            issued_in_cycle = 0
        slots_used[unit_idx] += 1
        issued_in_cycle += 1
        if dest is not None:
            reg_ready[dest] = cycle + latency
        cycle_after.append(cycle)
    return cycle_after


def _compile_alu_fn(inst: Instruction) -> Callable[[List[int]], None]:
    """Specialized register-effect closure for one ALU instruction.

    Mirrors the opcode dispatch of the replay IR's ALU lowering
    (:func:`repro.sim.replay_ir._lower_alu`) exactly; an opcode neither
    handles raises ``ValueError`` when the trace is compiled.
    """
    op = inst.opcode
    dest = inst.dest
    srcs = inst.srcs
    imm = inst.imm

    if op is Opcode.MOVI:
        value = imm or 0

        def fn(regs: List[int]) -> None:
            regs[dest] = value

        return fn
    if op is Opcode.MOV:
        s0 = srcs[0]
        if imm is not None:

            def fn(regs: List[int]) -> None:
                regs[dest] = regs[s0] & imm

            return fn

        def fn(regs: List[int]) -> None:
            regs[dest] = regs[s0]

        return fn
    if op in (Opcode.ADD, Opcode.SUB) and imm is not None:
        s0 = srcs[0]
        delta = imm if op is Opcode.ADD else -imm

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[s0] + delta)

        return fn
    if op in (Opcode.ADD, Opcode.FADD):
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[s0] + regs[s1])

        return fn
    if op in (Opcode.SUB, Opcode.FSUB):
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[s0] - regs[s1])

        return fn
    if op in (Opcode.MUL, Opcode.FMUL):
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[s0] * regs[s1])

        return fn
    if op is Opcode.AND:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = regs[s0] & regs[s1]

        return fn
    if op is Opcode.OR:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = regs[s0] | regs[s1]

        return fn
    if op is Opcode.XOR:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = regs[s0] ^ regs[s1]

        return fn
    if op is Opcode.SHL:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[s0] << (regs[s1] & 63))

        return fn
    if op is Opcode.SHR:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = (regs[s0] & _MASK64) >> (regs[s1] & 63)

        return fn
    if op is Opcode.CMP:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            a, b = regs[s0], regs[s1]
            regs[dest] = (a > b) - (a < b)

        return fn
    if op is Opcode.FDIV:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            b = regs[s1]
            regs[dest] = regs[s0] // b if b else 0

        return fn
    if op is Opcode.FMA:
        s0, s1 = srcs[0], srcs[1]

        def fn(regs: List[int]) -> None:
            regs[dest] = _wrap(regs[dest] + regs[s0] * regs[s1])

        return fn
    raise ValueError(f"VLIW simulator cannot execute {inst!r}")


def _compile_trace(machine: MachineModel, linear: List[Instruction], adapter_cls):
    """Flatten a linear instruction stream into execution tuples.

    Each entry is ``(kind, uses, dest, latency, unit_idx, aux)`` where
    ``uses`` is a tuple of scoreboard register indices, ``dest`` is the
    written register (or None), and ``aux`` carries kind-specific
    precomputed operands.
    """
    skip_loads = getattr(adapter_cls, "skip_unannotated_loads", False)
    skip_stores = getattr(adapter_cls, "skip_unannotated_stores", False)
    op_table = machine.op_table
    trace = []
    for inst in linear:
        op = inst.opcode
        unit, latency = op_table[op]
        unit_idx = _UNIT_INDEX[unit]
        uses = tuple(inst.uses())
        dest = inst.dest
        if op is Opcode.LD:
            call_adapter = (inst.p_bit or inst.c_bit) or not skip_loads
            aux = (inst.base, inst.disp, inst.size, inst.dest, inst,
                   call_adapter)
            kind = _K_LD
        elif op is Opcode.ST:
            call_adapter = (inst.p_bit or inst.c_bit) or not skip_stores
            aux = (inst.base, inst.disp, inst.size, inst.srcs[0], inst,
                   call_adapter)
            kind = _K_ST
        elif op is Opcode.ROTATE:
            aux = inst
            kind = _K_ROTATE
        elif op is Opcode.AMOV:
            aux = inst
            kind = _K_AMOV
        elif op is Opcode.NOP:
            aux = None
            kind = _K_NOP
        elif op is Opcode.EXIT:
            aux = inst.target
            kind = _K_EXIT
        elif op is Opcode.BR:
            aux = inst.target
            kind = _K_BR
        elif op in _CBR_CODE:
            b = inst.srcs[1] if len(inst.srcs) > 1 else None
            aux = (_CBR_CODE[op], inst.srcs[0], b, inst.target)
            kind = _K_CBR
        else:
            aux = _compile_alu_fn(inst)
            kind = _K_ALU
        trace.append((kind, uses, dest, latency, unit_idx, aux))

    # Fall-off-the-end continuation pc (precomputed; see _execute_region).
    fall_through = None
    last_pc = max(
        (i.guest_pc for i in linear if i.guest_pc is not None),
        default=None,
    )
    if last_pc is not None:
        fall_through = last_pc + 1
    # Functional-only projection for the planned replay path: the issue
    # operands (uses/dest/latency/unit) are dropped so the fast loop
    # unpacks two items per entry instead of six.
    ftrace = [(kind, aux) for kind, _u, _d, _l, _ui, aux in trace]
    return trace, fall_through, ftrace


class VliwSimulator:
    """Executes optimized regions over shared guest memory."""

    def __init__(
        self, machine: MachineModel, memory: Memory, tracer=None
    ) -> None:
        from repro.engine.instrumentation import NULL_TRACER

        self.machine = machine
        self.memory = memory
        self.stats = VliwStats()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        # both knobs are read once per construction (see repro.knobs)
        self._plans_enabled = knobs.value(knobs.NO_TIMING_PLANS) != "1"
        backend = knobs.value(knobs.REPLAY_BACKEND)
        self._backend = None if backend == "auto" else backend
        # planned executions before a plan promotes: forced tiers promote
        # on the first one, a forced interp never does
        if self._backend is None:
            self._threshold = _REPLAY_THRESHOLD
        elif self._backend == "interp":
            self._threshold = float("inf")
        else:
            self._threshold = 1

    # ------------------------------------------------------------------
    def execute_region(
        self,
        region,
        adapter,
        registers: List[int],
    ) -> RegionOutcome:
        """Run the region once. Mutates ``registers`` and memory only on
        commit; any abort restores both."""
        # Phase bracketing costs ~µs per call — material when a hot
        # region replays in ~10µs — so an inactive tracer skips it and an
        # active one gets two raw perf_counter reads instead of the
        # phase() contextmanager.
        if self.tracer.active:
            start = time.perf_counter()
            try:
                return self._execute_region(region, adapter, registers, 1)[0]
            finally:
                self.tracer.add_time(
                    "execute", time.perf_counter() - start
                )
        return self._execute_region(region, adapter, registers, 1)[0]

    def execute_region_batch(
        self,
        region,
        adapter,
        registers: List[int],
        steps_budget: int,
    ) -> Tuple[RegionOutcome, Optional[RegionOutcome], int]:
        """Run the region, batching back-edge iterations when eligible.

        Returns ``(outcome, loop_outcome, batched)``: ``batched``
        back-edge commits executed inside one batch kernel call (each
        identical to ``loop_outcome``, a shared commit RegionOutcome at
        the loop site) followed by ``outcome``, the final execution —
        exactly what ``batched + 1`` scalar :meth:`execute_region` calls
        would have produced. ``batched`` is 0 (and ``loop_outcome``
        None) whenever one execution runs: the plan is not promoted or
        its kernel is not a batch kernel, the region does not re-enter
        itself at the back-edge, or ``steps_budget``/width afford fewer
        than two iterations.
        """
        if self.tracer.active:
            start = time.perf_counter()
            try:
                return self._execute_region(
                    region, adapter, registers, steps_budget
                )
            finally:
                self.tracer.add_time(
                    "execute", time.perf_counter() - start
                )
        return self._execute_region(region, adapter, registers, steps_budget)

    def _trace_for(self, region, adapter):
        """The compiled trace for ``region``, cached on the region object.

        The cache is keyed on the identity of the linear stream, the
        adapter class, and the machine model, so a re-optimized schedule
        (a fresh region/linear list) or a different execution context
        never sees a stale trace. The cached tuple also carries the
        functional-only projection and the (lazily compiled) timing plan.
        """
        linear = region.schedule.linear
        adapter_cls = type(adapter)
        cached = getattr(region, "_vliw_trace", None)
        if (
            cached is not None
            and cached[0] is linear
            and cached[1] is adapter_cls
            and cached[2] is self.machine
        ):
            return cached[3], cached[4], cached[5], cached[6]
        trace, fall_through, ftrace = _compile_trace(
            self.machine, linear, adapter_cls
        )
        plan = _TimingPlan()
        # The artifact of the region's translation-cache entry for this
        # adapter class and hardware config, shared with every clone of
        # the entry; a private one for a region that has no entry.
        artifacts = getattr(region, "_artifact_map", {})
        key = (adapter_cls, adapter.replay_config_key())
        plan.artifact = artifacts.get(key)
        if plan.artifact is None:
            plan.artifact = artifacts[key] = _backends.ReplayArtifact()
        region._vliw_trace = (
            linear, adapter_cls, self.machine, trace, fall_through,
            ftrace, plan,
        )
        return trace, fall_through, ftrace, plan

    def _execute_region(
        self,
        region,
        adapter,
        registers: List[int],
        steps_budget: int,
    ) -> Tuple[RegionOutcome, Optional[RegionOutcome], int]:
        trace, fall_through, ftrace, plan = self._trace_for(region, adapter)
        if not self._plans_enabled:
            return (
                self._execute_interpreted(
                    region, adapter, registers, trace, fall_through
                ),
                None,
                0,
            )
        tier = plan.tier
        if tier is None and plan.executions + 1 >= self._threshold:
            tier = self._promote(
                region, trace, fall_through, plan, adapter, len(registers)
            )
        if tier == "batch":
            # n = 1 unless the region re-enters itself; never run more
            # iterations than the step budget affords: the caller
            # charges max(1, instructions) guest steps per commit,
            # exactly like scalar mode
            n = 1
            loop = plan.batch_loop
            if loop is not None:
                n = -(-steps_budget // (loop[0] + 1))
                if n > _BATCH_WIDTH:
                    n = _BATCH_WIDTH
            return self._run_batch(
                region, adapter, registers, trace, fall_through, ftrace,
                plan, plan.artifact.batch_fn, n,
            )
        if tier == "vec":
            out = self._run_vec(
                region, adapter, registers, trace, fall_through, plan,
                plan.artifact.vec_fn,
            )
            if out is not None:
                return out, None, 0
            # escaped: re-run this one execution exactly
        return (
            self._execute_planned(
                region, adapter, registers, trace, fall_through, ftrace,
                plan,
            ),
            None,
            0,
        )

    def _promote(
        self, region, trace, fall_through, plan: _TimingPlan, adapter,
        guest_count,
    ) -> str:
        """Give the plan its tier at the promotion threshold.

        A forced ``py`` tier adopts the straight-line function. Any other
        trace compiles (or finds in its shared artifact) exactly one
        kernel: ``batch`` when it has a structural back-edge, else
        ``vec`` — ``vec`` for every trace when the simulator forces it.
        The tier is ``interp`` when the kernel is unavailable: rejected
        by the lowering, or compiled for another register file size.
        """
        if self._backend == "py":
            self._adopt_py(region, trace, plan, adapter)
            plan.tier = "py"
            return "py"
        art = plan.artifact
        ir = self._ensure_ir(region, trace, art, adapter)
        batch = self._backend != "vec" and _loop_candidate(ir) is not None
        tier = "interp"
        if self._adopt_kernel(art, ir, adapter, guest_count, batch):
            tier = "batch" if batch else "vec"
            if batch:
                plan.batch_loop = _backends.loop_exit_for(
                    ir, region.block.entry_pc, fall_through
                )
        plan.tier = tier
        return tier

    def _adopt_kernel(self, art, ir, adapter, guest_count, batch) -> bool:
        """Compile the artifact's batch (or vec) kernel on first need, or
        adopt the compiled one (``vliw.replay_cache_hits``). False when
        the plan must stay on the dispatch loop instead."""
        if art.rejected:
            return False
        tracer = self.tracer
        if batch:
            fn, compiled_for = art.batch_fn, art.batch_guest_count
        else:
            fn, compiled_for = art.vec_fn, art.vec_guest_count
        if fn is not None:
            # the kernel hard-codes writeback bounds: a different guest
            # register file size can't use it
            if compiled_for != guest_count:
                return False
            if tracer.active:
                tracer.count("vliw.replay_cache_hits")
            return True
        if batch:
            fn = _backends.compile_batch(ir, adapter, guest_count)
        else:
            fn = _backends.compile_vec(ir, adapter, guest_count)
        if fn is None:
            # one lowering backs both kernels: neither can run the trace
            art.rejected = True
            return False
        if batch:
            art.batch_fn, art.batch_guest_count = fn, guest_count
            tracer.count("vliw.batch_compiles")
        else:
            art.vec_fn, art.vec_guest_count = fn, guest_count
            tracer.count("vliw.vec_compiles")
        return True

    def _run_vec(
        self, region, adapter, registers: List[int], trace, fall_through,
        plan: _TimingPlan, fn,
    ) -> Optional[RegionOutcome]:
        """One vec kernel execution, or None when a runtime fact escaped
        the kernel's static model (bounds violation, possible alias or
        store overlap): its buffered stores are rolled back and the
        caller re-runs the execution exactly on the dispatch loop, which
        reproduces exceptions, partial stats and partial effects
        byte-identically. Registers and hardware state are still
        pristine (the kernel mutates them only on success)."""
        memory = self.memory
        tracer = self.tracer
        undo_log: List[Tuple[int, int]] = []
        idx, exit_kind, payload = fn(
            registers, memory.words, memory.size, adapter, undo_log.append
        )
        if idx != -2:
            plan.executions += 1
            self.stats.regions_executed += 1
            if tracer.active:
                tracer.count("vliw.regions_executed")
                tracer.count("vliw.backend_vec")
            # vec never raises aliases (a possible overlap falls back)
            # and never touches adapter state: no region enter or exit
            return self._finish(
                region, trace, fall_through, plan, undo_log, idx,
                exit_kind, payload,
            )
        _restore_words(memory.words, undo_log)
        if tracer.active:
            tracer.count("vliw.vec_fallbacks")
        return None

    def _run_batch(
        self,
        region,
        adapter,
        registers: List[int],
        trace,
        fall_through,
        ftrace,
        plan: _TimingPlan,
        fn,
        n: int,
    ) -> Tuple[RegionOutcome, Optional[RegionOutcome], int]:
        """Up to ``n`` iterations in one batch kernel call: account the
        ``iters`` back-edge commits it ran in bulk, then its final
        iteration. ``undo`` holds only that iteration's ``(word index,
        old word)`` pairs, in store order: a trim rolls them back and
        re-runs the iteration on the dispatch loop, a side exit's
        :meth:`_finish` rolls them back, and a commit keeps its
        stores."""
        memory = self.memory
        stats = self.stats
        tracer = self.tracer
        active = tracer.active
        iters, undo, idx, kind, payload = fn(
            registers, memory.words, memory.size, adapter, n
        )
        loop_out: Optional[RegionOutcome] = None
        if iters:
            # ``iters`` full back-edge commits ran inside the kernel:
            # account each exactly as one scalar vec execution exiting
            # at the loop site (the kernel already applied per-iteration
            # hardware-stat deltas and register writebacks). The site
            # continues at the region's own entry pc: an X_BR's target
            # is that pc, and an X_FALL's fall-through pc equals it
            plan.executions += iters
            loop_idx, loop_kind = plan.batch_loop
            loop_out = self._exit_outcome(
                region, trace, fall_through, plan, loop_idx, loop_kind,
                region.block.entry_pc, iters,
            )
            stats.regions_executed += iters
            stats.commits += iters
            stats.instructions += loop_out.instructions_executed * iters
            stats.total_cycles += loop_out.cycles * iters
            if active:
                tracer.count("vliw.regions_executed", iters)
                tracer.count("vliw.backend_batch", iters)
                tracer.count("vliw.batch_iterations", iters)
        if kind == _backends.BATCH_TRIM:
            # the final iteration escaped the static model: roll back
            # its stores (committed iterations logged none) and re-run
            # it exactly on the dispatch loop
            _restore_words(memory.words, undo)
            if active:
                tracer.count("vliw.batch_trims")
            final = self._execute_planned(
                region, adapter, registers, trace, fall_through, ftrace,
                plan,
            )
        else:
            plan.executions += 1
            stats.regions_executed += 1
            if active:
                tracer.count("vliw.regions_executed")
                tracer.count("vliw.backend_batch")
            final = self._finish(
                region, trace, fall_through, plan, undo, idx, kind, payload,
            )
        return final, loop_out, iters

    # ------------------------------------------------------------------
    # Planned path: functional replay + memoized timing
    # ------------------------------------------------------------------
    def _execute_planned(
        self,
        region,
        adapter,
        registers: List[int],
        trace,
        fall_through,
        ftrace,
        plan: _TimingPlan,
    ) -> RegionOutcome:
        memory = self.memory
        self.stats.regions_executed += 1
        tracer = self.tracer
        active = tracer.active
        if active:
            tracer.count("vliw.regions_executed")

        guest_count = len(registers)
        undo_log: List[Tuple[int, int]] = []
        plan.executions += 1

        # A plan runs the dispatch loop until it is promoted. After that
        # it lands here to re-run one execution that escaped its kernel
        # on the dispatch loop, the ``interp`` oracle; to stay on the
        # dispatch loop, when no kernel can run the trace; or to run a
        # forced py tier.
        replay = plan.replay_fn

        # The py tier and the dispatch loop drive the adapter's real
        # hardware models; the region-enter reset the kernels skip
        # happens here (including after an escape).
        adapter.on_region_enter(region)
        regs = list(registers)
        regs.extend(_SCRATCH64)

        if replay is not None:
            if active:
                tracer.count("vliw.backend_py")
            idx, exit_kind, payload = replay(
                regs, memory.read, memory.write_logged, adapter,
                undo_log.append,
            )
        else:
            if active:
                tracer.count("vliw.backend_interp")
            # the dispatch loop reports its exit as py and the kernels
            # do: the index of the last entry whose effect ran, the exit
            # kind, and the target pc, exit code or alias exception
            idx = -1
            exit_kind = _X_FALL
            payload = None
            mem_read = memory.read
            mem_store = memory.write_logged
            on_mem_op = adapter.on_mem_op
            undo_append = undo_log.append
            try:
                for kind, aux in ftrace:
                    idx += 1
                    if kind == _K_ALU:
                        aux(regs)
                    elif kind == _K_LD:
                        base, disp, size, dreg, inst, call_adapter = aux
                        addr = regs[base] + disp
                        if call_adapter:
                            on_mem_op(inst, addr)
                        regs[dreg] = mem_read(addr, size)
                    elif kind == _K_ST:
                        base, disp, size, sreg, inst, call_adapter = aux
                        addr = regs[base] + disp
                        if call_adapter:
                            on_mem_op(inst, addr)
                        mem_store(addr, regs[sreg], size, undo_append)
                    elif kind == _K_CBR:
                        code, a, b, target = aux
                        av = regs[a]
                        bv = regs[b] if b is not None else 0
                        if code == 0:
                            taken = av == bv
                        elif code == 1:
                            taken = av != bv
                        elif code == 2:
                            taken = av < bv
                        else:
                            taken = av >= bv
                        if taken:
                            exit_kind = _X_SIDE
                            payload = target
                            break
                    elif kind == _K_BR:
                        exit_kind = _X_BR
                        payload = aux
                        break
                    elif kind == _K_EXIT:
                        exit_kind = _X_EXIT
                        payload = aux
                        break
                    elif kind == _K_ROTATE:
                        adapter.on_rotate(aux)
                    elif kind == _K_AMOV:
                        adapter.on_amov(aux)
                    # _K_NOP: no functional effect (still occupies its
                    # issue slot — accounted by the timing plan)
            except AliasException as exc:
                exit_kind = _X_ALIAS
                payload = exc

        if exit_kind == _X_ALIAS:
            # Keep the exception, not its traceback: the traceback's
            # frames reach this one through ``f_back``, and this frame
            # holds the exception, a cycle that would pin the frames,
            # the undo log, the registers and the job's memory until the
            # cyclic collector ran, which ``DbtSystem.run`` pauses.
            payload = payload.with_traceback(None)
        out = self._finish(
            region, trace, fall_through, plan, undo_log, idx, exit_kind,
            payload,
        )
        adapter.on_region_exit()
        if exit_kind != _X_SIDE and exit_kind != _X_ALIAS:
            registers[:] = regs[:guest_count]
        return out

    def _ensure_ir(self, region, trace, art, adapter):
        ir = art.ir
        if ir is None:
            ir = art.ir = _lower_trace(
                region.schedule.linear, trace, type(adapter)
            )
        return ir

    def _adopt_py(self, region, trace, plan: _TimingPlan, adapter) -> None:
        """Adopt the straight-line py replay for a plan of the forced
        ``py`` tier (compiling it into the shared artifact on first
        need).

        ``vliw.replay_compiles`` counts per-plan adoptions; an adoption
        served from an already-compiled shared artifact also counts
        ``vliw.replay_cache_hits`` (no codegen ran).
        """
        tracer = self.tracer
        art = plan.artifact
        fn = art.py_fn
        if fn is None:
            fn = art.py_fn = _backends.compile_py(
                self._ensure_ir(region, trace, art, adapter)
            )
        elif tracer.active:
            tracer.count("vliw.replay_cache_hits")
        plan.replay_fn = fn
        if tracer.active:
            tracer.count("vliw.replay_compiles")

    def _exit_outcome(
        self, region, trace, fall_through, plan: _TimingPlan, idx: int,
        exit_kind: int, payload, n: int = 1,
    ) -> RegionOutcome:
        """The shared outcome of ``n`` planned executions leaving by exit
        ``(idx, exit_kind)``: ``n`` plan hits, or — when no execution has
        left there before — one plan miss that builds the outcome and
        ``n - 1`` hits. The one place an exit's cycles are derived.

        Every field is a function of the exit: the cycle counter after
        trace entry ``idx`` (``checkpoint_cycles`` when none issued) plus
        one, plus the rollback penalty on a side exit; an alias abort
        charges the counter plus the penalty. ``payload`` is the exit's
        target pc or exit code; an ``X_FALL`` continues at the trace's
        fall-through pc. An alias exit's outcome is a template that
        :meth:`_finish` copies with the execution's faulting pair.
        """
        key = (idx, exit_kind)
        out = plan.exits.get(key)
        tracer = self.tracer
        if out is not None:
            if tracer.active:
                tracer.count("vliw.plan_hits", n)
            return out
        machine = self.machine
        cycle_after = plan.cycle_after
        if cycle_after is None:
            cycle_after = plan.cycle_after = _compile_timing(machine, trace)
            tracer.count("vliw.plan_compiles")
        tracer.count("vliw.plan_misses")
        if n > 1 and tracer.active:
            tracer.count("vliw.plan_hits", n - 1)
        cycle = cycle_after[idx] if idx >= 0 else machine.checkpoint_cycles
        executed = idx + 1
        if exit_kind == _X_ALIAS:
            out = RegionOutcome(
                "alias", cycle + machine.rollback_penalty,
                instructions_executed=executed,
            )
        elif exit_kind == _X_SIDE:
            out = RegionOutcome(
                "side_exit", cycle + 1 + machine.rollback_penalty,
                next_pc=payload, instructions_executed=executed,
            )
        elif exit_kind == _X_EXIT:
            out = RegionOutcome(
                "exit", cycle + 1, exit_code=payload,
                instructions_executed=executed,
            )
        else:
            if exit_kind == _X_FALL:
                payload = (
                    fall_through if fall_through is not None
                    else region.block.entry_pc + 1
                )
            out = RegionOutcome(
                "commit", cycle + 1, next_pc=payload,
                instructions_executed=executed,
            )
        plan.exits[key] = out
        return out

    def _finish(
        self,
        region,
        trace,
        fall_through,
        plan: _TimingPlan,
        undo_log: Sequence[Tuple[int, int]],
        idx: int,
        exit_kind: int,
        payload,
    ) -> RegionOutcome:
        """Account one planned execution that left by ``(idx,
        exit_kind)`` and return its outcome; an abort rolls its stores
        back. Every tier's executions end here, except the back-edge
        commits a batch kernel accounts in bulk. An adapter-driven tier
        still owes the region exit and, on commit, the register
        writeback."""
        out = self._exit_outcome(
            region, trace, fall_through, plan, idx, exit_kind, payload
        )
        stats = self.stats
        stats.instructions += out.instructions_executed
        stats.total_cycles += out.cycles
        if exit_kind == _X_SIDE:
            _restore_words(self.memory.words, undo_log)
            stats.side_exit_aborts += 1
        elif exit_kind == _X_ALIAS:
            _restore_words(self.memory.words, undo_log)
            stats.alias_aborts += 1
            if payload.false_positive:
                stats.false_positive_aborts += 1
            out = replace(
                out,
                alias_setter=payload.setter_mem_index,
                alias_checker=payload.checker_mem_index,
                false_positive=payload.false_positive,
            )
        else:
            stats.commits += 1
        return out

    # ------------------------------------------------------------------
    # Interpreted path: fused scoreboard + functional loop (the
    # executable specification of the planned path, run under
    # SMARQ_NO_TIMING_PLANS=1)
    # ------------------------------------------------------------------
    def _execute_interpreted(
        self,
        region,
        adapter,
        registers: List[int],
        trace,
        fall_through,
    ) -> RegionOutcome:
        machine = self.machine
        memory = self.memory
        stats = self.stats
        stats.regions_executed += 1
        if self.tracer.active:
            self.tracer.count("vliw.regions_executed")
            self.tracer.count("vliw.backend_interp")

        # Translated code may use host scratch registers beyond the guest
        # register file (register renaming in unrolled regions); scratch
        # state is private to the region and never committed.
        guest_count = len(registers)
        regs = list(registers) + [0] * 64
        undo_log: List[Tuple[int, int]] = []
        adapter.on_region_enter(region)

        reg_ready = [0] * len(regs)
        cycle = machine.checkpoint_cycles
        issue_width = machine.issue_width
        limits = [machine.slots_for(unit) for unit in _UNIT_ORDER]
        slots_used = [0, 0, 0, 0]
        issued_in_cycle = 0
        executed = 0

        mem_read = memory.read
        mem_store = memory.write_logged
        undo_append = undo_log.append
        on_mem_op = adapter.on_mem_op

        outcome_status: Optional[str] = None
        next_pc: Optional[int] = None
        exit_code: Optional[int] = None

        try:
            for kind, uses, dest, latency, unit_idx, aux in trace:
                # -- issue accounting (scoreboard + bundling) ----------
                earliest = cycle
                for reg in uses:
                    ready = reg_ready[reg]
                    if ready > earliest:
                        earliest = ready
                if earliest > cycle:
                    cycle = earliest
                    slots_used = [0, 0, 0, 0]
                    issued_in_cycle = 0
                while (
                    issued_in_cycle >= issue_width
                    or slots_used[unit_idx] >= limits[unit_idx]
                ):
                    cycle += 1
                    slots_used = [0, 0, 0, 0]
                    issued_in_cycle = 0
                slots_used[unit_idx] += 1
                issued_in_cycle += 1
                if dest is not None:
                    reg_ready[dest] = cycle + latency
                executed += 1

                # -- functional effect ---------------------------------
                if kind == _K_ALU:
                    aux(regs)
                elif kind == _K_LD:
                    base, disp, size, dreg, inst, call_adapter = aux
                    addr = regs[base] + disp
                    if call_adapter:
                        on_mem_op(inst, addr)
                    regs[dreg] = mem_read(addr, size)
                elif kind == _K_ST:
                    base, disp, size, sreg, inst, call_adapter = aux
                    addr = regs[base] + disp
                    if call_adapter:
                        on_mem_op(inst, addr)
                    mem_store(addr, regs[sreg], size, undo_append)
                elif kind == _K_CBR:
                    code, a, b, target = aux
                    av = regs[a]
                    bv = regs[b] if b is not None else 0
                    if code == 0:
                        taken = av == bv
                    elif code == 1:
                        taken = av != bv
                    elif code == 2:
                        taken = av < bv
                    else:
                        taken = av >= bv
                    if taken:
                        outcome_status = "side_exit"
                        next_pc = target
                        break
                elif kind == _K_BR:
                    outcome_status = "commit"
                    next_pc = aux
                    break
                elif kind == _K_EXIT:
                    outcome_status = "exit"
                    exit_code = aux
                    break
                elif kind == _K_ROTATE:
                    adapter.on_rotate(aux)
                elif kind == _K_AMOV:
                    adapter.on_amov(aux)
                # _K_NOP: issue accounting only
        except AliasException as exc:
            _restore_words(memory.words, undo_log)
            adapter.on_region_exit()
            cycles = cycle + machine.rollback_penalty
            stats.alias_aborts += 1
            if exc.false_positive:
                stats.false_positive_aborts += 1
            stats.total_cycles += cycles
            stats.instructions += executed
            return RegionOutcome(
                status="alias",
                cycles=cycles,
                alias_setter=exc.setter_mem_index,
                alias_checker=exc.checker_mem_index,
                false_positive=exc.false_positive,
                instructions_executed=executed,
            )

        if outcome_status is None:
            # Fell off the end of the region: continue at the instruction
            # after the last guest pc represented in the region.
            if fall_through is not None:
                next_pc = fall_through
            else:
                next_pc = region.block.entry_pc + 1
            outcome_status = "commit"

        cycles = cycle + 1
        stats.instructions += executed
        if outcome_status == "side_exit":
            _restore_words(memory.words, undo_log)
            adapter.on_region_exit()
            cycles += machine.rollback_penalty
            stats.side_exit_aborts += 1
            stats.total_cycles += cycles
            return RegionOutcome(
                status="side_exit",
                cycles=cycles,
                next_pc=next_pc,
                instructions_executed=executed,
            )

        # Commit: make (guest) register effects architectural.
        adapter.on_region_exit()
        registers[:] = regs[:guest_count]
        stats.commits += 1
        stats.total_cycles += cycles
        return RegionOutcome(
            status=outcome_status,
            cycles=cycles,
            next_pc=next_pc,
            exit_code=exit_code,
            instructions_executed=executed,
        )
