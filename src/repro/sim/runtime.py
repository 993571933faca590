"""Dynamic-optimization runtime (paper Figure 1's "runtime" box).

Owns the translation cache and the policy for responding to region
outcomes:

* **commit** — continue at the region's successor pc;
* **side exit** — the region aborted off-trace; interpret forward from the
  region entry until execution leaves the region (guaranteed progress);
* **alias exception** — roll back (done by the simulator), record the
  faulting pair as a must-alias hint, re-optimize the region
  conservatively, install the new translation, and interpret forward once
  before retrying (forward progress even if the new translation faults).
  The replaced translation is dropped with nothing to invalidate: its
  compiled trace and timing plan live on it, and its replay kernels stay
  in its translation-cache entry for the next run that translates the
  same key (:mod:`repro.opt.translation_cache`).

The runtime also charges translation/optimization overhead in simulated
cycles (Figure 18's accounting): ``opt_cycles_per_instruction`` per region
instruction per (re)optimization, of which the scheduling+allocation share
is recorded separately.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Set

from repro.frontend.interpreter import Interpreter
from repro.frontend.program import GuestProgram
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizedRegion
from repro.sim.memory import Memory
from repro.sim.schemes import Scheme
from repro.sim.vliw import RegionOutcome, VliwSimulator
from repro.hw.exceptions import AliasRegisterOverflow


@dataclass
class RuntimeConfig:
    #: simulated cycles charged per interpreted guest instruction
    interp_cycles_per_instruction: int = 20
    #: simulated cycles charged per region instruction per optimization.
    #: Real DBT translation costs thousands of cycles per instruction but
    #: amortizes over billions of executions; our runs are orders of
    #: magnitude shorter, so the charge is scaled down to keep the
    #: overhead *fraction* in a realistic range (see EXPERIMENTS.md on
    #: Figure 18).
    opt_cycles_per_instruction: int = 30
    #: fraction of optimization cycles attributed to scheduling+allocation
    scheduling_fraction: float = 0.5
    #: give up re-optimizing a region after this many alias faults and
    #: interpret it forever (keeps pathological regions from thrashing)
    max_reoptimizations_per_region: int = 60


@dataclass
class RuntimeStats:
    interp_instructions: int = 0
    interp_cycles: int = 0
    translated_cycles: int = 0
    optimization_cycles: int = 0
    scheduling_cycles: int = 0
    translations: int = 0
    reoptimizations: int = 0
    alias_exceptions: int = 0
    false_positive_exceptions: int = 0
    side_exits: int = 0
    region_commits: int = 0
    blacklisted_regions: int = 0

    @property
    def total_cycles(self) -> int:
        return (
            self.interp_cycles
            + self.translated_cycles
            + self.optimization_cycles
        )


@dataclass
class _RegionEntry:
    original: Superblock
    translation: OptimizedRegion
    faults: int = 0


class DynamicOptimizationRuntime:
    """Translation cache + exception policy for one guest program."""

    def __init__(
        self,
        program: GuestProgram,
        memory: Memory,
        scheme: Scheme,
        pipeline: OptimizationPipeline,
        simulator: VliwSimulator,
        config: Optional[RuntimeConfig] = None,
        tracer=None,
    ) -> None:
        from repro.engine.instrumentation import NULL_TRACER

        self.program = program
        self.memory = memory
        self.scheme = scheme
        self.pipeline = pipeline
        self.simulator = simulator
        self.config = config or RuntimeConfig()
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.stats = RuntimeStats()
        self._regions: Dict[int, _RegionEntry] = {}
        self._blacklist: Set[int] = set()
        self._adapter = scheme.make_adapter()

    # ------------------------------------------------------------------
    def has_translation(self, pc: int) -> bool:
        return pc in self._regions and pc not in self._blacklist

    def install(self, original: Superblock) -> None:
        """Optimize and cache a region formed at ``original.entry_pc``."""
        translation = self._optimize_charged(original)
        if translation is None:
            self._blacklist.add(original.entry_pc)
            self.stats.blacklisted_regions += 1
            return
        self._regions[original.entry_pc] = _RegionEntry(original, translation)
        self.stats.translations += 1
        self.tracer.count("runtime.translations")

    def _optimize_charged(self, original: Superblock) -> Optional[OptimizedRegion]:
        """Optimize, charging simulated optimization cycles; None on
        unrecoverable allocator overflow (region too big for the scheme)."""
        cycles = len(original) * self.config.opt_cycles_per_instruction
        self.stats.optimization_cycles += cycles
        self.stats.scheduling_cycles += int(
            cycles * self.config.scheduling_fraction
        )
        try:
            with self.tracer.phase("optimize"):
                return self.pipeline.optimize(original)
        except AliasRegisterOverflow:
            return None

    # ------------------------------------------------------------------
    def execute_translated_batch(self, pc: int, registers, steps_budget: int):
        """Run the cached translation at ``pc`` and apply runtime policy,
        batching back-edge iterations when the region self-loops (see
        :meth:`~repro.sim.vliw.VliwSimulator.execute_region_batch`); a
        ``steps_budget`` of 1 runs exactly one execution.

        Returns ``(outcome, loop_outcome, batched)``; the ``batched``
        full iterations are accounted here exactly as ``batched``
        scalar commits (``translated_cycles``, ``region_commits``), and
        the final ``outcome`` goes through the runtime policy —
        alias/side-exit attribution lands on precisely the execution
        that produced it.
        """
        entry = self._regions[pc]
        outcome, loop_out, batched = self.simulator.execute_region_batch(
            entry.translation, self._adapter, registers, steps_budget
        )
        if batched:
            self.stats.translated_cycles += loop_out.cycles * batched
            self.stats.region_commits += batched
        return self._apply_outcome(entry, outcome), loop_out, batched

    def _apply_outcome(
        self, entry: _RegionEntry, outcome: RegionOutcome
    ) -> RegionOutcome:
        self.stats.translated_cycles += outcome.cycles
        if outcome.status == "alias":
            self.stats.alias_exceptions += 1
            self.tracer.count("runtime.alias_exceptions")
            if outcome.false_positive:
                self.stats.false_positive_exceptions += 1
                self.tracer.count("runtime.false_positive_exceptions")
            self._handle_alias(entry, outcome)
        elif outcome.status == "side_exit":
            self.stats.side_exits += 1
        elif outcome.status in ("commit", "exit"):
            self.stats.region_commits += 1
        return outcome

    def _handle_alias(self, entry: _RegionEntry, outcome: RegionOutcome) -> None:
        entry.faults += 1
        pc = entry.original.entry_pc
        if entry.faults > self.config.max_reoptimizations_per_region:
            self._blacklist.add(pc)
            self.stats.blacklisted_regions += 1
            return
        # A (setter, checker) pair where the setter comes LATER in program
        # order was genuinely reordered; a program-ordered pair can only
        # fault on imprecise hardware and needs immediate escalation.
        reordered = (
            outcome.alias_setter is None
            or outcome.alias_checker is None
            or outcome.alias_setter > outcome.alias_checker
        )
        self.pipeline.record_alias(
            pc, outcome.alias_setter, outcome.alias_checker, reordered=reordered
        )
        self.stats.reoptimizations += 1
        self.tracer.count("runtime.reoptimizations")
        translation = self._optimize_charged(entry.original)
        if translation is None:
            self._blacklist.add(pc)
            self.stats.blacklisted_regions += 1
            return
        entry.translation = translation

    # ------------------------------------------------------------------
    def interpret_through_region(
        self, interpreter: Interpreter, stop_pcs: Set[int], max_steps: int = 100_000
    ) -> Optional[int]:
        """Interpret until a translated entry pc (or exit, or the step
        stride runs out), charging interpretation cycles; used after
        aborts for forward progress."""
        from repro.frontend.interpreter import InterpreterLimit

        before = interpreter.stats.instructions
        try:
            stop = interpreter.run_until(stop_pcs, max_steps=max_steps)
        except InterpreterLimit:
            stop = None  # stride exhausted: caller re-enters the main loop
        executed = interpreter.stats.instructions - before
        self.stats.interp_instructions += executed
        self.stats.interp_cycles += (
            executed * self.config.interp_cycles_per_instruction
        )
        return stop
