"""End-to-end dynamic binary translation system.

Drives the full loop the paper's Figure 1 sketches: the guest program runs
interpreted with profiling; hot block heads trigger superblock formation
and optimization; translated regions execute on the VLIW simulator with
alias hardware; aborts fall back to interpretation; alias exceptions
trigger conservative re-optimization.

:class:`DbtSystem` is the top-level object benchmarks and examples use:

    system = DbtSystem(program, scheme_name="smarq")
    report = system.run()
    print(report.total_cycles)

Shared warm-up. Nothing scheme-specific runs before a program's first
``runtime.install``: until then the guest is interpreted under the
hotness profiler, and the regions formed along the way have no memory
operations to translate. A process-wide LRU memo (``_PREFIXES``, at most
``_PREFIX_ENTRIES`` snapshots) keeps that front-end state — guest memory
and registers, interpreter pc and counters, profile counts, the formed
heads, the alias profile, the runtime's interp counters — keyed by an
exact digest of every input it depends on (:meth:`DbtSystem._prefix_digest`).
The first run of a program records the snapshot just before its first
install; every later run with the same key restores it in place and
resumes at the ``_form_if_hot`` that installs the first region, so a
sweep of schemes over one program interprets its warm-up once. Tracer
counters ``dbt.prefix_hits`` / ``dbt.prefix_misses``;
:func:`reset_prefix_memo` empties the memo (tests).
"""

from __future__ import annotations

import dataclasses
import gc
import hashlib
import pickle
from collections import OrderedDict
from dataclasses import dataclass, field
from typing import Dict, FrozenSet, List, Optional, Set, Tuple

from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import HotnessProfiler, ProfilerConfig
from repro.frontend.program import GuestProgram
from repro.frontend.region import RegionFormationConfig, RegionFormer
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline
from repro.sched.machine import MachineModel
from repro.sim.memory import Memory
from repro.sim.runtime import DynamicOptimizationRuntime, RuntimeConfig
from repro.sim.schemes import Scheme, make_scheme
from repro.sim.vliw import VliwSimulator

#: bumped whenever the DbtReport dict layout changes; persisted by the
#: engine's report cache and checked on load
REPORT_SCHEMA_VERSION = 1


@dataclass
class DbtReport:
    """Summary of one guest-program run under one scheme."""

    scheme: str
    program: str
    guest_instructions: int
    total_cycles: int
    interp_cycles: int
    translated_cycles: int
    optimization_cycles: int
    scheduling_cycles: int
    translations: int
    reoptimizations: int
    alias_exceptions: int
    false_positive_exceptions: int
    side_exits: int
    region_commits: int
    exit_code: Optional[int]
    #: per-region allocation statistics (entry pc -> stats snapshot)
    region_stats: Dict[int, "RegionSnapshot"] = field(default_factory=dict)

    @property
    def optimization_fraction(self) -> float:
        """Share of execution spent optimizing (Figure 18's left bar)."""
        if self.total_cycles == 0:
            return 0.0
        return self.optimization_cycles / self.total_cycles

    @property
    def scheduling_fraction(self) -> float:
        if self.total_cycles == 0:
            return 0.0
        return self.scheduling_cycles / self.total_cycles

    def to_dict(self) -> dict:
        """Plain-dict form for JSON export / external tooling."""
        return {
            "schema_version": REPORT_SCHEMA_VERSION,
            "scheme": self.scheme,
            "program": self.program,
            "guest_instructions": self.guest_instructions,
            "total_cycles": self.total_cycles,
            "interp_cycles": self.interp_cycles,
            "translated_cycles": self.translated_cycles,
            "optimization_cycles": self.optimization_cycles,
            "scheduling_cycles": self.scheduling_cycles,
            "translations": self.translations,
            "reoptimizations": self.reoptimizations,
            "alias_exceptions": self.alias_exceptions,
            "false_positive_exceptions": self.false_positive_exceptions,
            "side_exits": self.side_exits,
            "region_commits": self.region_commits,
            "exit_code": self.exit_code,
            "regions": {
                pc: vars(snapshot)
                for pc, snapshot in self.region_stats.items()
            },
        }

    @classmethod
    def from_dict(cls, data: dict) -> "DbtReport":
        """Inverse of :meth:`to_dict`; raises ValueError on a schema or
        shape mismatch so callers (the report cache) can treat damaged
        payloads as misses."""
        version = data.get("schema_version")
        if version != REPORT_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported DbtReport schema {version!r} "
                f"(expected {REPORT_SCHEMA_VERSION})"
            )
        try:
            region_stats = {
                int(pc): RegionSnapshot(**snapshot)
                for pc, snapshot in data["regions"].items()
            }
            return cls(
                scheme=data["scheme"],
                program=data["program"],
                guest_instructions=data["guest_instructions"],
                total_cycles=data["total_cycles"],
                interp_cycles=data["interp_cycles"],
                translated_cycles=data["translated_cycles"],
                optimization_cycles=data["optimization_cycles"],
                scheduling_cycles=data["scheduling_cycles"],
                translations=data["translations"],
                reoptimizations=data["reoptimizations"],
                alias_exceptions=data["alias_exceptions"],
                false_positive_exceptions=data["false_positive_exceptions"],
                side_exits=data["side_exits"],
                region_commits=data["region_commits"],
                exit_code=data["exit_code"],
                region_stats=region_stats,
            )
        except (KeyError, TypeError) as exc:
            raise ValueError(f"malformed DbtReport payload: {exc}") from exc


@dataclass
class RegionSnapshot:
    """Per-region facts for the working-set / constraint figures."""

    entry_pc: int
    instructions: int
    memory_ops: int
    p_bit_ops: int
    c_bit_ops: int
    check_constraints: int
    anti_constraints: int
    amovs: int
    working_set: int
    registers_allocated: int
    loads_eliminated: int
    stores_eliminated: int
    #: live-range lower bound on any allocation's working set (Figure 17)
    working_set_lower_bound: int = 0


@dataclass(frozen=True)
class _Prefix:
    """Front-end state of a run just before its first ``runtime.install``.

    Before that install every loop turn interprets exactly one guest
    instruction and spends one step, so the prefix's step count is
    ``interp_stats["instructions"]``. ``formed`` excludes the head being
    installed: a restored run re-forms that region itself."""

    #: the memory's words (:attr:`repro.sim.memory.Memory.words`)
    memory: Tuple[int, ...]
    registers: Tuple[int, ...]
    pc: int
    interp_stats: Dict[str, int]
    block_counts: Dict[int, int]
    edge_counts: Dict[Tuple[int, int], int]
    last_pc: Optional[int]
    formed: FrozenSet[int]
    #: (window, alias_events, executions) when alias profiling is on
    alias_profile: Optional[tuple]
    runtime_stats: Dict[str, int]


#: the process-wide prefix memo, an LRU of at most ``_PREFIX_ENTRIES``
#: snapshots. Like the translation cache, it assumes one simulating
#: thread per process (the serve daemon has a single dispatcher).
_PREFIX_ENTRIES = 32
_PREFIXES: "OrderedDict[bytes, _Prefix]" = OrderedDict()


def reset_prefix_memo() -> None:
    """Drop every recorded warm-up snapshot (tests)."""
    _PREFIXES.clear()


class DbtSystem:
    """One guest program, one scheme, one run."""

    def __init__(
        self,
        program: GuestProgram,
        scheme_name="smarq",
        machine: Optional[MachineModel] = None,
        runtime_config: Optional[RuntimeConfig] = None,
        profiler_config: Optional[ProfilerConfig] = None,
        region_config: Optional[RegionFormationConfig] = None,
        memory_slack: int = 4096,
        alias_profiling: bool = False,
        tracer=None,
    ) -> None:
        """``scheme_name`` is a scheme name string or a prebuilt
        :class:`~repro.sim.schemes.Scheme` (for library callers; jobs name one).
        ``alias_profiling`` observes runtime addresses during
        interpretation and pre-pins frequently-aliasing pairs, trading
        profiling work for fewer first-translation rollbacks.
        ``tracer`` is an optional
        :class:`~repro.engine.instrumentation.Tracer` collecting event
        counters and per-phase wall time across the whole stack."""
        from repro.engine.instrumentation import NULL_TRACER

        self.program = program
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if isinstance(scheme_name, Scheme):
            self.scheme = scheme_name
        else:
            self.scheme = make_scheme(scheme_name, machine)
        self.memory = Memory(program.memory_size() + memory_slack)
        self.pipeline = OptimizationPipeline(
            self.scheme.machine,
            self.scheme.optimizer_config,
            region_map=program.region_map,
            register_regions=program.register_regions,
            tracer=self.tracer,
        )
        self.simulator = VliwSimulator(
            self.scheme.machine, self.memory, tracer=self.tracer
        )
        self.runtime = DynamicOptimizationRuntime(
            program,
            self.memory,
            self.scheme,
            self.pipeline,
            self.simulator,
            runtime_config,
            tracer=self.tracer,
        )
        self.profiler = HotnessProfiler(program, profiler_config)
        self.region_former = RegionFormer(program, self.profiler, region_config)
        self.interpreter = Interpreter(program, self.memory)
        self.interpreter.trace_hook = self.profiler.observe
        self.alias_profiler = None
        if alias_profiling:
            from repro.frontend.alias_profiler import AliasProfiler

            self.alias_profiler = AliasProfiler()
            self.interpreter.mem_hook = self.alias_profiler.observe
        self._heads: FrozenSet[int] = program.block_heads()
        self._formed: Set[int] = set()
        #: prefix-memo key a missed run records under at its first
        #: install (None otherwise, and once recorded)
        self._prefix_key: Optional[bytes] = None

    # ------------------------------------------------------------------
    def run(self, max_guest_steps: int = 5_000_000) -> DbtReport:
        """Execute the guest program to completion under the DBT loop.

        A run allocates no reference cycles: reference counting frees
        everything it drops, and perf contract 12 checks that under
        ``gc.DEBUG_SAVEALL``. So the run pauses automatic cyclic
        collection, whose scans would find nothing to free, and restores
        the collector's prior state on the way out, also when it raises.
        The pause is process-wide: garbage other threads make waits for
        the end of the run.
        """
        resume = gc.isenabled()
        gc.disable()
        try:
            with self.tracer.phase("run"):
                report = self._run(max_guest_steps)
        finally:
            if resume:
                gc.enable()
        self.tracer.count("dbt.runs")
        return report

    def _run(self, max_guest_steps: int) -> DbtReport:
        interp = self.interpreter
        runtime = self.runtime
        steps_budget = max_guest_steps
        exit_code: Optional[int] = None

        if interp.stats.instructions == 0:  # a fresh system
            key = self._prefix_digest(max_guest_steps)
            prefix = _PREFIXES.get(key)
            if prefix is None:
                self.tracer.count("dbt.prefix_misses")
                self._prefix_key = key
            else:
                _PREFIXES.move_to_end(key)
                self.tracer.count("dbt.prefix_hits")
                self._restore_prefix(prefix)
                steps_budget -= interp.stats.instructions
                self._form_if_hot(interp.pc)

        while not interp.exited and steps_budget > 0:
            pc = interp.pc
            if runtime.has_translation(pc):
                # Batched dispatch: a self-looping region may commit up
                # to vliw._BATCH_WIDTH (256) back-edge iterations inside
                # one call (each accounted exactly like a scalar commit —
                # the budget math below is the scalar loop's, applied
                # ``batched`` extra times), then returns the final
                # execution's outcome for normal policy handling.
                outcome, loop_out, batched = runtime.execute_translated_batch(
                    pc, interp.registers, steps_budget
                )
                if batched:
                    steps_budget -= batched * max(
                        1, loop_out.instructions_executed
                    )
                if outcome.status == "exit":
                    interp.exited = True
                    exit_code = outcome.exit_code
                    break
                if outcome.status == "commit":
                    interp.pc = outcome.next_pc
                    steps_budget -= max(1, outcome.instructions_executed)
                    continue
                # side_exit or alias: state was rolled back to region entry;
                # interpret forward to guarantee progress. The stride is
                # bounded so newly-hot loops (later phases) still reach the
                # region-formation logic below.
                stop = runtime.interpret_through_region(
                    interp,
                    stop_pcs=self._translated_pcs(exclude=None),
                    max_steps=512,
                )
                steps_budget -= 1
                if interp.exited:
                    exit_code = interp.exit_code
                self._form_if_hot(interp.pc)
                continue

            # Interpretation (slow path).
            before = interp.stats.instructions
            interp.step()
            executed = interp.stats.instructions - before
            runtime.stats.interp_instructions += executed
            runtime.stats.interp_cycles += (
                executed * runtime.config.interp_cycles_per_instruction
            )
            steps_budget -= 1
            if interp.exited:
                exit_code = interp.exit_code
                break

            self._form_if_hot(interp.pc)

        return self._report(exit_code)

    def _form_if_hot(self, pc: int) -> None:
        """Form and install a region when ``pc`` is a hot, unformed head."""
        if (
            pc in self._heads
            and pc not in self._formed
            and self.profiler.is_hot(pc)
        ):
            region = self.region_former.form(pc)
            installs = bool(region.memory_ops())
            if installs and self._prefix_key is not None:
                self._record_prefix()
            self._formed.add(pc)
            if installs:
                if self.alias_profiler is not None:
                    self.pipeline.seed_hints(
                        pc, self.alias_profiler.hints_for_region(region)
                    )
                self.runtime.install(region)

    # ------------------------------------------------------------------
    def _prefix_digest(self, max_guest_steps: int) -> bytes:
        """Exact digest of every input the pre-install front end reads.

        The program's part (its instructions' front-end fields, entry pc
        and data layout) is hashed once per program
        (:meth:`GuestProgram.front_end_digest`) and folded in here with
        the run's other inputs. The scheme is absent on purpose: nothing
        scheme-specific runs before the first install. Config dataclasses
        are keyed whole, so a new field can only split the memo, never
        alias two runs. A pickle decodes to its content, so equal digests
        mean equal inputs (pickle's sharing of equal objects can at worst
        split the memo)."""
        parts = (
            self.program.front_end_digest(),
            tuple(self.interpreter.registers),
            self.memory.size,
            dataclasses.astuple(self.profiler.config),
            dataclasses.astuple(self.region_former.config),
            self.runtime.config.interp_cycles_per_instruction,
            self.alias_profiler is not None,
            max_guest_steps,
        )
        blob = pickle.dumps(parts, protocol=pickle.HIGHEST_PROTOCOL)
        return hashlib.sha256(blob).digest()

    def _record_prefix(self) -> None:
        """Snapshot this run's warm-up under ``_prefix_key``; called just
        before its first install."""
        interp = self.interpreter
        profiler = self.profiler
        alias_profile = None
        if self.alias_profiler is not None:
            ap = self.alias_profiler
            alias_profile = (
                tuple(ap._window), dict(ap.alias_events), dict(ap.executions)
            )
        _PREFIXES[self._prefix_key] = _Prefix(
            memory=tuple(self.memory.words),
            registers=tuple(interp.registers),
            pc=interp.pc,
            interp_stats=dict(vars(interp.stats)),
            block_counts=dict(profiler.block_counts),
            edge_counts=dict(profiler.edge_counts),
            last_pc=profiler._last_pc,
            formed=frozenset(self._formed),
            alias_profile=alias_profile,
            runtime_stats=dict(vars(self.runtime.stats)),
        )
        self._prefix_key = None
        while len(_PREFIXES) > _PREFIX_ENTRIES:
            _PREFIXES.popitem(last=False)

    def _restore_prefix(self, prefix: _Prefix) -> None:
        """Load a recorded warm-up into this fresh system. Memory,
        registers and interpreter counters are written in place: the
        simulator and the interpreter's handler closures hold those
        objects."""
        interp = self.interpreter
        self.memory.words[:] = prefix.memory
        interp.registers[:] = prefix.registers
        interp.pc = prefix.pc
        vars(interp.stats).update(prefix.interp_stats)
        profiler = self.profiler
        profiler.block_counts = dict(prefix.block_counts)
        profiler.edge_counts = dict(prefix.edge_counts)
        profiler._last_pc = prefix.last_pc
        self._formed = set(prefix.formed)
        if prefix.alias_profile is not None:
            window, events, executions = prefix.alias_profile
            self.alias_profiler._window.extend(window)
            self.alias_profiler.alias_events = dict(events)
            self.alias_profiler.executions = dict(executions)
        vars(self.runtime.stats).update(prefix.runtime_stats)

    def _translated_pcs(self, exclude: Optional[int]) -> Set[int]:
        pcs = {
            pc
            for pc in self.runtime._regions
            if self.runtime.has_translation(pc)
        }
        if exclude is not None:
            pcs.discard(exclude)
        return pcs

    # ------------------------------------------------------------------
    def _report(self, exit_code: Optional[int]) -> DbtReport:
        stats = self.runtime.stats
        region_stats: Dict[int, RegionSnapshot] = {}
        for pc, entry in self.runtime._regions.items():
            translation = entry.translation
            alloc = translation.allocation
            lower_bound = 0
            if alloc is not None and alloc.check_pairs is not None:
                from repro.analysis.constraints import CheckConstraint
                from repro.analysis.liveness import working_set_lower_bound

                positions = translation.schedule.position()
                checks = [
                    CheckConstraint(checker, target)
                    for checker, target in alloc.check_pairs
                    if checker.uid in positions and target.uid in positions
                ]
                lower_bound = working_set_lower_bound(checks, positions)
            region_stats[pc] = RegionSnapshot(
                entry_pc=pc,
                instructions=len(entry.original),
                memory_ops=len(entry.original.memory_ops()),
                p_bit_ops=alloc.stats.p_bit_ops if alloc else 0,
                c_bit_ops=alloc.stats.c_bit_ops if alloc else 0,
                check_constraints=alloc.stats.check_constraints if alloc else 0,
                anti_constraints=alloc.stats.anti_constraints if alloc else 0,
                amovs=alloc.stats.amovs_inserted if alloc else 0,
                working_set=alloc.stats.working_set if alloc else 0,
                registers_allocated=(
                    alloc.stats.registers_allocated if alloc else 0
                ),
                loads_eliminated=translation.load_elim.eliminated,
                stores_eliminated=translation.store_elim.eliminated,
                working_set_lower_bound=lower_bound,
            )
        return DbtReport(
            scheme=self.scheme.name,
            program=self.program.name,
            guest_instructions=self.interpreter.stats.instructions,
            total_cycles=stats.total_cycles,
            interp_cycles=stats.interp_cycles,
            translated_cycles=stats.translated_cycles,
            optimization_cycles=stats.optimization_cycles,
            scheduling_cycles=stats.scheduling_cycles,
            translations=stats.translations,
            reoptimizations=stats.reoptimizations,
            alias_exceptions=stats.alias_exceptions,
            false_positive_exceptions=stats.false_positive_exceptions,
            side_exits=stats.side_exits,
            region_commits=stats.region_commits,
            exit_code=exit_code,
            region_stats=region_stats,
        )


def run_program(
    program: GuestProgram, scheme_name: str = "smarq", **kwargs
) -> DbtReport:
    """Convenience one-shot: build a :class:`DbtSystem` and run it."""
    return DbtSystem(program, scheme_name=scheme_name, **kwargs).run()
