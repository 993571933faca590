"""Differential oracles: pairs of independent implementations that must agree.

Each oracle takes one generated :class:`~repro.fuzz.generator.FuzzCase`
and returns a list of :class:`Disagreement` records (empty = the
implementations agreed). The configured pairs:

``alloc``
    The three allocation paths (integrated :class:`SmarqAllocator`,
    standalone ``fast_allocate``, :class:`PlainOrderAllocator`) certified
    by the :mod:`repro.smarq.validator` hardware replay — with boundary
    probes pinning the overlap predicate — plus the incremental-vs-post-hoc
    constraint derivation and the Figure 17 working-set ordering.
``queue``
    The production :class:`AliasRegisterQueue` run in lockstep against the
    brute-force :class:`~repro.fuzz.reference.ReferenceQueue` over the
    allocated stream under several adversarial (collision-heavy,
    boundary-biased) address assignments.
``schemes``
    Final architectural state (registers + memory bytes) of the full DBT
    system under every alias-detection scheme vs pure interpretation.
``knobs``
    ``DbtReport`` under every leg of the output-neutral knobs in
    :mod:`repro.knobs` (timing plans off, translation cache off, each
    forced replay tier) vs the default run, for every scheme in
    :data:`KNOB_SCHEMES` (must be byte-identical). Each leg starts from
    an empty warm-up memo (:func:`repro.sim.dbt.reset_prefix_memo`), so
    it interprets the program's warm-up from scratch while the default
    run restores it.
``engine``
    Parallel process-pool execution vs serial in-process execution of the
    same case (reports must be identical; exercised per-case here and in a
    batched end-of-run sweep by the runner).
``serve``
    The case submitted through a live ``repro serve`` daemon (a shared
    in-process server, started lazily on first use) vs serial in-process
    execution — the full wire round trip: spec encode, socket framing,
    dispatch, report decode (reports must be byte-identical).
``certify``
    The static alias certifier vs its independent proof checker vs the
    running system: every certificate the (possibly mutant) prover
    emits must survive the clean checker, synthetic runtime alias
    hints must force refusal, the hardware replay must perform *no*
    check on a certified pair, and ``smarq-cert``'s architectural
    state must match both the ``SMARQ_NO_CERTIFY=1`` run and pure
    interpretation.

The oracles deliberately re-run the sub-implementations from scratch per
leg; a :class:`CaseRun` memo keeps the shared expensive pieces (the
integrated allocation, per-scheme DBT runs) computed once per case.
"""

from __future__ import annotations

import random
from contextlib import nullcontext
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from repro import knobs
from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.certify import certify_region, check_certificate
from repro.analysis.constraints import ConstraintCycleError, derive_constraints
from repro.analysis.dependence import DependenceSet, compute_dependences
from repro.analysis.liveness import working_set_lower_bound
from repro.analysis.constraints import CheckConstraint
from repro.engine.instrumentation import Tracer
from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.fuzz.generator import FuzzCase
from repro.fuzz.reference import ReferenceQueue
from repro.hw.exceptions import AliasException
from repro.hw.queue_model import AliasRegisterQueue
from repro.ir.instruction import Instruction, Opcode
from repro.ir.superblock import Superblock
from repro.sched.ddg import DataDependenceGraph
from repro.sched.list_scheduler import ListScheduler, SchedulerConfig
from repro.sched.machine import MachineModel
from repro.sim.dbt import DbtSystem, reset_prefix_memo
from repro.sim.memory import Memory
from repro.smarq.allocator import SmarqAllocator
from repro.smarq.fast_alloc import fast_allocate
from repro.smarq.plain_order_alloc import PlainOrderAllocator
from repro.smarq.validator import (
    ValidationError,
    semantic_pairs_from_allocator,
    validate_allocation,
)

#: schemes whose final architectural state must equal pure interpretation
STATE_SCHEMES = ("smarq", "smarq16", "itanium", "efficeon", "none", "smarq-cert")
#: schemes run once per neutral knob leg (every hardware family and
#: allocator: each flows through the seams those knobs switch)
KNOB_SCHEMES = ("smarq", "smarq16", "itanium", "none", "efficeon", "plainorder")

#: address assignments tried per case by the queue lockstep oracle
QUEUE_ASSIGNMENTS = 4

_MAX_GUEST_STEPS = 5_000_000


@dataclass
class Disagreement:
    """One observed divergence between two implementations."""

    oracle: str
    detail: str

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.oracle}] {self.detail}"


# ----------------------------------------------------------------------
# Per-case shared state
# ----------------------------------------------------------------------
@dataclass
class CaseRun:
    """Lazily-computed shared artifacts for one case.

    ``queue_factory`` is the hardware implementation under test — the
    real :class:`AliasRegisterQueue` in normal operation, a deliberately
    broken mutant in the mutation smoke test.
    """

    case: FuzzCase
    queue_factory: Callable[[int], object] = AliasRegisterQueue
    #: alias prover under test — None for the sound default, a mutant
    #: in the certify mutation tests (static oracle legs only)
    prover: Optional[object] = None
    _allocated: Optional[tuple] = None
    _reference_state: Optional[tuple] = None
    #: (scheme,) or (scheme, knob, value) -> (state, report dict)
    _runs: Dict[Tuple[str, ...], tuple] = field(default_factory=dict)
    #: region executions that ran a batch or vec replay kernel, over
    #: every whole-program run so far (the campaign's kernel coverage)
    kernel_runs: int = 0

    # -- superblock-level allocation -----------------------------------
    def build_inputs(self):
        case = self.case
        block = Superblock(instructions=case.body())
        analysis = AliasAnalysis(
            block,
            region_map=case.known_region_map(),
            initial_regions=case.known_initial_regions(),
        )
        machine = MachineModel().with_alias_registers(
            case.config.alias_registers
        )
        deps = DependenceSet(compute_dependences(block, analysis))
        return block, analysis, machine, deps

    def allocated(self):
        """Integrated allocation of the case body (memoized)."""
        if self._allocated is None:
            block, analysis, machine, deps = self.build_inputs()
            allocator = SmarqAllocator(
                machine, deps, list(block.instructions)
            )
            ddg = DataDependenceGraph(
                block, machine, memory_dependences=list(deps)
            )
            result = ListScheduler(
                machine, SchedulerConfig(), allocator
            ).schedule(ddg, alias_analysis=analysis)
            self._allocated = (allocator, result, deps, machine)
        return self._allocated

    # -- whole-program runs --------------------------------------------
    def reference_state(self):
        """Architectural state after pure interpretation."""
        if self._reference_state is None:
            program = self.case.program()
            memory = Memory(program.memory_size() + 4096)
            interp = Interpreter(program, memory)
            interp.run(max_steps=_MAX_GUEST_STEPS)
            self._reference_state = (
                list(interp.registers), memory.to_bytes()
            )
        return self._reference_state

    def scheme_state(self, scheme: str, *leg: str) -> tuple:
        """(registers, memory bytes) after a full DBT run under scheme,
        with knob ``leg[0]`` set to ``leg[1]`` (no leg: every knob at
        its default)."""
        return self._run_dbt(scheme, leg)[0]

    def knob_report(self, scheme: str, *leg: str) -> dict:
        """DbtReport dict of the same run."""
        return self._run_dbt(scheme, leg)[1]

    def _run_dbt(self, scheme: str, leg: Tuple[str, ...]) -> tuple:
        key = (scheme,) + leg
        if key not in self._runs:
            program = self.case.program()
            profiler = ProfilerConfig(
                hot_threshold=self.case.config.hot_threshold
            )
            # Knobs are read per translation or per simulator, so the
            # override must cover the whole run.
            with knobs.overridden(*leg) if leg else nullcontext():
                if leg in knobs.legs():
                    # A neutral leg interprets the warm-up too: the
                    # default runs restore it from the process-wide memo.
                    reset_prefix_memo()
                tracer = Tracer()
                system = DbtSystem(
                    program, scheme, profiler_config=profiler, tracer=tracer
                )
                report = system.run(max_guest_steps=_MAX_GUEST_STEPS)
            counters = tracer.counters
            self.kernel_runs += counters.get(
                "vliw.backend_batch", 0
            ) + counters.get("vliw.backend_vec", 0)
            state = (
                list(system.interpreter.registers),
                system.memory.to_bytes(),
            )
            self._runs[key] = (state, report.to_dict())
        return self._runs[key]


# ----------------------------------------------------------------------
# alloc: three allocators, one replay oracle
# ----------------------------------------------------------------------
def alloc_oracle(run: CaseRun) -> List[Disagreement]:
    out: List[Disagreement] = []
    case = run.case
    registers = case.config.alias_registers

    # Leg 1: integrated allocator, certified with boundary probes under
    # the configured (possibly tiny) physical register file.
    allocator, result, deps, machine = run.allocated()
    checks, antis = semantic_pairs_from_allocator(allocator)
    try:
        validate_allocation(
            result.linear, checks, antis, registers,
            queue_factory=run.queue_factory, probe_boundaries=True,
        )
    except ValidationError as exc:
        out.append(Disagreement("alloc", f"integrated allocator: {exc}"))

    # Leg 2: incremental constraints == post-hoc Section 4 derivation.
    positions = {inst.uid: i for i, inst in enumerate(result.linear)}
    derived = derive_constraints(deps, positions)
    incremental = {(c.uid, t.uid) for c, t in checks}
    posthoc = {(c.checker.uid, c.target.uid) for c in derived.checks}
    if incremental != posthoc:
        out.append(
            Disagreement(
                "alloc",
                "incremental vs post-hoc check constraints differ: "
                f"only-incremental={sorted(incremental - posthoc)} "
                f"only-posthoc={sorted(posthoc - incremental)}",
            )
        )

    # Leg 3: standalone fast allocation over an unhooked speculative
    # schedule (cyclic graphs are documented to raise; skip those).
    block, analysis, machine2, deps2 = run.build_inputs()
    ddg = DataDependenceGraph(
        block, machine2, memory_dependences=list(deps2)
    )
    plain = ListScheduler(machine2, SchedulerConfig()).schedule(
        ddg, alias_analysis=analysis
    )
    plain_positions = {i.uid: n for n, i in enumerate(plain.linear)}
    constraints = derive_constraints(deps2, plain_positions)
    try:
        alloc = fast_allocate(list(plain.linear), constraints)
    except ConstraintCycleError:
        alloc = None
    if alloc is not None:
        try:
            # The fast path has no pressure machinery; certify detection
            # semantics with a register file sized to its working set.
            validate_allocation(
                alloc.linear,
                [(c.checker, c.target) for c in constraints.checks],
                [(a.protected, a.checker) for a in constraints.antis],
                max(64, alloc.working_set),
                queue_factory=run.queue_factory, probe_boundaries=True,
            )
        except ValidationError as exc:
            out.append(Disagreement("alloc", f"fast_allocate: {exc}"))

    # Leg 4: plain-order baseline (when the body fits) + Figure 17
    # working-set ordering plain >= smarq >= liveness bound.
    block3, analysis3, machine3, deps3 = run.build_inputs()
    hook = PlainOrderAllocator(machine3, deps3, list(block3.instructions))
    if hook.fits:
        ddg3 = DataDependenceGraph(
            block3, machine3, memory_dependences=list(deps3)
        )
        plain3 = ListScheduler(
            machine3, SchedulerConfig(), hook
        ).schedule(ddg3, alias_analysis=analysis3)
        pos3 = {i.uid: n for n, i in enumerate(plain3.linear)}
        cons3 = derive_constraints(deps3, pos3)
        try:
            validate_allocation(
                plain3.linear,
                [(c.checker, c.target) for c in cons3.checks],
                [(a.protected, a.checker) for a in cons3.antis],
                registers,
                queue_factory=run.queue_factory, probe_boundaries=True,
            )
        except ValidationError as exc:
            out.append(Disagreement("alloc", f"plain-order: {exc}"))

        sched_positions = result.position()
        live_checks = [
            CheckConstraint(allocator._inst[c], allocator._inst[t])
            for c, t in allocator._check_pairs
            if allocator._inst[c].uid in sched_positions
            and allocator._inst[t].uid in sched_positions
        ]
        bound = working_set_lower_bound(live_checks, sched_positions)
        smarq_ws = allocator.stats.working_set
        plain_ws = hook.stats.working_set
        if not (bound <= smarq_ws <= plain_ws):
            out.append(
                Disagreement(
                    "alloc",
                    f"working-set ordering violated: liveness bound "
                    f"{bound}, smarq {smarq_ws}, plain-order {plain_ws}",
                )
            )
    return out


# ----------------------------------------------------------------------
# queue: production queue vs brute-force reference, in lockstep
# ----------------------------------------------------------------------
def _adversarial_addresses(
    linear: Sequence[Instruction], rng: random.Random
) -> Dict[int, int]:
    """Collision-heavy, boundary-biased uid -> address assignment.

    Memory ops land in a small pool of 0x40-spaced cells (so exact
    collisions are frequent) with jitter biased toward equal, exactly
    adjacent, and one-byte-overlapping ranges.
    """
    mem_uids = [i.uid for i in linear if i.is_mem]
    cells = max(2, len(mem_uids) // 2)
    addresses: Dict[int, int] = {}
    for uid in mem_uids:
        cell = rng.randrange(cells)
        jitter = rng.choice((0, 0, 1, 7, 8, 9))
        addresses[uid] = 0x40000 + cell * 0x40 + jitter
    return addresses


def _lockstep_step(queue, inst: Instruction, addresses) -> Optional[bool]:
    """Apply one annotated instruction; True if it raised AliasException,
    None if the instruction does not touch the queue."""
    if inst.opcode is Opcode.ROTATE:
        queue.rotate(inst.rotate_by)
        return False
    if inst.opcode is Opcode.AMOV:
        queue.amov(inst.amov_src, inst.amov_dst)
        return False
    if not inst.is_mem or not (inst.p_bit or inst.c_bit):
        return None
    start = addresses[inst.uid]
    try:
        if inst.p_bit and inst.c_bit:
            queue.check_then_set_range(
                inst.ar_offset, start, inst.size, inst.is_load,
                inst.mem_index,
            )
        elif inst.p_bit:
            queue.set_range(
                inst.ar_offset, start, inst.size, inst.is_load,
                inst.mem_index,
            )
        else:
            queue.check_range(
                inst.ar_offset, start, inst.size, inst.is_load,
                inst.mem_index,
            )
    except AliasException:
        return True
    return False


def queue_oracle(run: CaseRun) -> List[Disagreement]:
    out: List[Disagreement] = []
    _allocator, result, _deps, machine = run.allocated()
    linear = result.linear
    registers = machine.alias_registers
    rng = random.Random(run.case.config.seed ^ 0xA11A5)

    for trial in range(QUEUE_ASSIGNMENTS):
        addresses = _adversarial_addresses(linear, rng)
        impl = run.queue_factory(registers)
        ref = ReferenceQueue(registers)
        for step, inst in enumerate(linear):
            impl_raised = _lockstep_step(impl, inst, addresses)
            ref_raised = _lockstep_step(ref, inst, addresses)
            if impl_raised is None:
                continue
            if impl_raised != ref_raised:
                what = "detected an alias" if impl_raised else "missed an alias"
                out.append(
                    Disagreement(
                        "queue",
                        f"trial {trial} step {step}: hardware queue {what} "
                        f"the reference disagrees on at {inst!r} "
                        f"(addr {addresses.get(inst.uid):#x})",
                    )
                )
                break
            if impl_raised:
                # Agreed detection aborts the region; stop this trial.
                break
            base = impl.base
            if base != ref.base or impl.live_orders() != ref.live_orders():
                out.append(
                    Disagreement(
                        "queue",
                        f"trial {trial} step {step}: live state diverged "
                        f"(impl base {base} orders {impl.live_orders()}; "
                        f"ref base {ref.base} orders {ref.live_orders()})",
                    )
                )
                break
        if out:
            break
    return out


# ----------------------------------------------------------------------
# schemes / knobs / engine / serve
# ----------------------------------------------------------------------
def _differing(expected: dict, got: dict) -> List[str]:
    """Sorted names of the report fields where ``got`` differs."""
    return sorted(k for k in expected if expected.get(k) != got.get(k))


def schemes_oracle(run: CaseRun) -> List[Disagreement]:
    out: List[Disagreement] = []
    ref_regs, ref_mem = run.reference_state()
    for scheme in STATE_SCHEMES:
        got_regs, got_mem = run.scheme_state(scheme)
        if got_regs != ref_regs:
            diffs = [
                r for r, (a, b) in enumerate(zip(ref_regs, got_regs))
                if a != b
            ]
            out.append(
                Disagreement(
                    "schemes",
                    f"{scheme}: final registers diverge from interpreter "
                    f"at {diffs[:8]}",
                )
            )
        elif got_mem != ref_mem:
            first = next(
                i for i, (a, b) in enumerate(zip(ref_mem, got_mem))
                if a != b
            )
            out.append(
                Disagreement(
                    "schemes",
                    f"{scheme}: final memory diverges from interpreter "
                    f"(first byte {first:#x})",
                )
            )
    return out


def knobs_oracle(run: CaseRun) -> List[Disagreement]:
    """Reports must not depend on an output-neutral knob.

    The default run (already paid for by the schemes oracle on most
    schemes) is the reference; each neutral leg of the registry must
    reproduce its report byte for byte. Tier, plan and cache counters
    are tracer-only observability, so a leg that leaks into
    ``DbtReport`` — timing semantics, alias detections, commit/abort
    counts — is a bug, not a tolerable wobble."""
    out: List[Disagreement] = []
    for scheme in KNOB_SCHEMES:
        default = run.knob_report(scheme)
        for knob, value in knobs.legs():
            got = run.knob_report(scheme, knob, value)
            if got != default:
                out.append(
                    Disagreement(
                        "knobs",
                        f"{scheme}: report under {knob}={value} differs "
                        f"from the default run "
                        f"(fields {_differing(default, got)})",
                    )
                )
    return out


def engine_oracle(run: CaseRun) -> List[Disagreement]:
    """Parallel process-pool execution == serial in-process execution.

    The spec is duplicated because both the engine and ``make_executor``
    deliberately fall back to serial for single-job batches.
    """
    from repro.engine.executor import ParallelExecutor, SerialExecutor
    from repro.engine.jobs import JobSpec
    from repro.fuzz.generator import case_benchmark_name

    name = case_benchmark_name(run.case)
    spec = JobSpec(
        benchmark=name, scheme_key="smarq", scale=1.0,
        hot_threshold=run.case.config.hot_threshold,
    )
    serial = SerialExecutor().run([spec, spec])
    parallel = ParallelExecutor(max_workers=2).run([spec, spec])
    out: List[Disagreement] = []
    for i, (s, p) in enumerate(zip(serial, parallel)):
        if s.report.to_dict() != p.report.to_dict():
            out.append(
                Disagreement(
                    "engine",
                    f"parallel report differs from serial (job {i})",
                )
            )
            break
    return out


#: the lazily-started shared daemon the serve oracle submits through
_SHARED_SERVER = None


def _shared_server_address():
    """Start (once) and return the address of the oracle's daemon.

    One in-process server shared across all cases: cache disabled (every
    submission must actually simulate), small memo (distinct seeds never
    collide anyway). Stopped at interpreter exit; tier-1 test runs that
    never invoke the serve oracle never start it.
    """
    global _SHARED_SERVER
    if _SHARED_SERVER is None:
        import atexit

        from repro.serve import ReproServer, ServeConfig

        server = ReproServer(ServeConfig(cache=False, memo_limit=64))
        address = server.start()
        atexit.register(server.stop)
        _SHARED_SERVER = (server, address)
    return _SHARED_SERVER[1]


def serve_oracle(run: CaseRun) -> List[Disagreement]:
    """Submission through a live daemon == serial in-process execution.

    Exercises the full service-mode seam on adversarial programs: the
    case travels as a self-describing benchmark name through spec
    encoding, socket framing, the dispatcher, and report decoding."""
    from repro.engine.executor import SerialExecutor
    from repro.engine.jobs import JobSpec
    from repro.fuzz.generator import case_benchmark_name
    from repro.serve import ServeClient, ServeError

    name = case_benchmark_name(run.case)
    spec = JobSpec(
        benchmark=name, scheme_key="smarq", scale=1.0,
        hot_threshold=run.case.config.hot_threshold,
    )
    local = SerialExecutor().run([spec])[0].report.to_dict()
    try:
        with ServeClient(_shared_server_address()) as client:
            remote = client.submit([spec]).reports()[0].to_dict()
    except ServeError as exc:
        return [
            Disagreement(
                "serve", f"server failed a case the serial path runs: {exc}"
            )
        ]
    if remote != local:
        return [
            Disagreement(
                "serve",
                f"server report differs from serial in-process run "
                f"(fields {_differing(local, remote)})",
            )
        ]
    return []


# ----------------------------------------------------------------------
# certify: static prover vs independent checker vs the running system
# ----------------------------------------------------------------------
def certify_oracle(run: CaseRun) -> List[Disagreement]:
    """Soundness contract of the static alias certifier.

    Leg 1 certifies the case body with the prover under test
    (``run.prover``; the sound default when None) and revalidates with
    the clean checker — any complaint means an unsound certificate
    escaped the prover. Leg 2 re-certifies under synthetic runtime
    alias hints naming every certified pair: profile feedback outranks
    static proof, so a sound prover refuses them all (a hint-blind
    mutant does not, and the checker flags it). Leg 3 replays the
    checker-approved allocation on the hardware model with each
    certified pair's addresses collided: a check firing there means a
    dropped constraint leaked back into the allocation. Leg 4 (skipped
    under an injected mutant, whose bugs the static legs catch) pins
    system-level parity: smarq-cert's architectural state equals both
    the ``SMARQ_NO_CERTIFY=1`` run and pure interpretation, and a
    non-certifying scheme's report is byte-identical under the kill
    switch.
    """
    out: List[Disagreement] = []
    case = run.case
    block, analysis, machine, dep_set = run.build_inputs()
    base_deps = [d for d in dep_set if not d.extended]
    region_map = case.known_region_map()
    initial_regions = case.known_initial_regions()

    # Leg 1: prover-emitted certificate vs the independent checker.
    cert = certify_region(
        block, base_deps, region_map=region_map,
        initial_regions=initial_regions, prover=run.prover,
    )
    problems = check_certificate(
        cert, block, base_deps, region_map=region_map,
        initial_regions=initial_regions,
    )
    if problems:
        out.append(
            Disagreement(
                "certify",
                f"checker rejects certificate from prover "
                f"{cert.prover!r}: " + "; ".join(problems[:3]),
            )
        )
        return out

    insts = list(block)
    pairs = cert.certified_pairs()
    if pairs:
        # Leg 2: synthetic hints on every certified pair must flip each
        # verdict to refused — checked, again, by the clean checker.
        hints: Dict[Tuple[int, int], float] = {}
        for sp, dp in pairs:
            mi, mj = insts[sp].mem_index, insts[dp].mem_index
            if mi is not None and mj is not None:
                lo, hi = sorted((mi, mj))
                hints[(lo, hi)] = 1.0
        hinted = certify_region(
            block, base_deps, region_map=region_map,
            initial_regions=initial_regions, alias_hints=hints,
            prover=run.prover,
        )
        hint_problems = check_certificate(
            hinted, block, base_deps, region_map=region_map,
            initial_regions=initial_regions, alias_hints=hints,
        )
        if hint_problems:
            out.append(
                Disagreement(
                    "certify",
                    "prover ignores runtime alias hints: "
                    + "; ".join(hint_problems[:3]),
                )
            )
            return out

        # Leg 3: allocation without the certified dependences performs
        # no runtime check on them, even with their addresses collided.
        positions = {inst.uid: i for i, inst in enumerate(block)}
        kept = [
            d for d in base_deps
            if (positions[d.src.uid], positions[d.dst.uid]) not in pairs
        ]
        allocator = SmarqAllocator(
            machine, DependenceSet(kept), list(block.instructions)
        )
        ddg = DataDependenceGraph(block, machine, memory_dependences=kept)
        result = ListScheduler(
            machine, SchedulerConfig(), allocator
        ).schedule(ddg, alias_analysis=analysis)
        checks, antis = semantic_pairs_from_allocator(allocator)
        certified_insts = [
            (insts[sp], insts[dp]) for sp, dp in sorted(pairs)
        ]
        try:
            validate_allocation(
                result.linear, checks, antis,
                case.config.alias_registers,
                queue_factory=run.queue_factory,
                probe_boundaries=True,
                certified_pairs=certified_insts,
            )
        except ValidationError as exc:
            out.append(
                Disagreement("certify", f"certified allocation: {exc}")
            )
            return out

    # Leg 4: system-level parity (the sound prover's integration).
    if run.prover is None:
        state_on = run.scheme_state("smarq-cert")
        state_off = run.scheme_state("smarq-cert", knobs.NO_CERTIFY, "1")
        if state_on != state_off:
            out.append(
                Disagreement(
                    "certify",
                    f"smarq-cert architectural state differs under "
                    f"{knobs.NO_CERTIFY}=1",
                )
            )
        if state_on != run.reference_state():
            out.append(
                Disagreement(
                    "certify",
                    "smarq-cert architectural state diverges from pure "
                    "interpretation",
                )
            )
        report_on = run.knob_report("smarq")
        report_off = run.knob_report("smarq", knobs.NO_CERTIFY, "1")
        if report_on != report_off:
            out.append(
                Disagreement(
                    "certify",
                    f"non-certifying scheme report changed under "
                    f"{knobs.NO_CERTIFY}=1 "
                    f"(fields {_differing(report_on, report_off)})",
                )
            )
    return out


#: oracle name -> per-case implementation, in documentation order
ORACLES: Dict[str, Callable[[CaseRun], List[Disagreement]]] = {
    "alloc": alloc_oracle,
    "queue": queue_oracle,
    "schemes": schemes_oracle,
    "knobs": knobs_oracle,
    "engine": engine_oracle,
    "serve": serve_oracle,
    "certify": certify_oracle,
}

ORACLE_NAMES = tuple(ORACLES)
