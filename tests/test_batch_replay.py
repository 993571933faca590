"""Batch replay tier tests: N batched iterations ≡ N scalar executions.

The ``batch`` backend (see :mod:`repro.sim.replay_backends`) executes up
to ``_BATCH_WIDTH`` (256) iterations of a self-looping hot region in one
kernel call. These tests pin its contract:

* reports are byte-identical to the scalar tiers for every scheme;
* a mid-batch alias abort rolls back exactly the faulting iteration and
  re-runs it on the dispatch loop — word-shaped fuzz cases (the ones the
  kernels lower) that trim must produce reports identical to an
  all-scalar run;
* ``steps_budget`` bounds the batch exactly like the scalar loop's
  per-commit charge (never more iterations than the budget affords);
* a deferred wrap the back edge leaves raw is normalized wherever the
  value leaves the kernel, and one the next iteration reads is
  normalized at the back edge — 64-bit overflow included;
* auto promotion compiles the batch kernel — the one kernel of a trace
  with a back-edge — at ``_REPLAY_THRESHOLD`` executions;
* a trace that escapes its batch or vec kernel on every execution keeps
  that kernel (there is no demotion) and still equals the ``interp``
  oracle, whether it escapes before or after committed iterations;
* one kernel call runs at most ``_BATCH_WIDTH`` iterations, and forced
  scalar backends are kill switches;
* a re-optimized region's kernel stays in its translation-cache entry:
  the next run that translates the same key adopts it;
* the warm serve daemon reuses compiled batch kernels across repeat
  batches (zero-delta ``vliw.batch_compiles``).
"""

import pytest

from repro import knobs
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.fuzz.generator import generate_case, word_shaped
from repro.ir.instruction import (
    Instruction,
    Opcode,
    binop,
    branch,
    load,
    movi,
    store,
)
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.opt.translation_cache import reset_translation_cache
from repro.sched.machine import MachineModel
from repro.sim import replay_ir as R
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.schemes import SmarqAdapter
from repro.sim.vliw import _BATCH_WIDTH, _REPLAY_THRESHOLD, VliwSimulator
from repro.workloads import make_benchmark

MACHINE = MachineModel()
MAX_STEPS = 200_000


def translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    pipeline = OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    )
    return pipeline.optimize(block)


def loop_region():
    """Commits back to pc 0 when r3 == 0, side-exits otherwise."""
    return translate(
        [
            movi(1, 0x100),
            movi(2, 9),
            store(1, 2),
            branch(Opcode.BNE, 7, srcs=(3, 0)),
            binop(Opcode.ADD, 4, 2, 2),
            branch(Opcode.BR, 0),
        ]
    )


def alias_loop_region():
    """Speculation hoists ``load r2, [r3]``; r3 == 0x100 collides with
    the store every iteration (same shape as tests/test_timing_plans)."""
    return translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def walking_alias_region():
    """:func:`alias_loop_region` with ``r3`` stepping one word per
    iteration and the store at ``0x800``: started ``k`` words below it,
    the hoisted load collides with the store in iteration ``k``, after
    ``k`` commits."""
    return translate(
        [
            movi(1, 0x800),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            Instruction(Opcode.ADD, dest=3, srcs=(3,), imm=8),
            branch(Opcode.BR, 0),
        ]
    )


def batch_once(sim, region, r3=0, budget=10**6, adapter=None):
    """One ``execute_region_batch`` call on a fresh register file."""
    registers = [0] * 64
    registers[3] = r3
    adapter = adapter or SmarqAdapter(64)
    return sim.execute_region_batch(region, adapter, registers, budget)


def bench_report(benchmark, scheme, tier=None, tracer=None):
    """One DbtSystem run as a dict, optionally with a forced tier."""
    program = make_benchmark(benchmark, scale=0.05)

    def run():
        system = DbtSystem(program, scheme, tracer=tracer)
        return system.run(max_guest_steps=MAX_STEPS).to_dict()

    if tier is None:
        return run()
    with knobs.overridden(knobs.REPLAY_BACKEND, tier):
        return run()


class TestByteIdentity:
    """Forced-batch reports must equal the interp oracle's, per scheme."""

    @pytest.mark.parametrize(
        "scheme", ["smarq", "smarq16", "itanium", "efficeon", "none"]
    )
    def test_batch_matches_interp(self, scheme):
        tracer = Tracer()
        batch = bench_report("pchase", scheme, tier="batch", tracer=tracer)
        oracle = bench_report("pchase", scheme, tier="interp")
        assert batch == oracle
        # the batch tier really ran (forced mode engages immediately)
        assert tracer.counters.get("vliw.backend_batch", 0) > 0

    def test_auto_promotion_ladder(self):
        """Auto mode has one rung: the dispatch loop, then the trace's
        one kernel. pchase's hot loop runs the dispatch loop below the
        threshold and the batch kernel from then on — no py or vec
        codegen beside it — and the tiers partition every region
        execution."""
        reset_translation_cache()
        tracer = Tracer()
        bench_report("pchase", "smarq", tracer=tracer)
        c = tracer.counters
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.vec_compiles", 0) == 0
        assert c.get("vliw.replay_compiles", 0) == 0
        assert c.get("vliw.backend_interp", 0) == _REPLAY_THRESHOLD - 1
        assert c.get("vliw.backend_py", 0) == 0
        assert c.get("vliw.backend_vec", 0) == 0
        assert c.get("vliw.backend_batch", 0) > 0
        executed = (
            c.get("vliw.backend_interp", 0)
            + c.get("vliw.backend_py", 0)
            + c.get("vliw.backend_vec", 0)
            + c.get("vliw.backend_batch", 0)
        )
        assert executed == c["vliw.regions_executed"]


class TestMidBatchAbort:
    def test_trimmed_batches_match_scalar_reports(self):
        """Word-shaped fuzz cases that trim mid-batch (an alias test
        fires, the faulting iteration rolls back and re-runs on the
        dispatch loop) must be report-identical to all-scalar ``py``
        runs — the abort charges exactly the faulting iteration. Only
        word-shaped seeds reach a kernel at all."""
        trimmed = 0
        for seed in [s for s in range(192) if word_shaped(s)]:
            case = generate_case(seed)
            profiler = ProfilerConfig(
                hot_threshold=case.config.hot_threshold
            )
            tracer = Tracer()
            with knobs.overridden(knobs.REPLAY_BACKEND, "batch"):
                system = DbtSystem(
                    case.program(), "smarq",
                    profiler_config=profiler, tracer=tracer,
                )
                batch = system.run(max_guest_steps=MAX_STEPS).to_dict()
            if not tracer.counters.get("vliw.batch_trims"):
                continue
            with knobs.overridden(knobs.REPLAY_BACKEND, "py"):
                system = DbtSystem(
                    case.program(), "smarq", profiler_config=profiler
                )
                scalar = system.run(max_guest_steps=MAX_STEPS).to_dict()
            assert batch == scalar, f"seed {seed}"
            trimmed += 1
        # seeds 0, 30, 90, 96, 114, 132 and 177 trim today; keep slack
        # for generator drift but insist the abort seam was actually
        # exercised
        assert trimmed >= 3


def overflow_region():
    """Side-exits once ``r5`` is negative. ``r5 *= r6`` is a deferred
    wrap the next iteration's compare reads, so the back edge normalizes
    it; ``r4 = r2 * r2`` is a deferred wrap only stored, so it stays raw
    until the kernel writes registers back."""
    return translate(
        [
            movi(1, 0x100),
            branch(Opcode.BLT, 7, srcs=(5, 0)),
            binop(Opcode.MUL, 4, 2, 2),
            store(1, 4),
            binop(Opcode.MUL, 5, 5, 6),
            branch(Opcode.BR, 0),
        ]
    )


class TestDeferredWraps:
    @staticmethod
    def _drive(tier):
        """Run :func:`overflow_region` until its side exit, as batches
        of up to ``_BATCH_WIDTH`` iterations (one per call on the
        ``interp`` tier): 42 multiplications overflow ``r5`` negative,
        and ``r2 * r2`` overflows on every one. Returns the simulator
        stats and, after each call, the executions so far with the
        register file and memory."""
        with knobs.overridden(knobs.REPLAY_BACKEND, tier):
            sim = VliwSimulator(MACHINE, Memory(4096))
        region = overflow_region()
        registers = [0] * 64
        registers[2] = (1 << 40) + 3
        registers[5] = 3
        registers[6] = (1 << 16) + 1
        adapter = SmarqAdapter(64)
        snapshots = []
        for _ in range(100):
            outcome, _loop, batched = sim.execute_region_batch(
                region, adapter, registers, 10**6
            )
            snapshots.append((
                sim.stats.regions_executed, list(registers),
                sim.memory.to_bytes(), batched,
            ))
            if outcome.status == "side_exit":
                break
        return sim.stats, snapshots

    def test_overflowing_loop_matches_interp(self):
        stats, snapshots = self._drive("batch")
        oracle_stats, oracle = self._drive("interp")
        assert stats == oracle_stats
        assert stats.commits == 42 and stats.side_exit_aborts == 1
        # after every batch call — a full batch (registers written back)
        # or the one the side exit ends mid-flight (the abort epilogue
        # restores the committed state) — the state equals the oracle's
        # after as many executions
        at = {n: (regs, memory) for n, regs, memory, _ in oracle}
        for n, regs, memory, _ in snapshots:
            assert (regs, memory) == at[n], n
        assert len(snapshots) < len(oracle) and snapshots[-1][3] > 0
        assert snapshots[-1][1][4] == ((1 << 40) + 3) ** 2 % (1 << 64)


class TestStepsBudget:
    def test_budget_bounds_batched_iterations(self):
        """The kernel never runs more iterations than the budget
        affords at the scalar loop's max(1, instructions) charge."""
        with knobs.overridden(knobs.REPLAY_BACKEND, "batch"):
            sim = VliwSimulator(MACHINE, Memory(4096))
            region = loop_region()
            # warm up: compiles the kernel and computes the loop site
            out, _, batched = batch_once(sim, region)
            assert out.status == "commit" and batched > 0
            plan = region._vliw_trace[6]
            per_iter = max(1, plan.batch_loop[0] + 1)
            # exactly 3 commits' worth of budget → 2 batched + 1 final
            out, _, batched = batch_once(sim, region, budget=per_iter * 3)
            assert out.status == "commit"
            assert batched == 2
            # one step over → the scalar loop would commit a 4th time
            out, _, batched = batch_once(
                sim, region, budget=per_iter * 3 + 1
            )
            assert batched == 3
            # a budget worth < 2 commits cannot batch at all
            out, _, batched = batch_once(sim, region, budget=1)
            assert out.status == "commit"
            assert batched == 0

    def test_exhaustion_mid_run_matches_interp(self):
        """A system run cut off inside the hot loop is byte-identical
        whether the tail ran batched or interpreted."""
        program = make_benchmark("pchase", scale=0.05)
        tracer = Tracer()
        with knobs.overridden(knobs.REPLAY_BACKEND, "batch"):
            system = DbtSystem(program, "smarq", tracer=tracer)
            batch = system.run(max_guest_steps=3_000).to_dict()
        assert tracer.counters.get("vliw.backend_batch", 0) > 0
        with knobs.overridden(knobs.REPLAY_BACKEND, "interp"):
            system = DbtSystem(program, "smarq")
            oracle = system.run(max_guest_steps=3_000).to_dict()
        assert batch == oracle


class TestPromotion:
    def test_batch_engages_at_threshold(self, monkeypatch):
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        sim = VliwSimulator(MACHINE, Memory(4096))
        region = loop_region()
        batched = [
            batch_once(sim, region)[2]
            for _ in range(_REPLAY_THRESHOLD + 2)
        ]
        # executions 1.._REPLAY_THRESHOLD-1 stay scalar; the threshold
        # execution and everything after it batches
        assert batched[: _REPLAY_THRESHOLD - 1] == [0] * (
            _REPLAY_THRESHOLD - 1
        )
        assert all(b > 0 for b in batched[_REPLAY_THRESHOLD - 1:])

    def test_scalar_uses_run_the_kernel_once(self, monkeypatch):
        """Past the threshold every use of a trace runs its one batch
        kernel, at ``n = 1`` where no batch is possible: the scalar
        ``execute_region``, a budget affording one iteration, and a
        region whose back-edge leaves it. No other kernel compiles."""
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        reset_translation_cache()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        region = loop_region()
        for _ in range(_REPLAY_THRESHOLD):
            out = sim.execute_region(region, SmarqAdapter(64), [0] * 64)
            assert out.status == "commit"
        out, _, batched = batch_once(sim, region, budget=1)
        assert out.status == "commit" and batched == 0
        leaving = translate(
            [movi(1, 0x100), movi(2, 9), store(1, 2), branch(Opcode.BR, 5)]
        )
        for _ in range(_REPLAY_THRESHOLD + 2):
            out, _, batched = batch_once(sim, leaving)
            assert out.status == "commit" and out.next_pc == 5
            assert batched == 0
        c = tracer.counters
        assert c["vliw.backend_interp"] == 2 * (_REPLAY_THRESHOLD - 1)
        assert c["vliw.backend_batch"] == 2 + 3
        assert c["vliw.batch_compiles"] == 2
        assert c.get("vliw.vec_compiles", 0) == 0
        assert c.get("vliw.replay_compiles", 0) == 0


class TestNoDemotion:
    """Escapes never cost a trace its kernel."""

    RUNS = 6  # past the 4 escapes that once demoted a kernel

    @staticmethod
    def _escape_every_run(tier, k, runs):
        """``runs`` runs of :func:`walking_alias_region` on a ``tier``
        simulator, each from a fresh register file started ``k`` words
        below the store and driven until an execution aborts: ``k``
        commits, then the collision. Returns the outcome, registers and
        memory after each run, the simulator and hardware stats, the
        counters and the region's plan."""
        with knobs.overridden(knobs.REPLAY_BACKEND, tier):
            tracer = Tracer()
            sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        region = walking_alias_region()
        adapter = SmarqAdapter(64)
        results = []
        for _ in range(runs):
            registers = [0] * 64
            registers[3] = 0x800 - 8 * k
            out = None
            while out is None or out.status == "commit":
                out, _, _ = sim.execute_region_batch(
                    region, adapter, registers, 10**6
                )
            results.append((out, list(registers), sim.memory.to_bytes()))
        return (
            results, sim.stats, adapter.queue.stats, tracer.counters,
            region._vliw_trace[6],
        )

    @pytest.mark.parametrize("k", [0, 7, 100])
    @pytest.mark.parametrize("tier,escapes", [("batch", "batch_trims"),
                                              ("vec", "vec_fallbacks")])
    def test_escaping_trace_keeps_its_kernel(self, tier, escapes, k):
        """Every run escapes the kernel once, at the collision, after
        ``k`` committed iterations (in one batch call on the batch
        tier), and re-runs that execution on the dispatch loop. The
        kernel runs every commit and meets every collision to the last
        run, and every run equals the ``interp`` oracle's."""
        reset_translation_cache()  # each case compiles its own kernel
        results, stats, hw, c, plan = self._escape_every_run(
            tier, k, self.RUNS
        )
        assert c[f"vliw.{tier}_compiles"] == 1
        assert c[f"vliw.{escapes}"] == self.RUNS
        assert c.get(f"vliw.backend_{tier}", 0) == self.RUNS * k
        assert c["vliw.backend_interp"] == self.RUNS
        assert plan.tier == tier
        assert all(out.status == "alias" for out, _, _ in results)
        oracle = self._escape_every_run("interp", k, self.RUNS)
        assert results == oracle[0]
        assert stats == oracle[1]
        assert hw == oracle[2]


class TestKillSwitches:
    def test_width_env_caps_batch(self):
        """One kernel call runs at most ``_BATCH_WIDTH`` iterations."""
        with knobs.overridden(knobs.REPLAY_BACKEND, "batch"):
            sim = VliwSimulator(MACHINE, Memory(4096))
            region = loop_region()
            # _BATCH_WIDTH - 1 batched commits + the final scalar-path
            # commit, although the budget affords many more
            out, _, batched = batch_once(sim, region)
            assert out.status == "commit"
            assert batched == _BATCH_WIDTH - 1

    def test_forced_scalar_backend_never_batches(self):
        for tier in ("interp", "py", "vec"):
            with knobs.overridden(knobs.REPLAY_BACKEND, tier):
                sim = VliwSimulator(MACHINE, Memory(4096))
                region = loop_region()
                for _ in range(_REPLAY_THRESHOLD + 2):
                    out, _, batched = batch_once(sim, region)
                    assert batched == 0
                    assert out.status == "commit"

    def test_report_identical_with_tier_disabled(self):
        enabled = bench_report("pchase", "smarq")
        disabled = bench_report("pchase", "smarq", tier="vec")
        assert enabled == disabled


class TestReoptimizedKernels:
    def test_next_run_adopts_a_replaced_translations_kernel(self):
        """A re-optimization drops the replaced translation with nothing
        to invalidate; its kernel stays in its translation-cache entry,
        and a second run of the same cell translates that key again and
        adopts the kernel instead of compiling it. Both runs report the
        same."""
        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"):
            reset_translation_cache()
            first, second = Tracer(), Tracer()
            cold = bench_report("ammp", "smarq", tracer=first)
            warm = bench_report("ammp", "smarq", tracer=second)
        assert cold == warm
        c = first.counters
        # premise: the cold run replaced a translation after compiling
        assert c["runtime.reoptimizations"] > 0
        kernels = c.get("vliw.batch_compiles", 0) + c.get(
            "vliw.vec_compiles", 0
        )
        assert kernels > 0 and c.get("vliw.replay_cache_hits", 0) == 0
        w = second.counters
        assert w.get("vliw.batch_compiles", 0) == 0
        assert w.get("vliw.vec_compiles", 0) == 0
        assert w["vliw.replay_cache_hits"] == kernels


class TestIrHelpers:
    def ir(self, ops, events=None, payloads=None):
        n = len(ops)
        return R.ReplayIR(ops, events or [()] * n, payloads or [None] * n)

    def test_loop_candidate_first_br(self):
        ir = self.ir([(R.OP_ALU, R.A_MOVI, 1, None, None, 5),
                      (R.OP_BR, 0), (R.OP_NOP,)])
        assert R.loop_candidate(ir) == (1, R.X_BR)

    def test_loop_candidate_fall_through(self):
        ir = self.ir([(R.OP_ALU, R.A_MOVI, 1, None, None, 5), (R.OP_NOP,)])
        assert R.loop_candidate(ir) == (1, R.X_FALL)

    def test_loop_candidate_program_exit(self):
        ir = self.ir([(R.OP_EXIT, 0)])
        assert R.loop_candidate(ir) is None
        assert R.loop_candidate(self.ir([])) is None


class TestServeBatchWarm:
    def test_repeat_batch_reuses_batch_kernels(self):
        """With memo and report cache off, a repeat batch re-executes
        through the engine — and must be served entirely by the warm
        compiled batch kernels, which the translation cache keeps: zero
        new ``vliw.batch_compiles``."""
        from repro.engine.jobs import JobSpec
        from repro.serve import ServeClient, ServeConfig, running_server

        jobs = [
            JobSpec(benchmark=b, scheme_key="smarq", scale=0.05)
            for b in ("pchase", "pwalk")
        ]
        # drop the cached translations and their kernels so the cold leg
        # really compiles
        reset_translation_cache()
        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"), \
                running_server(ServeConfig(cache=False, memo_limit=0)) \
                as server:
            with ServeClient(server.address) as client:
                assert client.submit(jobs).failed == 0
                cold = client.stats()["counters"]
                assert client.submit(jobs).failed == 0
                warm = client.stats()["counters"]
        assert cold.get("vliw.batch_compiles", 0) >= 1
        assert warm["vliw.batch_compiles"] == cold["vliw.batch_compiles"]
        # the batch tier ran again on the repeat — on warm kernels
        assert warm.get("vliw.backend_batch", 0) > cold.get(
            "vliw.backend_batch", 0
        )

