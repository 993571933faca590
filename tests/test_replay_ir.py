"""Replay IR and tiered-backend tests.

Hot traces lower once into the numeric replay IR
(:mod:`repro.sim.replay_ir`) and execute on one of four backends
(:mod:`repro.sim.replay_backends`): the generic dispatch loop
(``interp``, the oracle), the generated straight-line function (``py``)
and the statically pre-simulated kernels (``vec``, and ``batch`` — the
same residue in an iteration loop). These tests pin:

* all four tiers are byte-identical — outcome, registers, memory and
  stats — for every shipped scheme and every exit kind;
* auto mode promotes a plan at one execution-count threshold to its
  trace's one kernel (batch with a back-edge, else vec), re-runs an
  execution that escapes the kernel on the dispatch loop without
  generating ``py`` code, keeps a trace the lowering rejects on the
  dispatch loop, and ``SMARQ_REPLAY_BACKEND`` forces/kills tiers (with
  a forced ``vec`` degrading to ``interp`` for non-lowerable traces) and
  rejects a value it does not know;
* a translation-cache hit's clone adopts the kernel its miss compiled,
  per adapter class and hardware config; with the cache off, each
  region compiles its own;
* the dispatch loop's ALU closures and the IR lowering accept the same
  opcodes, and reject every other one when the trace is compiled.
"""

import pytest

import repro.sim.replay_backends as backends_mod
import repro.sim.vliw as vliw_mod
from repro import knobs
from repro.engine.instrumentation import Tracer
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
from repro.sim.memory import Memory
from repro.sim.schemes import (
    EfficeonAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
)
from repro.sim.replay_ir import OP_ALU, _lower_alu
from repro.sim.vliw import VliwSimulator, _compile_alu_fn

MACHINE = MachineModel()

SCHEME_FACTORIES = {
    "smarq": lambda: SmarqAdapter(64),
    "itanium": ItaniumAdapter,
    "efficeon": EfficeonAdapter,
    "none": NullAdapter,
}


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    """Replay artifacts live in translation-cache entries: an empty
    cache compiles every kernel afresh."""
    reset_translation_cache()
    yield
    reset_translation_cache()


def translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    pipeline = OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    )
    return pipeline.optimize(block)


def side_exit_region():
    """Commits when r3 == 0, takes the side exit otherwise."""
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


def alias_region():
    """Speculation may hoist ``load r2, [r3]`` above the store; r3 ==
    0x100 then collides at runtime."""
    return translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def exit_region():
    """Ends the guest program (X_EXIT) with code 7."""
    return translate(
        [
            movi(1, 0x100),
            movi(2, 3),
            store(1, 2),
            branch(Opcode.EXIT, 7),
        ]
    )


def run_once(region, r3=0, adapter=None, sim=None, tracer=None):
    memory = Memory(4096)
    memory.write(0x100, 0xAB, 8)
    registers = [0] * 64
    registers[3] = r3
    sim = sim or VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
    sim.memory = memory
    adapter = adapter or SmarqAdapter(64)
    outcome = sim.execute_region(region, adapter, registers)
    return outcome, registers, memory, sim


class TestTierByteIdentity:
    """Every tier must be byte-identical for every scheme and exit."""

    def run_tier(self, monkeypatch, tier, make_region, r3, factory, n=3):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", tier)
        reset_translation_cache()
        region = make_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert sim._backend == tier
        runs = []
        for _ in range(n):  # cold + warm kernel paths
            out, regs, mem, _ = run_once(
                region, r3=r3, adapter=factory(), sim=sim
            )
            runs.append((out, list(regs), mem.to_bytes()))
        return runs, sim.stats, tracer

    @pytest.mark.parametrize("scheme", sorted(SCHEME_FACTORIES))
    @pytest.mark.parametrize(
        "shape,make_region,r3",
        [
            ("commit", side_exit_region, 0),
            ("side_exit", side_exit_region, 1),
            ("alias", alias_region, 0x100),
            ("alias_clean", alias_region, 0x300),
            ("exit", exit_region, 0),
        ],
    )
    def test_tiers_agree(self, monkeypatch, scheme, shape, make_region, r3):
        factory = SCHEME_FACTORIES[scheme]
        baseline = None
        for tier in ("interp", "py", "vec", "batch"):
            runs, stats, _ = self.run_tier(
                monkeypatch, tier, make_region, r3, factory
            )
            if baseline is None:
                baseline = (runs, stats)
            else:
                assert runs == baseline[0], (scheme, shape, tier)
                assert stats == baseline[1], (scheme, shape, tier)

    def test_expected_exit_statuses(self, monkeypatch):
        cases = {
            ("commit", side_exit_region, 0): "commit",
            ("side_exit", side_exit_region, 1): "side_exit",
            ("exit", exit_region, 0): "exit",
        }
        for (shape, make_region, r3), status in cases.items():
            runs, _, _ = self.run_tier(
                monkeypatch, "vec", make_region, r3, NullAdapter
            )
            assert runs[0][0].status == status, shape


class TestTierPromotion:
    def test_auto_mode_promotes_at_thresholds(self, monkeypatch):
        """Below ``_REPLAY_THRESHOLD`` planned executions a trace runs
        the dispatch loop; the threshold execution compiles its one
        kernel — batch, since the trace has a back-edge — and every
        later execution runs it. No py or vec code is generated."""
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert sim._backend is None
        threshold = vliw_mod._REPLAY_THRESHOLD
        total = threshold + 4
        for i in range(1, total + 1):
            run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
            plan = region._vliw_trace[6]
            assert plan.executions == i
            assert plan.replay_fn is None, i
            assert plan.artifact.vec_fn is None, i
            if i < threshold:
                assert plan.tier is None, i
                assert plan.artifact.batch_fn is None, i
            else:
                assert plan.tier == "batch", i
                assert plan.artifact.batch_fn is not None, i
        c = tracer.counters
        assert c.get("vliw.backend_interp", 0) == threshold - 1
        assert c.get("vliw.backend_batch", 0) == total - threshold + 1
        assert c.get("vliw.backend_py", 0) == 0
        assert c.get("vliw.backend_vec", 0) == 0
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.vec_compiles", 0) == 0
        assert c.get("vliw.replay_compiles", 0) == 0

    def test_trace_without_back_edge_compiles_vec(self, monkeypatch):
        """A trace that ends the program has no back-edge: its one
        kernel is vec."""
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        region = exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        threshold = vliw_mod._REPLAY_THRESHOLD
        for _ in range(threshold + 1):
            out = run_once(region, adapter=NullAdapter(), sim=sim)[0]
            assert out.status == "exit"
        plan = region._vliw_trace[6]
        assert plan.tier == "vec"
        c = tracer.counters
        assert c.get("vliw.backend_vec", 0) == 2
        assert c.get("vliw.vec_compiles", 0) == 1
        assert c.get("vliw.batch_compiles", 0) == 0

    def test_escape_reruns_on_dispatch_loop(self, monkeypatch):
        """An execution that escapes the kernel (here a possible alias
        overlap that really collides) rolls back and re-runs that one
        execution on the dispatch loop, the ``interp`` oracle: no ``py``
        code is generated, and the effects equal a forced-interp run."""
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        region = alias_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        threshold = vliw_mod._REPLAY_THRESHOLD
        c = tracer.counters
        runs = []
        for i in range(threshold + 1):
            interp = c.get("vliw.backend_interp", 0)
            trims = c.get("vliw.batch_trims", 0)
            out, regs, mem, _ = run_once(region, r3=0x100, sim=sim)
            assert out.status == "alias"
            runs.append((out, list(regs), mem.to_bytes()))
            if i + 1 >= threshold:  # promoted: the kernel escaped
                assert c["vliw.batch_trims"] == trims + 1, i
                assert c["vliw.backend_interp"] == interp + 1, i
        plan = region._vliw_trace[6]
        assert plan.tier == "batch"
        assert plan.replay_fn is None
        assert c.get("vliw.batch_trims", 0) == 2
        assert c.get("vliw.backend_interp", 0) == threshold + 1
        assert c.get("vliw.backend_py", 0) == 0
        assert c.get("vliw.replay_compiles", 0) == 0

        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
        oracle = VliwSimulator(MACHINE, Memory(4096))
        oracle_region = alias_region()
        for run in runs:
            out, regs, mem, _ = run_once(oracle_region, r3=0x100, sim=oracle)
            assert (out, list(regs), mem.to_bytes()) == run
        assert oracle.stats == sim.stats

    def test_rejected_trace_stays_on_the_dispatch_loop(self, monkeypatch):
        """A trace the lowering rejects gets no kernel at the threshold
        and stays on the dispatch loop in auto mode: it adopts no
        ``py`` function, and no ``py`` code is generated."""
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        for name in ("compile_vec", "compile_batch"):
            monkeypatch.setattr(backends_mod, name, lambda *a, **k: None)
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        n = vliw_mod._REPLAY_THRESHOLD + 4
        for _ in range(n):
            out = run_once(region, r3=0, adapter=NullAdapter(), sim=sim)[0]
            assert out.status == "commit"
        plan = region._vliw_trace[6]
        assert plan.tier == "interp"
        assert plan.replay_fn is None
        assert plan.artifact.rejected
        assert plan.artifact.py_fn is None
        c = tracer.counters
        assert c.get("vliw.backend_interp", 0) == n
        assert c.get("vliw.backend_py", 0) == 0
        assert c.get("vliw.replay_compiles", 0) == 0


class TestSharedArtifacts:
    """A translation's replay artifacts live in its translation-cache
    entry: the clones a full-tier hit makes share them."""

    @staticmethod
    def _promote(region, sim, adapter_factory=NullAdapter):
        for _ in range(vliw_mod._REPLAY_THRESHOLD):
            run_once(region, r3=0, adapter=adapter_factory(), sim=sim)
        return region._vliw_trace[6]

    def test_hit_adopts_the_kernel_its_miss_compiled(self):
        """The miss compiles the trace's kernel; the clone a full-tier
        hit makes adopts it without compiling again."""
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"):
            region_a = side_exit_region()
            region_b = side_exit_region()
        assert region_b is not region_a
        plan_a = self._promote(region_a, sim)
        c = tracer.counters
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.replay_cache_hits", 0) == 0
        plan_b = self._promote(region_b, sim)
        assert plan_b is not plan_a
        assert plan_b.tier == "batch"
        assert plan_b.artifact is plan_a.artifact
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.vec_compiles", 0) == 0
        assert c.get("vliw.replay_cache_hits", 0) == 1

    def test_each_adapter_config_has_its_own_artifact(self):
        """The entry keys its artifacts by adapter class and hardware
        config: a clone run on another alias register count compiles
        its own kernel."""
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"):
            region_a = side_exit_region()
            region_b = side_exit_region()
        plan_a = self._promote(region_a, sim, lambda: SmarqAdapter(64))
        plan_b = self._promote(region_b, sim, lambda: SmarqAdapter(16))
        assert plan_b.artifact is not plan_a.artifact
        assert tracer.counters.get("vliw.batch_compiles", 0) == 2
        assert tracer.counters.get("vliw.replay_cache_hits", 0) == 0

    def test_without_the_cache_each_region_compiles_its_own(self):
        """With the translation cache off, a region has no entry to
        share: it gets private artifacts and compiles its own kernel."""
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "1"):
            region_a = side_exit_region()
            region_b = side_exit_region()
        plan_a = self._promote(region_a, sim)
        plan_b = self._promote(region_b, sim)
        assert plan_b.tier == "batch"
        assert plan_b.artifact is not plan_a.artifact
        assert tracer.counters.get("vliw.batch_compiles", 0) == 2
        assert tracer.counters.get("vliw.replay_cache_hits", 0) == 0


class TestAluLowering:
    ALU_OPCODES = {
        Opcode.ADD, Opcode.SUB, Opcode.MUL, Opcode.AND, Opcode.OR,
        Opcode.XOR, Opcode.SHL, Opcode.SHR, Opcode.MOV, Opcode.MOVI,
        Opcode.CMP, Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV,
        Opcode.FMA,
    }

    def test_dispatch_loop_and_lowering_accept_the_same_opcodes(self):
        """Both ALU compilers handle exactly the 16 ALU opcodes; any other
        opcode fails closed with ``ValueError`` when the trace is
        compiled or lowered, before a single execution runs."""
        for op in Opcode:
            inst = Instruction(
                op, dest=1, srcs=(2, 3), base=4, target=8, amov_src=0,
                amov_dst=1,
            )
            if op in self.ALU_OPCODES:
                assert callable(_compile_alu_fn(inst))
                assert _lower_alu(inst)[0] == OP_ALU
                continue
            with pytest.raises(ValueError):
                _compile_alu_fn(inst)
            with pytest.raises(ValueError):
                _lower_alu(inst)


class TestBackendKillSwitch:
    def test_forced_interp_never_compiles(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        n = vliw_mod._REPLAY_THRESHOLD + 4
        for _ in range(n):
            run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        plan = region._vliw_trace[6]
        assert plan.replay_fn is None
        assert plan.artifact.vec_fn is None
        assert plan.artifact.batch_fn is None
        assert tracer.counters.get("vliw.backend_interp", 0) == n
        assert tracer.counters.get("vliw.replay_compiles", 0) == 0
        assert tracer.counters.get("vliw.vec_compiles", 0) == 0

    def test_forced_py_adopts_immediately_and_never_vectorizes(
        self, monkeypatch
    ):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "py")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        plan = region._vliw_trace[6]
        assert plan.replay_fn is not None
        for _ in range(vliw_mod._REPLAY_THRESHOLD + 2):
            run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        assert plan.artifact.vec_fn is None
        assert plan.artifact.batch_fn is None
        assert tracer.counters.get("vliw.backend_interp", 0) == 0
        assert tracer.counters.get("vliw.vec_compiles", 0) == 0

    def test_forced_vec_adopts_immediately(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "vec")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        plan = region._vliw_trace[6]
        assert plan.artifact.vec_fn is not None
        assert tracer.counters.get("vliw.backend_vec", 0) == 1

    def test_forced_vec_degrades_to_interp_when_not_lowerable(
        self, monkeypatch
    ):
        """Traces the static lowering rejects cannot vectorize; forced
        vec must silently run the dispatch loop instead."""
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "vec")
        monkeypatch.setattr(
            backends_mod, "compile_vec", lambda *a, **k: None
        )
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        out = run_once(region, r3=0, adapter=NullAdapter(), sim=sim)[0]
        assert out.status == "commit"
        plan = region._vliw_trace[6]
        assert plan.tier == "interp"
        assert plan.artifact.vec_fn is None
        assert plan.artifact.rejected
        assert plan.replay_fn is None
        assert tracer.counters.get("vliw.backend_interp", 0) == 1
        assert tracer.counters.get("vliw.backend_py", 0) == 0
        assert tracer.counters.get("vliw.backend_vec", 0) == 0

    def test_unknown_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "jit")
        with pytest.raises(ValueError, match="interp, py, vec, batch"):
            VliwSimulator(MACHINE, Memory(4096))
