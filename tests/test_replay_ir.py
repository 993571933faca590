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
  generating ``py`` code, and ``SMARQ_REPLAY_BACKEND`` forces/kills
  tiers (with a forced ``vec`` degrading to ``py`` for non-lowerable
  traces) and rejects a value it does not know;
* re-optimization/blacklisting invalidation drops the shared artifacts
  along with the timing plans;
* the dispatch loop's ALU closures and the IR lowering accept the same
  opcodes, and reject every other one when the trace is compiled.
"""

import pytest

import repro.sim.replay_backends as backends_mod
import repro.sim.vliw as vliw_mod
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
from repro.sched.machine import MachineModel
from repro.sim.memory import Memory
from repro.sim.schemes import (
    EfficeonAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
)
from repro.sim.replay_ir import OP_ALU, _lower_alu
from repro.sim.vliw import (
    VliwSimulator,
    _compile_alu_fn,
    invalidate_timing_plans,
)

MACHINE = MachineModel()

SCHEME_FACTORIES = {
    "smarq": lambda: SmarqAdapter(64),
    "itanium": ItaniumAdapter,
    "efficeon": EfficeonAdapter,
    "none": NullAdapter,
}


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    backends_mod.reset_artifact_cache()
    yield
    backends_mod.reset_artifact_cache()


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
        backends_mod.reset_artifact_cache()
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

    def test_shared_artifact_skips_recompilation(self):
        """A content-identical clone adopts the cached kernel without
        compiling again (the process-wide artifact cache)."""
        region_a = side_exit_region()
        region_b = side_exit_region()
        if getattr(region_a, "_replay_key", None) is None:
            pytest.skip("regions carry no translation key")
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        for _ in range(vliw_mod._REPLAY_THRESHOLD):
            run_once(region_a, r3=0, adapter=NullAdapter(), sim=sim)
        assert tracer.counters.get("vliw.batch_compiles", 0) == 1
        assert tracer.counters.get("vliw.replay_cache_hits", 0) == 0
        for _ in range(vliw_mod._REPLAY_THRESHOLD):
            run_once(region_b, r3=0, adapter=NullAdapter(), sim=sim)
        assert region_b._vliw_trace[6].tier == "batch"
        assert tracer.counters.get("vliw.batch_compiles", 0) == 1
        assert tracer.counters.get("vliw.vec_compiles", 0) == 0
        assert tracer.counters.get("vliw.replay_cache_hits", 0) == 1


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

    def test_forced_vec_degrades_to_py_when_not_lowerable(self, monkeypatch):
        """Traces the static lowering rejects (dynamic escapes, certain
        overlaps) cannot vectorize; forced vec must silently run the py
        tier instead."""
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
        assert plan.artifact.vec_fn is None
        assert plan.artifact.vec_state == -1
        assert plan.replay_fn is not None
        assert tracer.counters.get("vliw.backend_py", 0) == 1
        assert tracer.counters.get("vliw.backend_vec", 0) == 0

    def test_unknown_value_is_rejected(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "jit")
        with pytest.raises(ValueError, match="interp, py, vec, batch"):
            VliwSimulator(MACHINE, Memory(4096))


class TestArtifactInvalidation:
    def test_invalidation_drops_plans_and_artifacts(self, monkeypatch):
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "vec")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, adapter=NullAdapter(), sim=sim)
        assert tracer.counters.get("vliw.vec_compiles", 0) == 1
        replay_key = getattr(region, "_replay_key", None)

        assert invalidate_timing_plans(region) is True
        assert region._vliw_trace is None
        if replay_key is not None:
            assert not any(
                k[0] == replay_key for k in backends_mod._artifacts
            )
        # idempotent; a re-run recompiles everything from scratch
        assert invalidate_timing_plans(region) is False
        out = run_once(region, r3=0, adapter=NullAdapter(), sim=sim)[0]
        assert out.status == "commit"
        assert tracer.counters.get("vliw.vec_compiles", 0) == 2

    def test_runtime_reoptimization_invalidates(self):
        """The runtime invalidation hook is what re-optimize/blacklist
        call; its contract is pinned here via the public helper."""
        region = alias_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        for _ in range(vliw_mod._REPLAY_THRESHOLD):
            run_once(region, r3=0x300, adapter=NullAdapter(), sim=sim)
        assert region._vliw_trace is not None
        assert invalidate_timing_plans(region) is True
        assert region._vliw_trace is None

    @staticmethod
    def _replay_key(tag):
        """A deep tuple like a translation key, freshly built on every
        call: two calls give equal keys that are never identical."""
        return ("block", tuple([tag, (1, 2, (3, 4))]), ("config", 64))

    @staticmethod
    def _index_agrees_with_cache():
        grouped = {}
        for key in backends_mod._artifacts:
            grouped.setdefault(key[0], set()).add(key)
        index = {
            replay_key: set(keys)
            for replay_key, keys in backends_mod._by_replay_key.items()
        }
        return index == grouped

    def test_invalidation_drops_equal_keys_across_adapters(self):
        key = self._replay_key("a")
        for adapter_cls, config in (
            (SmarqAdapter, 64), (SmarqAdapter, 16), (ItaniumAdapter, 32),
        ):
            backends_mod.artifact_for((key, adapter_cls, config))
        kept = {
            (self._replay_key("b"), SmarqAdapter, 64),
            (self._replay_key("c"), ItaniumAdapter, 32),
        }
        for full_key in kept:
            backends_mod.artifact_for(full_key)

        equal = self._replay_key("a")
        assert equal == key and equal is not key
        assert backends_mod.invalidate_artifacts(equal) == 3
        assert set(backends_mod._artifacts) == kept
        assert self._index_agrees_with_cache()
        # nothing left under that key; the others are untouched
        assert backends_mod.invalidate_artifacts(self._replay_key("a")) == 0
        assert set(backends_mod._artifacts) == kept

    def test_eviction_keeps_cache_and_index_in_agreement(self, monkeypatch):
        monkeypatch.setattr(backends_mod, "_CACHE_LIMIT", 6)
        for i in range(10):
            tag = f"t{i % 4}"
            backends_mod.artifact_for(
                (self._replay_key(tag), SmarqAdapter, i)
            )
            assert len(backends_mod._artifacts) <= 6
            assert self._index_agrees_with_cache()
        # the oldest entries (configs 0-3) were evicted: t0 keeps only
        # configs 4 and 8, and invalidating it drops exactly those
        assert backends_mod.invalidate_artifacts(self._replay_key("t0")) == 2
        assert self._index_agrees_with_cache()
        assert len(backends_mod._artifacts) == 4
        backends_mod.reset_artifact_cache()
        assert backends_mod._by_replay_key == {}
