"""Unit tests for the dynamic-optimization runtime policy."""

import pytest

from repro.frontend.interpreter import Interpreter
from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.runtime import DynamicOptimizationRuntime, RuntimeConfig
from repro.sim.schemes import make_scheme
from repro.sim.vliw import VliwSimulator


def make_runtime(config=None):
    scheme = make_scheme("smarq")
    program = GuestProgram(name="t", instructions=[branch(Opcode.EXIT, 0)])
    memory = Memory(4096)
    pipeline = OptimizationPipeline(scheme.machine, scheme.optimizer_config)
    simulator = VliwSimulator(scheme.machine, memory)
    return DynamicOptimizationRuntime(
        program, memory, scheme, pipeline, simulator, config
    )


def execute_once(runtime, registers):
    """Run the translation at pc 5 once: a step budget of 1 never
    batches a back-edge iteration."""
    outcome, _loop, batched = runtime.execute_translated_batch(
        5, registers, 1
    )
    assert batched == 0
    return outcome


def spec_region(entry_pc=5):
    """A region with a speculated (store, load) pair through r1/r3."""
    block = Superblock(entry_pc=entry_pc)
    block.append(movi(1, 0x100))
    block.append(load(9, 8))
    block.append(store(1, 9))
    block.append(load(2, 3))
    block.append(branch(Opcode.BR, entry_pc))
    return block


class TestInstall:
    def test_install_caches_translation(self):
        runtime = make_runtime()
        runtime.install(spec_region())
        assert runtime.has_translation(5)
        assert runtime.stats.translations == 1

    def test_optimization_cycles_charged(self):
        config = RuntimeConfig(opt_cycles_per_instruction=10)
        runtime = make_runtime(config)
        region = spec_region()
        runtime.install(region)
        assert runtime.stats.optimization_cycles == len(region) * 10
        assert runtime.stats.scheduling_cycles == len(region) * 5


class TestExecutionPolicy:
    def test_commit_counts(self):
        runtime = make_runtime()
        runtime.install(spec_region())
        regs = [0] * 64
        regs[3] = 0x900  # disjoint: commits
        outcome = execute_once(runtime, regs)
        assert outcome.status == "commit"
        assert runtime.stats.region_commits == 1

    def test_alias_triggers_reoptimization(self):
        runtime = make_runtime()
        runtime.install(spec_region())
        regs = [0] * 64
        regs[3] = 0x100  # collides with st [r1]
        outcome = execute_once(runtime, regs)
        assert outcome.status == "alias"
        assert runtime.stats.alias_exceptions == 1
        assert runtime.stats.reoptimizations == 1
        # re-optimized translation no longer speculates on the pair:
        regs2 = [0] * 64
        regs2[3] = 0x100
        outcome2 = execute_once(runtime, regs2)
        assert outcome2.status == "commit"

    def test_blacklist_after_max_faults(self):
        config = RuntimeConfig(max_reoptimizations_per_region=0)
        runtime = make_runtime(config)
        runtime.install(spec_region())
        regs = [0] * 64
        regs[3] = 0x100
        execute_once(runtime, regs)
        assert not runtime.has_translation(5)
        assert runtime.stats.blacklisted_regions == 1

    def test_side_exit_counted(self):
        block = Superblock(entry_pc=5)
        block.append(movi(1, 1))
        block.append(branch(Opcode.BNE, 9, srcs=(1, 0)))  # always taken
        block.append(branch(Opcode.BR, 5))
        runtime = make_runtime()
        runtime.install(block)
        outcome = execute_once(runtime, [0] * 64)
        assert outcome.status == "side_exit"
        assert runtime.stats.side_exits == 1


class TestInterpretThroughRegion:
    def test_charges_interp_cycles(self):
        config = RuntimeConfig(interp_cycles_per_instruction=10)
        insts = [movi(1, 0), movi(2, 0), branch(Opcode.EXIT, 0)]
        program = GuestProgram(name="t", instructions=insts)
        memory = Memory(4096)
        scheme = make_scheme("smarq")
        runtime = DynamicOptimizationRuntime(
            program,
            memory,
            scheme,
            OptimizationPipeline(scheme.machine, scheme.optimizer_config),
            VliwSimulator(scheme.machine, memory),
            config,
        )
        interp = Interpreter(program, memory)
        runtime.interpret_through_region(interp, stop_pcs=set())
        assert runtime.stats.interp_cycles == 30
        assert runtime.stats.interp_instructions == 3
