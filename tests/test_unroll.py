"""Tests for loop unrolling (the paper's loop-level future-work direction)."""

import pytest

from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import Instruction, Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizerConfig
from repro.opt.unroll import (
    HOST_SCRATCH_BASE,
    is_loop_region,
    renameable_registers,
    unroll_loop,
)
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.workloads import make_benchmark


def loop_block():
    block = Superblock(entry_pc=5, name="loop")
    block.append(load(20, 10))                                  # temp: write first
    block.append(binop(Opcode.ADD, 21, 20, 20))                 # temp
    block.append(store(11, 21))
    block.append(Instruction(Opcode.ADD, dest=12, srcs=(12,), imm=8))  # induction
    block.append(branch(Opcode.BGE, 99, srcs=(12, 13)))         # side exit
    block.append(branch(Opcode.BR, 5))                          # back edge
    return block


class TestDetection:
    def test_loop_region_detected(self):
        assert is_loop_region(loop_block())

    def test_non_loop_not_detected(self):
        block = Superblock(entry_pc=5)
        block.append(movi(1, 0))
        block.append(branch(Opcode.BR, 7))  # branches elsewhere
        assert not is_loop_region(block)

    def test_empty_block(self):
        assert not is_loop_region(Superblock(entry_pc=5))


class TestRenameable:
    def test_write_first_is_renameable(self):
        body = loop_block().instructions[:-1]
        regs = renameable_registers(body)
        assert 20 in regs and 21 in regs

    def test_induction_not_renameable(self):
        body = loop_block().instructions[:-1]
        regs = renameable_registers(body)
        assert 12 not in regs  # read-first (loop carried)

    def test_pure_inputs_not_renameable(self):
        body = loop_block().instructions[:-1]
        regs = renameable_registers(body)
        assert 10 not in regs and 11 not in regs and 13 not in regs


class TestUnroll:
    def test_factor_one_is_noop(self):
        block = loop_block()
        before = list(block.instructions)
        result = unroll_loop(block, 1)
        assert not result.unrolled
        assert block.instructions == before

    def test_non_loop_untouched(self):
        block = Superblock(entry_pc=5)
        block.append(movi(1, 0))
        block.append(branch(Opcode.EXIT, 0))
        assert not unroll_loop(block, 2).unrolled

    def test_body_replicated(self):
        block = loop_block()
        result = unroll_loop(block, 2)
        assert result.unrolled
        # 2 copies of the 5-instruction body + closing branch
        assert len(block.instructions) == 11
        assert block.instructions[-1].opcode is Opcode.BR

    def test_temporaries_renamed_into_scratch(self):
        block = loop_block()
        result = unroll_loop(block, 2)
        assert result.renamed_registers == 2
        second_copy = block.instructions[5:10]
        defs = {r for inst in second_copy for r in inst.defs()}
        assert any(r >= HOST_SCRATCH_BASE for r in defs)

    def test_induction_shared_across_copies(self):
        block = loop_block()
        unroll_loop(block, 2)
        inductions = [
            inst for inst in block.instructions
            if inst.opcode is Opcode.ADD and inst.imm == 8
        ]
        assert len(inductions) == 2
        assert all(i.dest == 12 for i in inductions)

    def test_mem_indices_renumbered(self):
        block = loop_block()
        unroll_loop(block, 3)
        indices = [op.mem_index for op in block.memory_ops()]
        assert indices == list(range(len(indices)))

    def test_side_exits_preserved_per_copy(self):
        block = loop_block()
        unroll_loop(block, 2)
        exits = [i for i in block.side_exits() if i.opcode is Opcode.BGE]
        assert len(exits) == 2

    def test_exit_in_body_blocks_unroll(self):
        block = Superblock(entry_pc=5)
        block.append(branch(Opcode.EXIT, 0))
        block.append(branch(Opcode.BR, 5))
        assert not unroll_loop(block, 2).unrolled


class TestUnrolledExecution:
    @pytest.mark.parametrize("bench", ["swim", "art"])
    def test_state_equivalence_with_unrolling(self, bench):
        from repro.opt.pipeline import OptimizerConfig
        from repro.sim.schemes import Scheme, SmarqAdapter, make_scheme

        prog = make_benchmark(bench, scale=0.05)
        mem = Memory(prog.memory_size() + 4096)
        ref = Interpreter(prog, mem)
        ref.run(max_steps=10_000_000)

        base = make_scheme("smarq")
        scheme = Scheme(
            "smarq-u2",
            base.machine,
            OptimizerConfig(speculate=True, unroll_factor=2),
            lambda: SmarqAdapter(base.machine.alias_registers),
        )
        prog2 = make_benchmark(bench, scale=0.05)
        system = DbtSystem(
            prog2, scheme, profiler_config=ProfilerConfig(hot_threshold=15)
        )
        system.run()
        assert system.interpreter.registers == ref.registers
        assert system.memory.to_bytes() == mem.to_bytes()

    def test_unrolled_region_is_larger(self):
        from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
        from repro.sched.machine import MachineModel

        block = loop_block()
        plain = OptimizationPipeline(MachineModel()).optimize(block)
        unrolled = OptimizationPipeline(
            MachineModel(), OptimizerConfig(unroll_factor=2)
        ).optimize(block)
        assert len(unrolled.block) > len(plain.block)
