"""Unit tests for the speculative optimization passes."""

import pytest

from repro.analysis.aliasinfo import AliasAnalysis
from repro.ir.instruction import Instruction, Opcode, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.load_elim import LoadElimination
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.opt.store_elim import StoreElimination
from repro.sched.machine import MachineModel


def block_of(insts):
    block = Superblock(instructions=list(insts))
    return block, AliasAnalysis(block)


class TestLoadElimination:
    def test_load_load_forwarding(self):
        block, a = block_of([load(1, 5, disp=0), store(6, 9), load(2, 5, disp=0)])
        result = LoadElimination().run(block, a)
        assert result.eliminated == 1
        assert block.instructions[2].opcode is Opcode.MOV
        assert block.instructions[2].srcs == (1,)

    def test_store_load_forwarding(self):
        block, a = block_of([store(5, 3, disp=0), store(6, 9), load(2, 5, disp=0)])
        result = LoadElimination().run(block, a)
        assert result.eliminated == 1
        assert block.instructions[2].srcs == (3,)

    @pytest.mark.parametrize("size", [1, 2, 4])
    def test_narrow_store_is_not_forwarded(self, size):
        """A narrow load reads back the stored low bytes, zero-extended,
        not the store's whole value register; narrow load-to-load
        forwarding stays (the first load's register holds exactly
        that)."""
        block, a = block_of(
            [store(5, 3, disp=16, size=size), load(2, 5, disp=16, size=size)]
        )
        assert LoadElimination().run(block, a).eliminated == 0
        assert block.instructions[1].opcode is Opcode.LD
        block, a = block_of(
            [load(1, 5, disp=16, size=size), load(2, 5, disp=16, size=size)]
        )
        assert LoadElimination().run(block, a).eliminated == 1
        assert block.instructions[1].srcs == (1,)

    def test_store_forwarding_zero_extends(self):
        """A load reads a stored word back unsigned, but the store's
        value register may hold it as a negative number: the move that
        replaces the load masks the value to 64 bits. A load-to-load
        move copies, the first load's register being unsigned already."""
        block, a = block_of([store(5, 3, disp=16), load(2, 5, disp=16)])
        assert LoadElimination().run(block, a).eliminated == 1
        forwarded = block.instructions[1]
        assert forwarded.opcode is Opcode.MOV
        assert forwarded.srcs == (3,)
        assert forwarded.imm == (1 << 64) - 1
        block, a = block_of([load(1, 5, disp=16), load(2, 5, disp=16)])
        assert LoadElimination().run(block, a).eliminated == 1
        assert block.instructions[1].imm is None

    def test_no_forwarding_across_must_alias_store(self):
        block, a = block_of(
            [load(1, 5, disp=0), store(5, 9, disp=0), load(2, 5, disp=0)]
        )
        result = LoadElimination().run(block, a)
        # the MUST store is the nearer source: store->load forwarding
        assert result.eliminated == 1
        assert block.instructions[2].srcs == (9,)

    def test_value_register_clobber_blocks_forwarding(self):
        block, a = block_of(
            [load(1, 5, disp=0), movi(1, 0), load(2, 5, disp=0)]
        )
        result = LoadElimination().run(block, a)
        assert result.eliminated == 0

    def test_require_safe_skips_speculative(self):
        block, a = block_of([load(1, 5, disp=0), store(6, 9), load(2, 5, disp=0)])
        result = LoadElimination(require_safe=True).run(block, a)
        assert result.eliminated == 0

    def test_require_safe_allows_check_free(self):
        block, a = block_of([load(1, 5, disp=0), load(2, 5, disp=0)])
        result = LoadElimination(require_safe=True).run(block, a)
        assert result.eliminated == 1

    def test_loads_only_sources(self):
        block, a = block_of([store(5, 3, disp=0), load(2, 5, disp=0)])
        result = LoadElimination(sources="loads").run(block, a)
        assert result.eliminated == 0

    def test_elimination_cap(self):
        insts = []
        for i in range(4):
            insts.append(load(1 + i, 5, disp=i * 16))
            insts.append(load(10 + i, 5, disp=i * 16))
        block, a = block_of(insts)
        result = LoadElimination(max_eliminations=2).run(block, a)
        assert result.eliminated == 2

    def test_high_alias_rate_barrier_vetoes(self):
        block = Superblock(
            instructions=[load(1, 5, disp=0), store(6, 9), load(2, 5, disp=0)]
        )
        a = AliasAnalysis(block, alias_hints={(0, 1): 0.9})
        result = LoadElimination().run(block, a)
        assert result.eliminated == 0

    def test_source_pinned(self):
        block, a = block_of([load(1, 5, disp=0), store(6, 9), load(2, 5, disp=0)])
        result = LoadElimination().run(block, a)
        assert result.pinned[0] is block.instructions[0]

    def test_invalid_sources_policy(self):
        with pytest.raises(ValueError):
            LoadElimination(sources="stores")


class TestStoreElimination:
    def test_overwritten_store_removed(self):
        block, a = block_of(
            [store(5, 1, disp=0), load(2, 6), store(5, 3, disp=0)]
        )
        result = StoreElimination().run(block, a)
        assert result.eliminated == 1
        assert len([i for i in block if i.is_store]) == 1

    def test_must_alias_load_between_blocks(self):
        block, a = block_of(
            [store(5, 1, disp=0), load(2, 5, disp=0), store(5, 3, disp=0)]
        )
        result = StoreElimination().run(block, a)
        assert result.eliminated == 0

    def test_side_exit_between_blocks(self):
        block, a = block_of(
            [
                store(5, 1, disp=0),
                branch(Opcode.BEQ, 9, srcs=(1, 2)),
                store(5, 3, disp=0),
            ]
        )
        result = StoreElimination().run(block, a)
        assert result.eliminated == 0

    def test_different_size_blocks(self):
        block, a = block_of(
            [store(5, 1, disp=0, size=4), store(5, 3, disp=0, size=8)]
        )
        result = StoreElimination().run(block, a)
        assert result.eliminated == 0

    def test_require_safe_skips_speculative(self):
        block, a = block_of(
            [store(5, 1, disp=0), load(2, 6), store(5, 3, disp=0)]
        )
        result = StoreElimination(require_safe=True).run(block, a)
        assert result.eliminated == 0

    def test_require_safe_allows_check_free(self):
        block, a = block_of([store(5, 1, disp=0), store(5, 3, disp=0)])
        result = StoreElimination(require_safe=True).run(block, a)
        assert result.eliminated == 1

    def test_pinned_sources_protected(self):
        block, a = block_of([store(5, 1, disp=0), store(5, 3, disp=0)])
        pinned = [block.instructions[0]]
        result = StoreElimination().run(block, a, pinned=pinned)
        assert result.eliminated == 0

    def test_chain_of_overwrites(self):
        block, a = block_of(
            [
                store(5, 1, disp=0),
                store(5, 2, disp=0),
                store(5, 3, disp=0),
            ]
        )
        result = StoreElimination().run(block, a)
        assert result.eliminated == 2


class TestPipeline:
    def make_block(self):
        block = Superblock(entry_pc=7, name="p")
        block.append(load(9, 8))
        block.append(store(5, 9))
        block.append(load(2, 6))
        block.append(load(3, 6, disp=16))
        return block

    def test_optimize_does_not_mutate_original(self):
        pipeline = OptimizationPipeline(MachineModel())
        block = self.make_block()
        before = [i.uid for i in block]
        pipeline.optimize(block)
        assert [i.uid for i in block] == before

    def test_speculative_config_produces_allocator(self):
        pipeline = OptimizationPipeline(MachineModel())
        region = pipeline.optimize(self.make_block())
        assert region.allocation is not None

    def test_non_speculative_config_has_no_allocator(self):
        pipeline = OptimizationPipeline(
            MachineModel(), OptimizerConfig(speculate=False)
        )
        region = pipeline.optimize(self.make_block())
        assert region.allocation is None
        # conservative schedule keeps program order of may-alias pairs
        pos = region.schedule.position()
        ops = region.block.memory_ops()
        st_op = next(o for o in ops if o.is_store)
        later_loads = [o for o in ops if o.is_load and o.mem_index > st_op.mem_index]
        for ld_op in later_loads:
            assert pos[st_op.uid] < pos[ld_op.uid]

    def test_record_alias_pins_pair(self):
        pipeline = OptimizationPipeline(MachineModel())
        pipeline.record_alias(7, 1, 2)
        assert pipeline.hints_for(7) == {(1, 2): 1.0}

    def test_repeat_fault_bans_op(self):
        pipeline = OptimizationPipeline(MachineModel())
        pipeline.record_alias(7, 1, 2)
        pipeline.record_alias(7, 1, 3)
        assert 1 in pipeline._no_speculate[7]

    def test_unreordered_fault_bans_immediately(self):
        pipeline = OptimizationPipeline(MachineModel())
        pipeline.record_alias(7, 1, 2, reordered=False)
        assert 1 in pipeline._no_speculate[7]

    def test_reoptimize_counts(self):
        pipeline = OptimizationPipeline(MachineModel())
        block = self.make_block()
        pipeline.reoptimize(block, 0, 1)
        assert pipeline.reoptimizations == 1
