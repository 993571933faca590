"""Tests for interpretation-phase alias profiling."""

import pytest

from repro.frontend.alias_profiler import AliasProfiler
from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.workloads import make_benchmark


class TestObservation:
    def test_overlapping_store_load_recorded(self):
        profiler = AliasProfiler()
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=20, addr=0x104, size=8, is_store=False)
        assert profiler.alias_events == {(10, 20): 1}

    def test_load_load_pairs_ignored(self):
        profiler = AliasProfiler()
        profiler.observe(pc=10, addr=0x100, size=8, is_store=False)
        profiler.observe(pc=20, addr=0x100, size=8, is_store=False)
        assert profiler.alias_events == {}

    def test_same_pc_ignored(self):
        profiler = AliasProfiler()
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        assert profiler.alias_events == {}

    def test_disjoint_not_recorded(self):
        profiler = AliasProfiler()
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=20, addr=0x200, size=8, is_store=False)
        assert profiler.alias_events == {}

    def test_window_bounds_history(self):
        profiler = AliasProfiler(window=2)
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=11, addr=0x900, size=8, is_store=False)
        profiler.observe(pc=12, addr=0xA00, size=8, is_store=False)
        profiler.observe(pc=20, addr=0x100, size=8, is_store=False)
        # pc 10 fell out of the 2-entry window
        assert (10, 20) not in profiler.alias_events

    def test_rate_normalized_by_executions(self):
        profiler = AliasProfiler()
        for _ in range(10):
            profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
            profiler.observe(pc=20, addr=0x900, size=8, is_store=False)
        profiler.observe(pc=10, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=20, addr=0x100, size=8, is_store=False)
        assert 0.0 < profiler.rate(10, 20) <= 0.2


class TestRegionHints:
    def test_hints_keyed_by_mem_index(self):
        profiler = AliasProfiler()
        for _ in range(4):
            profiler.observe(pc=100, addr=0x100, size=8, is_store=True)
            profiler.observe(pc=101, addr=0x100, size=8, is_store=False)
        region = Superblock(entry_pc=100)
        st_op = store(1, 2)
        ld_op = load(3, 4)
        region.append(st_op)
        region.append(ld_op)
        st_op.guest_pc, ld_op.guest_pc = 100, 101
        hints = profiler.hints_for_region(region)
        assert hints == {(0, 1): 1.0}

    def test_low_rate_filtered(self):
        profiler = AliasProfiler()
        for _ in range(100):
            profiler.observe(pc=100, addr=0x100, size=8, is_store=True)
            profiler.observe(pc=101, addr=0x900, size=8, is_store=False)
        profiler.observe(pc=100, addr=0x100, size=8, is_store=True)
        profiler.observe(pc=101, addr=0x100, size=8, is_store=False)
        region = Superblock(entry_pc=100)
        st_op, ld_op = store(1, 2), load(3, 4)
        region.append(st_op)
        region.append(ld_op)
        st_op.guest_pc, ld_op.guest_pc = 100, 101
        assert profiler.hints_for_region(region, min_rate=0.05) == {}


class TestEndToEnd:
    def test_profiled_system_stays_equivalent(self):
        prog = make_benchmark("ammp", scale=0.05)
        mem = Memory(prog.memory_size() + 4096)
        ref = Interpreter(prog, mem)
        ref.run(max_steps=10_000_000)
        prog2 = make_benchmark("ammp", scale=0.05)
        system = DbtSystem(
            prog2,
            "smarq",
            profiler_config=ProfilerConfig(hot_threshold=15),
            alias_profiling=True,
        )
        system.run()
        assert system.interpreter.registers == ref.registers
        assert system.memory.to_bytes() == mem.to_bytes()

    def test_profiled_hints_pin_hot_alias_pair(self):
        """A program whose store/load pair aliases every iteration: the
        profiler must pre-pin it so the first translation never faults."""
        insts = [
            movi(1, 0x100),
            movi(2, 0),
            movi(3, 60),
            load(9, 8),                                          # slow data
            store(1, 9),                                         # pc 4
            load(4, 1),                                          # pc 5: same addr
            Instruction(Opcode.ADD, dest=2, srcs=(2,), imm=1),
            branch(Opcode.BLT, 3, srcs=(2, 3)),
            branch(Opcode.EXIT, 0),
        ]
        program = GuestProgram(
            name="hotalias", instructions=insts,
            region_map={"buf": (0x100, 0x100)},
        )
        system = DbtSystem(
            program,
            "smarq",
            profiler_config=ProfilerConfig(hot_threshold=10),
            alias_profiling=True,
        )
        report = system.run()
        assert report.alias_exceptions == 0  # pinned before translation

        # without profiling the same program faults at least once...
        program2 = GuestProgram(
            name="hotalias", instructions=[i.copy() for i in insts],
            region_map={"buf": (0x100, 0x100)},
        )
        system2 = DbtSystem(
            program2, "smarq",
            profiler_config=ProfilerConfig(hot_threshold=10),
        )
        report2 = system2.run()
        # ...unless static analysis already pinned it (same base register
        # here makes it MUST) — so use the weaker containment assertion:
        assert report2.alias_exceptions >= report.alias_exceptions
