"""Unit tests for the Efficeon-style bit-mask allocator (extension),
and a lock that its register assignment follows the region, not the
values of the instructions' uids."""

import json
from pathlib import Path

import pytest

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.dependence import DependenceSet, compute_dependences
from repro.hw.efficeon import BitmaskAliasFile
from repro.hw.exceptions import AliasException
from repro.fuzz import CaseRun, FuzzCase
from repro.hw.ranges import AccessRange
from repro.ir.instruction import load, store
from repro.ir.superblock import Superblock
from repro.sched.ddg import DataDependenceGraph
from repro.sched.list_scheduler import ListScheduler, SchedulerConfig
from repro.sched.machine import MachineModel
from repro.smarq.bitmask_alloc import BitmaskAllocator

from tests.test_golden_reports import GOLDEN_CELLS, render_report
from tests.uid_offsets import (
    FEW_UID_OFFSETS,
    UID_OFFSETS,
    report_from_uid_offset,
)


def run_bitmask(insts, num_registers=15):
    machine = MachineModel()
    block = Superblock(instructions=list(insts))
    analysis = AliasAnalysis(block)
    deps = DependenceSet(compute_dependences(block, analysis))
    allocator = BitmaskAllocator(
        machine, deps, list(block.instructions), num_registers=num_registers
    )
    ddg = DataDependenceGraph(block, machine, memory_dependences=list(deps))
    result = ListScheduler(machine, SchedulerConfig(), allocator).schedule(
        ddg, alias_analysis=analysis
    )
    return block, allocator, result


def slow_store(base):
    return [load(9, 8), store(base, 9)]


class TestBitmaskAllocation:
    def test_reordered_load_gets_index_store_gets_mask(self):
        block, allocator, result = run_bitmask(slow_store(5) + [load(2, 6)])
        ld_op = block.memory_ops()[2]
        st_op = block.memory_ops()[1]
        assert ld_op.p_bit and ld_op.ar_offset is not None
        assert st_op.c_bit and st_op.ar_mask
        assert st_op.ar_mask & (1 << ld_op.ar_offset)

    def test_mask_covers_all_targets(self):
        insts = slow_store(5) + [load(2, 6), load(3, 7), load(4, 30)]
        block, allocator, result = run_bitmask(insts)
        st_op = block.memory_ops()[1]
        hoisted = [
            op for op in block.memory_ops()
            if op.is_load and op.p_bit and op.ar_offset is not None
        ]
        for op in hoisted:
            if (op.uid, st_op.uid) not in allocator._check_pairs:
                continue
        # every check pair targeting this checker is in the mask
        for checker_uid, target_uid in allocator._check_pairs:
            if checker_uid == st_op.uid:
                idx = allocator._index[target_uid]
                assert st_op.ar_mask & (1 << idx)

    def test_register_reuse_after_last_checker(self):
        """Registers free out of order — the bitmask advantage."""
        insts = (
            slow_store(5)
            + [load(2, 6)]
            + slow_store(15)
            + [load(3, 7)]
        )
        block, allocator, result = run_bitmask(insts, num_registers=15)
        assert allocator.stats.working_set <= allocator.stats.registers_allocated

    def test_cap_enforced(self):
        with pytest.raises(ValueError):
            BitmaskAllocator(
                MachineModel(), DependenceSet(), [], num_registers=16
            )

    def test_throttling_under_pressure(self):
        insts = slow_store(30) + [load(2 + i, 40 + i) for i in range(20)]
        block, allocator, result = run_bitmask(insts, num_registers=3)
        assert allocator.stats.speculation_throttled > 0
        # never exceeded the file
        assert allocator.stats.working_set <= 3

    def test_hardware_replay_detects(self):
        """Replaying the annotated schedule on the bit-mask file detects a
        colliding pair and stays silent on disjoint ones."""
        block, allocator, result = run_bitmask(slow_store(5) + [load(2, 6)])
        ld_op = block.memory_ops()[2]
        st_op = block.memory_ops()[1]

        def replay(collide):
            hw = BitmaskAliasFile(15)
            addr = {op.uid: 0x1000 + i * 0x100
                    for i, op in enumerate(block.memory_ops())}
            if collide:
                addr[st_op.uid] = addr[ld_op.uid]
            for inst in result.linear:
                if not inst.is_mem:
                    continue
                access = AccessRange(addr[inst.uid], inst.size, inst.is_load)
                if inst.c_bit and inst.ar_mask:
                    hw.check(inst.ar_mask, access, inst.mem_index)
                if inst.p_bit and inst.ar_offset is not None:
                    hw.set(inst.ar_offset, access, inst.mem_index)

        replay(collide=False)  # silent
        with pytest.raises(AliasException):
            replay(collide=True)

    def test_no_pseudo_ops_emitted(self):
        """Bit-mask allocation needs no rotation and no AMOV."""
        block, allocator, result = run_bitmask(slow_store(5) + [load(2, 6)])
        assert all(not i.is_queue_op for i in result.linear)


#: a fuzz case whose efficeon report depended on the order a set of
#: uids iterates in (see ``tests/uid_offsets.py``)
UID_ORDER_CASE = Path(__file__).parent / "corpus" / "seed5280_knobs.json"


class TestRegisterAssignmentIgnoresUidValues:
    def test_fuzz_case(self):
        entry = json.loads(UID_ORDER_CASE.read_text())
        case = FuzzCase.from_dict(entry["case"])

        def run():
            report = CaseRun(case).knob_report("efficeon")
            return json.dumps(report, sort_keys=True)

        reports = {report_from_uid_offset(k, run) for k in UID_OFFSETS}
        assert len(reports) == 1

    @pytest.mark.parametrize(
        "bench,scheme,scale",
        GOLDEN_CELLS
        + [("equake", "efficeon", 0.1), ("art", "efficeon", 0.05)],
    )
    def test_golden_cells(self, bench, scheme, scale):
        reports = {
            report_from_uid_offset(
                k, lambda: render_report(bench, scheme, scale)
            )
            for k in FEW_UID_OFFSETS
        }
        assert len(reports) == 1
