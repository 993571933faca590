"""Unit tests for the DEPENDENCE and EXTENDED-DEPENDENCE rules."""

import pytest

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.dependence import (
    Dependence,
    DependenceSet,
    compute_dependences,
    dependences_between,
    extended_deps_for_load_elimination,
    extended_deps_for_store_elimination,
)
from repro.ir.instruction import load, movi, store
from repro.ir.superblock import Superblock

REGIONS = {"A": (0x1000, 0x800), "B": (0x2000, 0x800)}


def build(insts):
    block = Superblock(instructions=list(insts))
    return block, AliasAnalysis(block, REGIONS)


class TestBaseDependence:
    def test_load_load_never_depends(self):
        block, a = build([load(1, 5), load(2, 5)])
        assert compute_dependences(block, a) == []

    def test_may_alias_store_load(self):
        block, a = build([store(5, 1), load(2, 6)])
        deps = compute_dependences(block, a)
        assert len(deps) == 1
        assert deps[0].src.mem_index == 0 and deps[0].dst.mem_index == 1
        assert not deps[0].extended

    def test_must_alias_flag(self):
        block, a = build([store(5, 1, disp=0, size=8), load(2, 5, disp=0, size=8)])
        (dep,) = compute_dependences(block, a)
        assert dep.must

    def test_provably_disjoint_no_dependence(self):
        insts = [movi(5, 0x1000), movi(6, 0x2000), store(5, 1), load(2, 6)]
        block, a = build(insts)
        assert compute_dependences(block, a) == []

    def test_direction_follows_program_order(self):
        block, a = build([load(2, 6), store(5, 1)])
        (dep,) = compute_dependences(block, a)
        assert dep.src.is_load and dep.dst.is_store

    def test_store_store_dependence(self):
        block, a = build([store(5, 1), store(6, 2)])
        deps = compute_dependences(block, a)
        assert len(deps) == 1


class TestExtendedDependence1:
    """Load elimination: intervening MAY-alias *stores* must check the
    forwarding source (backward dependence)."""

    def test_intervening_store_gets_backward_dep(self):
        insts = [
            load(1, 5, disp=0, size=8),   # X: forwarding source
            store(6, 2),                   # S: may-alias barrier
            load(3, 5, disp=0, size=8),   # Z: eliminated
        ]
        block, a = build(insts)
        ops = block.memory_ops()
        deps = extended_deps_for_load_elimination(ops[0], ops[2], [ops[1]], a)
        assert deps == [(ops[1], ops[0])]  # S ->dep X, as a (src, dst) pair

    def test_intervening_load_ignored(self):
        insts = [
            load(1, 5, disp=0, size=8),
            load(2, 6),  # loads cannot invalidate forwarding
            load(3, 5, disp=0, size=8),
        ]
        block, a = build(insts)
        ops = block.memory_ops()
        deps = extended_deps_for_load_elimination(ops[0], ops[2], [ops[1]], a)
        assert deps == []

    def test_provably_disjoint_store_ignored(self):
        insts = [
            movi(5, 0x1000),
            movi(6, 0x2000),
            load(1, 5, disp=0, size=8),
            store(6, 2),
            load(3, 5, disp=0, size=8),
        ]
        block, a = build(insts)
        ops = block.memory_ops()
        deps = extended_deps_for_load_elimination(ops[0], ops[2], [ops[1]], a)
        assert deps == []


class TestExtendedDependence2:
    """Store elimination: the overwriting store must check intervening
    MAY-alias *loads*; intervening stores need nothing (paper's remark)."""

    def test_intervening_load_gets_dep_from_overwriter(self):
        insts = [
            store(5, 1, disp=0, size=8),  # X: eliminated
            load(2, 6),                    # Y: may observe X
            store(5, 3, disp=0, size=8),  # Z: overwrites
        ]
        block, a = build(insts)
        ops = block.memory_ops()
        deps = extended_deps_for_store_elimination(ops[2], ops[0], [ops[1]], a)
        assert deps == [(ops[2], ops[1])]  # Z ->dep Y, as a (src, dst) pair

    def test_intervening_store_ignored(self):
        insts = [
            store(5, 1, disp=0, size=8),
            store(6, 2),  # stores between do not affect correctness
            store(5, 3, disp=0, size=8),
        ]
        block, a = build(insts)
        ops = block.memory_ops()
        deps = extended_deps_for_store_elimination(ops[2], ops[0], [ops[1]], a)
        assert deps == []


class TestDependenceSet:
    def test_incoming_outgoing_indexing(self):
        block, a = build([store(5, 1), load(2, 6), load(3, 7)])
        deps = DependenceSet(compute_dependences(block, a))
        st_op = block.memory_ops()[0]
        assert len(deps.outgoing(st_op)) == 2
        assert len(deps.incoming(st_op)) == 0
        assert len(deps.incoming(block.memory_ops()[1])) == 1

    def test_dependences_between(self):
        block, a = build([store(5, 1), load(2, 6)])
        deps = list(compute_dependences(block, a))
        x, y = block.memory_ops()
        assert len(dependences_between(deps, x, y)) == 1
        assert len(dependences_between(deps, y, x)) == 1
        assert dependences_between(deps, x, x) == []

    def test_len_and_iter(self):
        block, a = build([store(5, 1), load(2, 6)])
        deps = DependenceSet(compute_dependences(block, a))
        assert len(deps) == 1
        assert len(list(deps)) == 1
