"""Tests for guest program images."""

import pytest

from repro.frontend.program import GuestProgram
from repro.ir.instruction import Opcode, branch, load, movi, store


def prog(insts, **kwargs):
    return GuestProgram(name="t", instructions=list(insts), **kwargs)


class TestStructure:
    def test_guest_pcs_assigned(self):
        p = prog([movi(1, 0), movi(2, 0)])
        assert [i.guest_pc for i in p.instructions] == [0, 1]

    def test_at_bounds(self):
        p = prog([movi(1, 0)])
        assert p.at(0).opcode is Opcode.MOVI
        with pytest.raises(IndexError):
            p.at(1)
        with pytest.raises(IndexError):
            p.at(-1)

    def test_branch_targets(self):
        p = prog([branch(Opcode.BEQ, 3, srcs=(1, 2)), movi(1, 0),
                  branch(Opcode.BR, 0), branch(Opcode.EXIT, 0)])
        assert p.branch_targets() == {0, 3}

    def test_exit_not_a_target(self):
        p = prog([branch(Opcode.EXIT, 7)])
        assert p.branch_targets() == set()

    def test_block_heads(self):
        p = prog([movi(1, 0), branch(Opcode.BEQ, 0, srcs=(1, 2)),
                  movi(2, 0), branch(Opcode.EXIT, 0)])
        # entry, target 0 (same), fall-through 2
        assert p.block_heads() == {0, 2}


class TestValidation:
    def test_valid_program(self):
        p = prog([branch(Opcode.BR, 0)])
        p.validate()

    def test_branch_out_of_range(self):
        # a program validates itself at construction
        with pytest.raises(ValueError):
            prog([branch(Opcode.BR, 9)])

    def test_overlapping_regions_rejected(self):
        with pytest.raises(ValueError):
            prog(
                [branch(Opcode.EXIT, 0)],
                region_map={"a": (0x100, 0x100), "b": (0x180, 0x100)},
            )

    def test_memory_size_covers_regions(self):
        p = prog(
            [branch(Opcode.EXIT, 0)],
            region_map={"a": (0x100, 0x100), "b": (0x300, 0x80)},
        )
        assert p.memory_size() == 0x380
