"""Textual rendering of IR, matching the paper's listing style.

The paper annotates each memory operation with three columns: the alias
register offset, the P/C bits, and the HW action (``set ARx`` /
``check ARy..``). :func:`format_superblock` reproduces that layout so worked
examples from the paper can be eyeballed against our output.
"""

from __future__ import annotations

from typing import List, Optional

from repro.ir.instruction import Instruction, Opcode


def _mem_ref(inst: Instruction) -> str:
    if inst.disp > 0:
        return f"[r{inst.base}+{inst.disp}]"
    if inst.disp < 0:
        return f"[r{inst.base}{inst.disp}]"
    return f"[r{inst.base}]"


def format_instruction(inst: Instruction) -> str:
    """One-line assembly-ish rendering of an instruction."""
    op = inst.opcode
    if op is Opcode.LD:
        return f"r{inst.dest} = ld{inst.size} {_mem_ref(inst)}"
    if op is Opcode.ST:
        return f"st{inst.size} {_mem_ref(inst)} = r{inst.srcs[0]}"
    if op is Opcode.MOVI:
        return f"r{inst.dest} = {inst.imm}"
    if op is Opcode.MOV:
        mask = "" if inst.imm is None else f" & {inst.imm:#x}"
        return f"r{inst.dest} = r{inst.srcs[0]}{mask}"
    if op is Opcode.ROTATE:
        return f"rotate {inst.rotate_by}"
    if op is Opcode.AMOV:
        return f"amov {inst.amov_src}, {inst.amov_dst}"
    if op is Opcode.NOP:
        return "nop"
    if op is Opcode.EXIT:
        return f"exit {inst.target}"
    if inst.is_branch:
        regs = ", ".join(f"r{r}" for r in inst.srcs)
        sep = " " if regs else ""
        return f"{op.value} {regs}{sep}-> {inst.target:#x}"
    if inst.dest is not None and len(inst.srcs) >= 2:
        args = ", ".join(f"r{r}" for r in inst.srcs)
        return f"r{inst.dest} = {op.value} {args}"
    if inst.dest is not None and inst.srcs:
        return f"r{inst.dest} = {op.value} r{inst.srcs[0]}"
    return op.value


def _bits(inst: Instruction) -> str:
    p = "P" if inst.p_bit else ""
    c = "C" if inst.c_bit else ""
    return (p + c) or "-"


def format_annotated(inst: Instruction) -> str:
    """Render with the paper's offset / P-C columns for memory operations."""
    body = format_instruction(inst)
    if not (inst.is_mem or inst.is_queue_op):
        return f"{body:<34}"
    offset = "" if inst.ar_offset is None else str(inst.ar_offset)
    return f"{body:<34} {offset:>3}  {_bits(inst):<2}"


def format_superblock(
    block, title: Optional[str] = None, annotated: bool = True
) -> str:
    """Multi-line listing of a superblock.

    ``block`` is any iterable of instructions (typically a
    :class:`repro.ir.Superblock`).
    """
    lines: List[str] = []
    if title:
        lines.append(f"; {title}")
    for i, inst in enumerate(block):
        text = format_annotated(inst) if annotated else format_instruction(inst)
        lines.append(f"{i:>3}: {text.rstrip()}")
    return "\n".join(lines)
