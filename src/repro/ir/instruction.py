"""IR instructions.

The optimizer's IR is register based. There is a single flat register file
(``r0`` .. ``rN``); values may be ints or floats. Memory operations address
guest memory through ``base register + displacement`` with a byte ``size``.

Every instruction gets a unique ``uid`` (allocation order) and, for memory
operations, a ``mem_index`` recording its position among memory operations in
the *original program order* — the order the paper's DEPENDENCE rule and the
program-order baseline allocation are defined against.

SMARQ annotations live directly on the instruction:

``p_bit``
    The operation sets (protects) an alias register with its access range.
``c_bit``
    The operation checks earlier-set alias registers per the paper's
    ORDERED-ALIAS-DETECTION-RULE.
``ar_offset``
    Alias register number relative to the queue BASE at this operation's
    execution. ``None`` until allocation assigns one.
``ar_order``
    Alias register number relative to BASE 0 (``order = base + offset``);
    recorded by the allocator for validation and statistics.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Optional, Tuple


class OperandError(ValueError):
    """Raised when an instruction is constructed with invalid operands."""


class Opcode(enum.Enum):
    """IR opcodes.

    Arithmetic opcodes carry their functional-unit class in the timing
    model (:mod:`repro.sched.machine`); the enum itself is purely symbolic.
    """

    # Memory
    LD = "ld"
    ST = "st"
    # Integer ALU
    ADD = "add"
    SUB = "sub"
    MUL = "mul"
    AND = "and"
    OR = "or"
    XOR = "xor"
    SHL = "shl"
    SHR = "shr"
    MOV = "mov"
    MOVI = "movi"
    CMP = "cmp"
    # Floating point
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    FMA = "fma"
    # Control
    BR = "br"
    BEQ = "beq"
    BNE = "bne"
    BLT = "blt"
    BGE = "bge"
    EXIT = "exit"
    # Pseudo / queue management
    NOP = "nop"
    ROTATE = "rotate"
    AMOV = "amov"

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Opcode.{self.name}"

    # Enum members compare by identity, so the id-based hash is
    # equivalent to the default name-string hash — but it is a C-level
    # slot instead of a Python call, and opcode-keyed dict/set lookups
    # are all over the scheduler's and interpreter's hot paths.
    __hash__ = object.__hash__


#: Opcodes that read or write guest memory.
MEMORY_OPCODES = frozenset({Opcode.LD, Opcode.ST})

#: Opcodes that end a superblock or transfer control out of it.
BRANCH_OPCODES = frozenset(
    {Opcode.BR, Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE, Opcode.EXIT}
)

#: Opcodes inserted by the SMARQ allocator rather than the translator.
QUEUE_OPCODES = frozenset({Opcode.ROTATE, Opcode.AMOV})

_FLOAT_OPCODES = frozenset(
    {Opcode.FADD, Opcode.FSUB, Opcode.FMUL, Opcode.FDIV, Opcode.FMA}
)

_next_uid_value = 0


def _next_uid() -> int:
    global _next_uid_value
    uid = _next_uid_value
    _next_uid_value = uid + 1
    return uid


def reserve_uids(max_uid: int) -> None:
    """Advance the uid counter past ``max_uid``.

    Deserialized instructions (the translation cache's persistent tier)
    carry uids allocated by another process; reserving their range keeps
    every *future* allocation from colliding with them, so uid-keyed
    per-region indexes never mix two instructions under one key.
    """
    global _next_uid_value
    if max_uid >= _next_uid_value:
        _next_uid_value = max_uid + 1


def uid_watermark() -> int:
    """Highest uid allocated so far.

    The translation cache stamps every stored blob with this value:
    eliminated-but-still-referenced instructions can carry uids above the
    surviving block's maximum, so scanning the blob itself would
    under-reserve.
    """
    return _next_uid_value - 1


@dataclass
class Instruction:
    """A single IR instruction.

    Register operands are small integers (register numbers). ``dest`` is
    ``None`` for instructions that do not write a register. Memory operands
    are expressed as ``(base, disp, size)``.
    """

    opcode: Opcode
    dest: Optional[int] = None
    srcs: Tuple[int, ...] = ()
    imm: Optional[int] = None
    base: Optional[int] = None
    disp: int = 0
    size: int = 8
    target: Optional[int] = None  # branch target (guest pc) or exit id

    # Bookkeeping
    uid: int = field(default_factory=_next_uid)
    mem_index: Optional[int] = None  # original-program order among memory ops
    guest_pc: Optional[int] = None

    # SMARQ annotations
    p_bit: bool = False
    c_bit: bool = False
    ar_offset: Optional[int] = None
    ar_order: Optional[int] = None
    #: Efficeon-style annotation: bit-mask of alias registers this
    #: operation must check (set by the bitmask allocator, not SMARQ)
    ar_mask: Optional[int] = None

    # ROTATE amount or AMOV operands
    rotate_by: int = 0
    amov_src: Optional[int] = None  # offset1
    amov_dst: Optional[int] = None  # offset2

    # Set by the speculative optimizer when this op was produced by an
    # elimination (used for accounting and re-optimization decisions).
    speculative: bool = False

    def __post_init__(self) -> None:
        opcode = self.opcode
        if opcode in MEMORY_OPCODES:
            if self.base is None:
                raise OperandError(f"{opcode} requires a base register")
            if self.size <= 0:
                raise OperandError("memory access size must be positive")
        if opcode is Opcode.ROTATE and self.rotate_by < 0:
            raise OperandError("rotate amount must be non-negative")
        if opcode is Opcode.AMOV:
            if self.amov_src is None or self.amov_dst is None:
                raise OperandError("AMOV requires source and dest offsets")
        # Classification flags are plain attributes, not properties: the
        # scheduler and DDG builder read them per candidate pair, and an
        # attribute load is an order of magnitude cheaper than a property
        # call. The opcode never changes after construction.
        self.is_load = opcode is Opcode.LD
        self.is_store = opcode is Opcode.ST
        self.is_mem = opcode in MEMORY_OPCODES
        self.is_branch = opcode in BRANCH_OPCODES
        self.is_float = opcode in _FLOAT_OPCODES
        self.is_queue_op = opcode in QUEUE_OPCODES

    # ------------------------------------------------------------------
    # Register use/def sets (for dependence building)
    # ------------------------------------------------------------------
    def defs(self) -> Tuple[int, ...]:
        """Registers written by this instruction."""
        if self.dest is None:
            return ()
        return (self.dest,)

    def uses(self) -> Tuple[int, ...]:
        """Registers read by this instruction."""
        regs = list(self.srcs)
        if self.base is not None:
            regs.append(self.base)
        return tuple(regs)

    def copy(self) -> "Instruction":
        """Return a fresh copy with a new uid (annotations preserved)."""
        clone = Instruction(
            opcode=self.opcode,
            dest=self.dest,
            srcs=self.srcs,
            imm=self.imm,
            base=self.base,
            disp=self.disp,
            size=self.size,
            target=self.target,
            mem_index=self.mem_index,
            guest_pc=self.guest_pc,
            p_bit=self.p_bit,
            c_bit=self.c_bit,
            ar_offset=self.ar_offset,
            ar_order=self.ar_order,
            ar_mask=self.ar_mask,
            rotate_by=self.rotate_by,
            amov_src=self.amov_src,
            amov_dst=self.amov_dst,
            speculative=self.speculative,
        )
        return clone

    def __hash__(self) -> int:
        return self.uid

    def __eq__(self, other: object) -> bool:
        return self is other

    def __repr__(self) -> str:
        from repro.ir.printer import format_instruction

        return f"<I{self.uid} {format_instruction(self)}>"


# ----------------------------------------------------------------------
# Construction helpers — the public, readable way to build IR.
# ----------------------------------------------------------------------
def load(dest: int, base: int, disp: int = 0, size: int = 8) -> Instruction:
    """``dest = ld [base + disp]``."""
    return Instruction(Opcode.LD, dest=dest, base=base, disp=disp, size=size)


def store(base: int, src: int, disp: int = 0, size: int = 8) -> Instruction:
    """``st [base + disp] = src``."""
    return Instruction(Opcode.ST, srcs=(src,), base=base, disp=disp, size=size)


def binop(opcode: Opcode, dest: int, lhs: int, rhs: int) -> Instruction:
    """Integer two-source ALU operation."""
    return Instruction(opcode, dest=dest, srcs=(lhs, rhs))


def fbinop(opcode: Opcode, dest: int, lhs: int, rhs: int) -> Instruction:
    """Floating-point two-source operation."""
    if opcode not in _FLOAT_OPCODES:
        raise OperandError(f"{opcode} is not a floating-point opcode")
    return Instruction(opcode, dest=dest, srcs=(lhs, rhs))


def mov(dest: int, src: int, mask: Optional[int] = None) -> Instruction:
    """Register move; with ``mask`` (kept in ``imm``), ``dest = src & mask``."""
    return Instruction(Opcode.MOV, dest=dest, srcs=(src,), imm=mask)


def movi(dest: int, imm: int) -> Instruction:
    """Load immediate."""
    return Instruction(Opcode.MOVI, dest=dest, imm=imm)


def branch(opcode: Opcode, target: int, srcs: Tuple[int, ...] = ()) -> Instruction:
    """Conditional or unconditional branch to a guest pc / exit id."""
    if opcode not in BRANCH_OPCODES:
        raise OperandError(f"{opcode} is not a branch opcode")
    return Instruction(opcode, srcs=srcs, target=target)


def nop() -> Instruction:
    return Instruction(Opcode.NOP)


def rotate(amount: int) -> Instruction:
    """``ROTATE amount`` — advance the alias register queue BASE."""
    return Instruction(Opcode.ROTATE, rotate_by=amount)


def amov(src_offset: int, dst_offset: int) -> Instruction:
    """``AMOV src, dst`` — move (or clean, when src == dst) an access range."""
    return Instruction(Opcode.AMOV, amov_src=src_offset, amov_dst=dst_offset)
