"""Numeric replay IR — the lowered form every replay backend consumes.

A hot region's compiled trace (see :func:`repro.sim.vliw._compile_trace`)
is lowered **once** into a flat, int-coded program: a list of op tuples
positionally parallel to the trace, plus two side tables (adapter event
groups and branch/exit payloads). Every opcode the simulator executes and
every shipped adapter's hardware interaction lowers statically, so
backends never look at :class:`~repro.ir.instruction.Instruction`
objects again:

* the ``py`` backend (:func:`repro.sim.replay_backends.compile_py`)
  emits today's straight-line replay function from the IR;
* the ``vec`` backend (:func:`repro.sim.replay_backends.compile_vec`)
  statically simulates the alias hardware over the IR's event stream and
  compiles the residue — register locals, word-indexed memory access
  behind one guard per base register, alias checks by word-index
  equality — into a kernel that falls back to the dispatch loop
  whenever a runtime fact (bounds violation, misaligned base, possible
  alias overlap) escapes the static model;
* the ``batch`` backend (:func:`repro.sim.replay_backends.compile_batch`)
  wraps the same residue in an iteration loop over the trace's
  structural back-edge (:func:`loop_candidate`);
* the ``interp`` tier keeps using the trace directly (it is the oracle).

The IR is a transient lowering: built once per shared replay artifact,
which keeps it for the backends' code generators, and never serialized.

The compiled trace's entry kinds (``K_*``) and the replay exit kinds
(``X_*``) are defined here, once, so the trace compiler and dispatch
loop in :mod:`repro.sim.vliw`, this lowering and the backends agree on
one vocabulary.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from repro.ir.instruction import Instruction, Opcode

# -- compiled trace entry kinds (plain ints: no enum hashing on the
# execution path) -------------------------------------------------------
K_ALU = 0
K_LD = 1
K_ST = 2
K_CBR = 3
K_BR = 4
K_EXIT = 5
K_ROTATE = 6
K_AMOV = 7
K_NOP = 8

# -- replay exit kinds (a timing plan keys its exit outcomes by them) ---
X_FALL = 0  # ran off the end of the trace
X_SIDE = 1  # taken conditional branch (side exit)
X_BR = 2  # unconditional region exit (commit)
X_EXIT = 3  # program exit
X_ALIAS = 4  # alias exception during a functional effect

# -- op codes -----------------------------------------------------------
OP_ALU = 0  # (OP_ALU, alu_kind, dest, a, b, imm)
OP_LD = 1  # (OP_LD, dest, base, disp, size, evt)
OP_ST = 2  # (OP_ST, src, base, disp, size, evt)
OP_CBR = 3  # (OP_CBR, cc, a, b, pay)      cc: 0 == / 1 != / 2 < / 3 >=
OP_BR = 4  # (OP_BR, pay)
OP_EXIT = 5  # (OP_EXIT, pay)
OP_EVT = 6  # (OP_EVT, evt)                 rotate/AMOV bookkeeping
OP_NOP = 7  # (OP_NOP,)

# -- ALU kinds ----------------------------------------------------------
(
    A_MOVI,  # dest = imm
    A_MOV,  # dest = a, or a & imm when imm is set
    A_ADDI,  # dest = wrap(a + imm)   (SUB-immediate folds a negative imm)
    A_ADD,  # dest = wrap(a + b)     (FADD shares the integer model)
    A_SUB,  # dest = wrap(a - b)     (FSUB likewise)
    A_MUL,  # dest = wrap(a * b)     (FMUL likewise)
    A_AND,
    A_OR,
    A_XOR,
    A_SHL,  # dest = wrap(a << (b & 63))
    A_SHR,  # dest = (a & MASK64) >> (b & 63)
    A_CMP,  # dest = sign(a - b)
    A_FDIV,  # dest = a // b if b else 0
    A_FMA,  # dest = wrap(dest + a * b)
) = range(14)

# -- adapter event kinds ------------------------------------------------
# Events are grouped per op (one tuple of event tuples per annotated
# memory op / rotate / AMOV); ``is_load`` fields are 0/1 ints.
E_QCHK = 1  # (E_QCHK, ar_offset, size, is_load, mem_index)  queue check
E_QSET = 2  # (E_QSET, ar_offset, size, is_load, mem_index)  queue set
E_ROT = 3  # (E_ROT, amount)                                queue rotate
E_AMOV = 4  # (E_AMOV, src_offset, dst_offset)               queue amov
E_ACHK = 5  # (E_ACHK, size, is_load, mem_index)             ALAT store check
E_AINS = 6  # (E_AINS, mem_index, size, is_load)             ALAT insert
E_BCHK = 7  # (E_BCHK, mask, size, is_load, mem_index)       bitmask check
E_BSET = 8  # (E_BSET, index, size, is_load, mem_index)      bitmask set

#: event kinds whose hardware family the vec backend simulates statically
QUEUE_EVENTS = frozenset((E_QCHK, E_QSET, E_ROT, E_AMOV))
ALAT_EVENTS = frozenset((E_ACHK, E_AINS))
BITMASK_EVENTS = frozenset((E_BCHK, E_BSET))


class ReplayIR:
    """One hot trace lowered to flat numeric form.

    ``ops`` is positionally parallel to the compiled trace (op ``k``
    lowers trace entry ``k``), so backend exit indexes line up with the
    timing plan's ``cycle_after`` array and exit outcomes without
    translation. ``events``/``payloads`` are side tables referenced by
    index from the op tuples.
    """

    __slots__ = ("ops", "events", "payloads")

    def __init__(self, ops, events, payloads) -> None:
        self.ops: List[Tuple] = ops
        self.events: List[Tuple[Tuple, ...]] = events
        self.payloads: List[Optional[int]] = payloads

    def __len__(self) -> int:
        return len(self.ops)


def loop_candidate(ir: ReplayIR) -> Optional[Tuple[int, int]]:
    """The structural self-loop exit candidate of one trace.

    A superblock trace has at most one terminator: the first ``OP_BR``
    (commit to an unconditional target — any ops after it are dead) or,
    absent one, the implicit fall-off-the-end exit. Returns ``(exit_idx,
    exit_kind)`` for that site — ``(k, X_BR)`` or ``(len - 1, X_FALL)``
    — or ``None`` when the trace terminates the program (``OP_EXIT``) or
    is empty. Whether the candidate actually re-enters the region (its
    target equals the region entry pc) is the caller's check: the same
    IR content can back several regions, and only the one whose entry pc
    the branch targets self-loops.
    """
    for k, op in enumerate(ir.ops):
        t = op[0]
        if t == OP_BR:
            return (k, X_BR)
        if t == OP_EXIT:
            return None
    return (len(ir.ops) - 1, X_FALL) if ir.ops else None


def _lower_alu(inst: Instruction) -> Tuple:
    """Lower one ALU instruction to its IR tuple (mirrors the opcode
    dispatch of :func:`repro.sim.vliw._compile_alu_fn`, the dispatch
    loop's ALU closures, which rejects the same opcodes)."""
    op = inst.opcode
    d = inst.dest
    srcs = inst.srcs
    imm = inst.imm
    if op is Opcode.MOVI:
        return (OP_ALU, A_MOVI, d, None, None, imm or 0)
    if op is Opcode.MOV:
        return (OP_ALU, A_MOV, d, srcs[0], None, imm)
    if op in (Opcode.ADD, Opcode.SUB) and imm is not None:
        delta = imm if op is Opcode.ADD else -imm
        return (OP_ALU, A_ADDI, d, srcs[0], None, delta)
    if op in (Opcode.ADD, Opcode.FADD):
        return (OP_ALU, A_ADD, d, srcs[0], srcs[1], None)
    if op in (Opcode.SUB, Opcode.FSUB):
        return (OP_ALU, A_SUB, d, srcs[0], srcs[1], None)
    if op in (Opcode.MUL, Opcode.FMUL):
        return (OP_ALU, A_MUL, d, srcs[0], srcs[1], None)
    if op is Opcode.AND:
        return (OP_ALU, A_AND, d, srcs[0], srcs[1], None)
    if op is Opcode.OR:
        return (OP_ALU, A_OR, d, srcs[0], srcs[1], None)
    if op is Opcode.XOR:
        return (OP_ALU, A_XOR, d, srcs[0], srcs[1], None)
    if op is Opcode.SHL:
        return (OP_ALU, A_SHL, d, srcs[0], srcs[1], None)
    if op is Opcode.SHR:
        return (OP_ALU, A_SHR, d, srcs[0], srcs[1], None)
    if op is Opcode.CMP:
        return (OP_ALU, A_CMP, d, srcs[0], srcs[1], None)
    if op is Opcode.FDIV:
        return (OP_ALU, A_FDIV, d, srcs[0], srcs[1], None)
    if op is Opcode.FMA:
        return (OP_ALU, A_FMA, d, srcs[0], srcs[1], None)
    raise ValueError(f"replay IR cannot lower {inst!r}")


def lower_trace(linear: List[Instruction], trace, adapter_cls) -> ReplayIR:
    """Lower one compiled trace to numeric replay IR.

    ``linear[k]`` is the instruction compiled into ``trace[k]`` (the
    trace is positionally parallel to the linear stream). Adapter
    interactions are lowered through the adapter class's structured
    ``lower_*_event`` protocol (see
    :class:`~repro.sim.schemes.HardwareAdapter`): each hook returns the
    op's tuple of event tuples, empty when the op never touches the
    hardware.
    """
    ops: List[Tuple] = []
    events: List[Tuple[Tuple, ...]] = []
    payloads: List[Optional[int]] = []

    def add_events(evts) -> Optional[int]:
        if not evts:
            return None
        events.append(evts)
        return len(events) - 1

    def add_payload(value) -> int:
        payloads.append(value)
        return len(payloads) - 1

    for k, (kind, _uses, _dest, _lat, _ui, aux) in enumerate(trace):
        if kind == K_ALU:
            ops.append(_lower_alu(linear[k]))
        elif kind == K_LD:
            base, disp, size, dreg, inst, call_adapter = aux
            evt = None
            if call_adapter:
                evt = add_events(adapter_cls.lower_mem_event(inst))
            ops.append((OP_LD, dreg, base, disp, size, evt))
        elif kind == K_ST:
            base, disp, size, sreg, inst, call_adapter = aux
            evt = None
            if call_adapter:
                evt = add_events(adapter_cls.lower_mem_event(inst))
            ops.append((OP_ST, sreg, base, disp, size, evt))
        elif kind == K_CBR:
            code, a, b, target = aux
            ops.append((OP_CBR, code, a, b, add_payload(target)))
        elif kind == K_BR:
            ops.append((OP_BR, add_payload(aux)))
        elif kind == K_EXIT:
            ops.append((OP_EXIT, add_payload(aux)))
        elif kind == K_ROTATE:
            evt = add_events(adapter_cls.lower_rotate_event(aux))
            ops.append((OP_EVT, evt))
        elif kind == K_AMOV:
            evt = add_events(adapter_cls.lower_amov_event(aux))
            ops.append((OP_EVT, evt))
        else:  # K_NOP: no functional effect
            ops.append((OP_NOP,))
    return ReplayIR(ops, events, payloads)
