"""Guest interpreter.

Functional execution of a :class:`~repro.frontend.program.GuestProgram`
over a :class:`~repro.sim.memory.Memory`. The interpreter is the system's
slow path (paper Figure 1: code runs interpreted until it gets hot) and
also the reference semantics the optimized translations must match.

Integer semantics: registers hold Python ints, 64-bit wrapping on
arithmetic. FP opcodes operate on register values as Python numbers
(synthetic workloads only need arithmetic of the right latency class, not
IEEE bit-accuracy). Loads/stores move unsigned little-endian integers.

Timing: each interpreted guest instruction is charged
``cycles_per_instruction`` simulated cycles (interpretation overhead of a
DBT system); the value is configurable on the runtime's machine model side.

Dispatch: instead of re-branching on the opcode every step, each guest pc
is lazily compiled — once, on first execution — into a specialized handler
closure with its operands bound (a software analog of a threaded-code
dispatch table). ``step()`` then just invokes ``handlers[pc]``. Handlers
read ``trace_hook``/``mem_hook`` and write ``pc`` through a weak proxy of
the interpreter at call time, so profiling hooks can be attached or
removed at any point. The proxy is what lets a finished interpreter be
freed by reference counting: a strong reference from its handler table
back to itself would keep it, its memory and every handler alive until
a full garbage collection.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from typing import Callable, List, Optional, Set

from typing import TYPE_CHECKING

from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode

if TYPE_CHECKING:  # avoid importing the sim package at module load
    from repro.sim.memory import Memory

_MASK64 = (1 << 64) - 1


def _wrap(value: int) -> int:
    """Wrap to signed 64-bit."""
    value &= _MASK64
    if value >= 1 << 63:
        value -= 1 << 64
    return value


class InterpreterLimit(Exception):
    """The step budget was exhausted before the program exited."""


@dataclass
class InterpStats:
    instructions: int = 0
    loads: int = 0
    stores: int = 0
    branches_taken: int = 0


class Interpreter:
    """Executes guest instructions one at a time."""

    def __init__(
        self,
        program: GuestProgram,
        memory: "Memory",
        registers: Optional[List[int]] = None,
        num_registers: int = 64,
    ) -> None:
        self.program = program
        self.memory = memory
        if registers is not None:
            self.registers = registers
        else:
            self.registers = [0] * num_registers
            for reg, value in program.initial_registers.items():
                self.registers[reg] = value
        self.pc = program.entry_pc
        self.stats = InterpStats()
        self.exited = False
        self.exit_code: Optional[int] = None
        #: called with the pc of every instruction executed (profiling)
        self.trace_hook: Optional[Callable[[int], None]] = None
        #: called as (pc, addr, size, is_store) on every memory access
        #: (alias profiling)
        self.mem_hook: Optional[Callable[[int, int, int, bool], None]] = None
        #: per-pc compiled handlers, filled lazily by :meth:`_compile`
        self._handlers: List[Optional[Callable[[], None]]] = (
            [None] * len(program)
        )

    # ------------------------------------------------------------------
    def step(self) -> None:
        """Execute one instruction at the current pc."""
        pc = self.pc
        handlers = self._handlers
        handler = handlers[pc] if 0 <= pc < len(handlers) else None
        if handler is None:
            handler = self._compile(pc)
        handler()

    # ------------------------------------------------------------------
    def _compile(self, pc: int) -> Callable[[], None]:
        """Build (and memoize) the specialized handler for one pc.

        Raises the same :class:`IndexError` as fetching an out-of-range pc
        used to, via :meth:`GuestProgram.at`.
        """
        inst = self.program.at(pc)
        self_ = weakref.proxy(self)
        regs = self.registers
        stats = self.stats
        memory = self.memory
        op = inst.opcode
        nxt = pc + 1
        handler: Callable[[], None]

        if op is Opcode.LD:
            base, disp, size, dest = inst.base, inst.disp, inst.size, inst.dest

            def handler() -> None:
                hook = self_.trace_hook
                if hook is not None:
                    hook(pc)
                stats.instructions += 1
                addr = regs[base] + disp
                mem_hook = self_.mem_hook
                if mem_hook is not None:
                    mem_hook(pc, addr, size, False)
                regs[dest] = memory.read(addr, size)
                stats.loads += 1
                self_.pc = nxt

        elif op is Opcode.ST:
            base, disp, size, src = inst.base, inst.disp, inst.size, inst.srcs[0]

            def handler() -> None:
                hook = self_.trace_hook
                if hook is not None:
                    hook(pc)
                stats.instructions += 1
                addr = regs[base] + disp
                mem_hook = self_.mem_hook
                if mem_hook is not None:
                    mem_hook(pc, addr, size, True)
                memory.write(addr, regs[src], size)
                stats.stores += 1
                self_.pc = nxt

        elif op is Opcode.BR:
            target = inst.target

            def handler() -> None:
                hook = self_.trace_hook
                if hook is not None:
                    hook(pc)
                stats.instructions += 1
                stats.branches_taken += 1
                self_.pc = target

        elif op in (Opcode.BEQ, Opcode.BNE, Opcode.BLT, Opcode.BGE):
            a = inst.srcs[0]
            b = inst.srcs[1] if len(inst.srcs) > 1 else None
            target = inst.target
            code = {
                Opcode.BEQ: 0, Opcode.BNE: 1, Opcode.BLT: 2, Opcode.BGE: 3
            }[op]

            def handler() -> None:
                hook = self_.trace_hook
                if hook is not None:
                    hook(pc)
                stats.instructions += 1
                av = regs[a]
                bv = regs[b] if b is not None else 0
                if code == 0:
                    taken = av == bv
                elif code == 1:
                    taken = av != bv
                elif code == 2:
                    taken = av < bv
                else:
                    taken = av >= bv
                if taken:
                    stats.branches_taken += 1
                    self_.pc = target
                else:
                    self_.pc = nxt

        elif op is Opcode.EXIT:
            exit_code = inst.target

            def handler() -> None:
                hook = self_.trace_hook
                if hook is not None:
                    hook(pc)
                stats.instructions += 1
                self_.exited = True
                self_.exit_code = exit_code

        else:
            body = _compile_alu(inst, regs)
            if body is None:

                def handler() -> None:
                    hook = self_.trace_hook
                    if hook is not None:
                        hook(pc)
                    stats.instructions += 1
                    raise ValueError(f"interpreter cannot execute {inst!r}")

            else:

                def handler() -> None:
                    hook = self_.trace_hook
                    if hook is not None:
                        hook(pc)
                    stats.instructions += 1
                    body()
                    self_.pc = nxt

        self._handlers[pc] = handler
        return handler

    # ------------------------------------------------------------------
    def run(self, max_steps: int = 10_000_000) -> int:
        """Run to EXIT; returns the exit code."""
        steps = 0
        handlers = self._handlers
        n = len(handlers)
        while not self.exited:
            if steps >= max_steps:
                raise InterpreterLimit(f"exceeded {max_steps} steps")
            pc = self.pc
            handler = handlers[pc] if 0 <= pc < n else None
            if handler is None:
                handler = self._compile(pc)
            handler()
            steps += 1
        return self.exit_code or 0

    def run_until(
        self, stop_pcs: Set[int], max_steps: int = 1_000_000
    ) -> Optional[int]:
        """Interpret until reaching a pc in ``stop_pcs`` (before executing
        it) or program exit. Returns the stop pc, or None on exit."""
        steps = 0
        handlers = self._handlers
        n = len(handlers)
        while not self.exited:
            pc = self.pc
            if pc in stop_pcs and steps > 0:
                return pc
            if steps >= max_steps:
                raise InterpreterLimit(f"exceeded {max_steps} steps")
            handler = handlers[pc] if 0 <= pc < n else None
            if handler is None:
                handler = self._compile(pc)
            handler()
            steps += 1
        return None


# ----------------------------------------------------------------------
# ALU compilation — one specialized closure per instruction, mirroring the
# original dispatch chain's semantics exactly (including immediate-form
# ADD/SUB, CMP's sign result, and the FP-as-integer arithmetic classes).
# ----------------------------------------------------------------------
def _compile_alu(
    inst: Instruction, regs: List[int]
) -> Optional[Callable[[], None]]:
    """The register-effect body for a non-memory, non-control opcode.

    Returns None for opcodes the interpreter cannot execute (the caller
    compiles a raising handler so the error still fires at execution
    time, after the trace hook and instruction count, as before).
    """
    op = inst.opcode
    dest = inst.dest
    srcs = inst.srcs
    imm = inst.imm

    if op is Opcode.MOVI:
        value = imm or 0
        return lambda: regs.__setitem__(dest, value)
    if op is Opcode.MOV:
        s0 = srcs[0]
        if imm is not None:
            return lambda: regs.__setitem__(dest, regs[s0] & imm)
        return lambda: regs.__setitem__(dest, regs[s0])
    if op in (Opcode.ADD, Opcode.SUB) and imm is not None:
        s0 = srcs[0]
        delta = imm if op is Opcode.ADD else -imm
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] + delta))
    if op is Opcode.ADD:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] + regs[s1]))
    if op is Opcode.SUB:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] - regs[s1]))
    if op is Opcode.MUL:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] * regs[s1]))
    if op is Opcode.AND:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, regs[s0] & regs[s1])
    if op is Opcode.OR:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, regs[s0] | regs[s1])
    if op is Opcode.XOR:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, regs[s0] ^ regs[s1])
    if op is Opcode.SHL:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(
            dest, _wrap(regs[s0] << (regs[s1] & 63))
        )
    if op is Opcode.SHR:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(
            dest, (regs[s0] & _MASK64) >> (regs[s1] & 63)
        )
    if op is Opcode.CMP:
        s0, s1 = srcs[0], srcs[1]

        def cmp_body() -> None:
            a, b = regs[s0], regs[s1]
            regs[dest] = (a > b) - (a < b)

        return cmp_body
    if op is Opcode.FADD:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] + regs[s1]))
    if op is Opcode.FSUB:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] - regs[s1]))
    if op is Opcode.FMUL:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(dest, _wrap(regs[s0] * regs[s1]))
    if op is Opcode.FDIV:
        s0, s1 = srcs[0], srcs[1]

        def fdiv_body() -> None:
            b = regs[s1]
            regs[dest] = regs[s0] // b if b else 0

        return fdiv_body
    if op is Opcode.FMA:
        s0, s1 = srcs[0], srcs[1]
        return lambda: regs.__setitem__(
            dest, _wrap(regs[dest] + regs[s0] * regs[s1])
        )
    if op is Opcode.NOP:
        return lambda: None
    return None
