"""Workload building blocks: a guest-program builder and loop-body patterns.

:class:`ProgramBuilder` assembles guest code images: data regions, setup
code (memory initialization, pointer seeding), and a hot main loop. The
body is composed from *patterns*, each a small realistic access idiom:

``stream``
    load from a strided array, run an FP chain, store to another array —
    the bread and butter of dense FP codes.
``rmw``
    load-modify-store of one location (``a[i] += ...``); the load/store
    pair MUST-aliases, and under ALAT-style hardware the hoisted load plus
    its own writeback store is the classic false-positive shape.
``indirect_load`` / ``indirect_store``
    access through a pointer loaded from a table — the base register is
    statically unknown, so every such access MAY-aliases everything the
    analysis cannot place; this is what forces speculation.
``redundant_load``
    reload of a location read earlier in the body across a MAY-alias store
    (speculative load elimination fodder).
``dead_store``
    store overwritten later in the body across MAY-alias loads
    (speculative store elimination fodder).
``slow_store``
    store whose data arrives from a long FP chain, followed by independent
    stores — reorder-sensitive (the mesa trait).
``chained_forwarding``
    two overlapping forwarding chains (a load reloaded across a store that
    is itself reloaded across a later store): the shape whose constraint
    cycle requires the allocator's AMOV cycle-breaking (paper Figures
    9/12), common in pointer codes that cache fields across updates.

Pointer tables are initialized so indirect accesses land in a private
scratch region except every ``collision_period``-th entry, which aliases a
direct store target — a deterministic runtime alias rate.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.frontend.program import GuestProgram
from repro.ir.instruction import Instruction, Opcode, branch, load, mov, movi, store
from repro.ir.instruction import binop, fbinop

WORD = 8


@dataclass
class WorkloadTraits:
    """Declarative description of one benchmark's hot loop."""

    name: str
    iterations: int = 2000
    #: number of sequential hot loops (phases); each forms its own
    #: superblock and runs ``iterations`` times
    phases: int = 1
    #: pattern counts composing the loop body
    streams: int = 2
    #: streams over *known* arrays: statically disambiguatable, so the
    #: baseline (no alias hardware) schedules them just as well — the knob
    #: that sets how much of the code needs speculation at all
    known_streams: int = 0
    rmws: int = 0
    indirect_loads: int = 0
    indirect_stores: int = 0
    redundant_loads: int = 0
    dead_stores: int = 0
    slow_stores: int = 0
    #: independent stores trailing each slow store; without store
    #: reordering they serialize behind it (the mesa sensitivity knob)
    slow_store_followers: int = 2
    chained_forwardings: int = 0
    #: derived-pointer walks: ``p1 = p + stride`` off an unknown array
    #: base, load through ``p``, store through ``p1``. Statically MAY to
    #: aliasinfo (the base is unknown), but the constant separation is
    #: provable — the alias certifier's bread and butter
    pointer_walks: int = 0
    #: like ``pointer_walks`` but the base pointer is *loaded* from the
    #: pointer table first, so the proof must track a loaded value
    pointer_chases: int = 0
    #: FP chain length inside stream/slow_store patterns
    fp_chain: int = 2
    #: arrays whose base registers the optimizer can place (region known)
    known_arrays: int = 1
    #: arrays reached through parameter-block loads (statically unknown)
    unknown_arrays: int = 2
    #: every Nth pointer-table entry collides with a direct store target
    #: (0 = never) — the runtime alias rate of indirect accesses
    collision_period: int = 0
    #: elements per array
    array_elements: int = 256


class ProgramBuilder:
    """Builds guest programs: regions, setup code, one hot loop."""

    def __init__(self, name: str, num_registers: int = 64) -> None:
        self.name = name
        self.num_registers = num_registers
        self.instructions: List[Instruction] = []
        self.region_map: Dict[str, Tuple[int, int]] = {}
        self.register_regions: Dict[int, str] = {}
        self._next_region_start = 0x1000
        self._next_reg = 1  # r0 stays zero by convention
        self._tmp_regs: List[int] = []

    # ------------------------------------------------------------------
    # Resources
    # ------------------------------------------------------------------
    def add_region(self, name: str, size: int) -> int:
        """Allocate a named data region; returns its base address."""
        start = self._next_region_start
        self.region_map[name] = (start, size)
        self._next_region_start = start + size + 0x100  # guard gap
        return start

    def fresh_reg(self) -> int:
        if self._next_reg >= self.num_registers - 4:
            raise RuntimeError("out of guest registers")
        reg = self._next_reg
        self._next_reg += 1
        return reg

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def emit(self, inst: Instruction) -> Instruction:
        self.instructions.append(inst)
        return inst

    def here(self) -> int:
        """Pc of the next emitted instruction."""
        return len(self.instructions)

    def init_word(self, addr: int, value: int, taddr: int, tval: int) -> None:
        """Setup-time store of one word using two scratch registers."""
        self.emit(movi(taddr, addr))
        self.emit(movi(tval, value))
        self.emit(store(taddr, tval, size=WORD))

    def build(self, entry_pc: int = 0) -> GuestProgram:
        """The finished (validated, immutable) program."""
        return GuestProgram(
            name=self.name,
            instructions=self.instructions,
            region_map=self.region_map,
            entry_pc=entry_pc,
            register_regions=self.register_regions,
        )


# ----------------------------------------------------------------------
# Trait-driven construction
# ----------------------------------------------------------------------
def build_from_traits(traits: WorkloadTraits) -> GuestProgram:
    """Assemble a complete guest program from a trait description."""
    b = ProgramBuilder(traits.name)
    elements = traits.array_elements
    # Patterns address up to ~1 KiB of displacement past the wrapped byte
    # offset; size regions so offset + max displacement stays in bounds.
    max_disp_bytes = 1024
    array_bytes = elements * WORD + max_disp_bytes

    # Data regions: known arrays, unknown arrays, a parameter block holding
    # the unknown arrays' base pointers, a pointer table for indirect
    # accesses, and a private scratch region they mostly land in.
    known_bases = [
        b.add_region(f"known{i}", array_bytes) for i in range(traits.known_arrays)
    ]
    unknown_bases = [
        b.add_region(f"unknown{i}", array_bytes)
        for i in range(traits.unknown_arrays)
    ]
    params_base = b.add_region("params", max(1, traits.unknown_arrays) * WORD)
    n_indirect = traits.indirect_loads + traits.indirect_stores
    # The table is walked with the loop's moving byte offset (up to
    # ``elements`` words) plus a fixed per-pattern slot displacement.
    table_len = elements + max(1, n_indirect) * 16
    table_base = b.add_region("ptrtable", table_len * WORD)
    scratch_base = b.add_region("scratch", max(array_bytes, table_len * WORD))

    # ------------------------------------------------------------------
    # Setup: fill the parameter block and the pointer table.
    # ------------------------------------------------------------------
    taddr, tval = b.fresh_reg(), b.fresh_reg()
    for i, base in enumerate(unknown_bases):
        b.init_word(params_base + i * WORD, base, taddr, tval)
    # Colliding entries alias addresses the *hoisted* stream loads read
    # (the unknown arrays): an indirect store through such an entry lands
    # on an address a speculatively hoisted load jumped over — a genuine
    # runtime alias the hardware must catch.
    collide_target = (
        unknown_bases[0]
        if unknown_bases
        else (known_bases[0] if known_bases else scratch_base)
    )
    for i in range(table_len):
        target = scratch_base + (i * 24) % (array_bytes - WORD)
        if traits.collision_period and (i + 1) % traits.collision_period == 0:
            target = collide_target + (i * WORD) % (elements * WORD)
        b.init_word(table_base + i * WORD, target, taddr, tval)

    # ------------------------------------------------------------------
    # Loop-invariant registers.
    # ------------------------------------------------------------------
    known_regs = []
    for i, base in enumerate(known_bases):
        reg = b.fresh_reg()
        b.emit(movi(reg, base))
        b.register_regions[reg] = f"known{i}"
        known_regs.append(reg)
    params_reg = b.fresh_reg()
    b.emit(movi(params_reg, params_base))
    b.register_regions[params_reg] = "params"
    table_reg = b.fresh_reg()
    b.emit(movi(table_reg, table_base))
    b.register_regions[table_reg] = "ptrtable"

    counter = b.fresh_reg()
    limit = b.fresh_reg()
    offset = b.fresh_reg()  # byte offset into arrays, wraps via AND
    offmask = b.fresh_reg()
    acc = b.fresh_reg()
    b.emit(movi(limit, traits.iterations))
    b.emit(movi(offmask, (elements - 1) * WORD))  # wraps within headroom
    b.emit(movi(acc, 1))

    # ------------------------------------------------------------------
    # Hot loops, one per phase; each forms its own superblock.
    # ------------------------------------------------------------------
    pool = [b.fresh_reg() for _ in range(24)]
    unknown_ptr_regs = [
        (b.fresh_reg(), b.fresh_reg()) for _ in range(traits.unknown_arrays)
    ]
    table_walk_reg = b.fresh_reg()
    for _ in range(max(1, traits.phases)):
        b.emit(movi(counter, 0))
        b.emit(movi(offset, 0))
        head = b.here()
        _emit_body(
            b, traits, known_regs, params_reg, table_reg, offset, acc,
            pool, unknown_ptr_regs, table_walk_reg,
        )
        # Induction: offset = (offset + WORD) & mask; counter += 1.
        step = Instruction(Opcode.ADD, dest=offset, srcs=(offset,), imm=WORD)
        b.emit(step)
        b.emit(binop(Opcode.AND, offset, offset, offmask))
        b.emit(Instruction(Opcode.ADD, dest=counter, srcs=(counter,), imm=1))
        b.emit(branch(Opcode.BLT, head, srcs=(counter, limit)))
    b.emit(branch(Opcode.EXIT, 0))
    return b.build()


def _emit_body(
    b: ProgramBuilder,
    traits: WorkloadTraits,
    known_regs: List[int],
    params_reg: int,
    table_reg: int,
    offset: int,
    acc: int,
    pool: List[int],
    unknown_ptr_regs: List[tuple],
    table_walk_reg: int = 0,
) -> None:
    """Emit one loop body composed of the trait-selected patterns.

    Each pattern instance draws *distinct* working registers from a
    round-robin pool, the way compiled (register-allocated, unrolled) code
    looks — otherwise register reuse serializes the body and hides the
    memory-ordering effects the experiments measure. The pool and the
    pointer registers are shared across phases (sequential loops reuse
    registers freely).
    """
    pool_next = 0

    def take(n: int) -> List[int]:
        nonlocal pool_next
        regs = [pool[(pool_next + k) % len(pool)] for k in range(n)]
        pool_next += n
        return regs

    def fp_chain(dst: int, src: int, depth: int) -> None:
        prev = src
        for d in range(depth):
            op = Opcode.FMUL if d % 2 == 0 else Opcode.FADD
            b.emit(fbinop(op, dst, prev, acc))
            prev = dst

    unknown_ptrs: List[int] = []
    for i, (ptr, addr) in enumerate(unknown_ptr_regs):
        # Reload the array base from the parameter block each iteration —
        # the binary-level idiom that defeats static disambiguation.
        b.emit(load(ptr, params_reg, disp=i * WORD, size=WORD))
        b.emit(binop(Opcode.ADD, addr, ptr, offset))
        unknown_ptrs.append(addr)

    table_idx = 0

    def next_table_slot() -> int:
        nonlocal table_idx
        slot = table_idx
        table_idx += 1
        return slot

    # The pointer table is walked with the moving offset so each iteration
    # chases different pointers — collisions (entries aliasing a direct
    # store target) recur once per collision_period entries.
    emitted_walk = []

    def table_addr() -> int:
        if not emitted_walk:
            b.emit(binop(Opcode.ADD, table_walk_reg, table_reg, offset))
            emitted_walk.append(True)
        return table_walk_reg

    # indirect stores first: they are the MAY-alias barriers later loads
    # must speculate past (this ordering is what creates the reorder win).
    for i in range(traits.indirect_stores):
        ptr, val = take(2)
        b.emit(load(ptr, table_addr(), disp=next_table_slot() * WORD, size=WORD))
        b.emit(fbinop(Opcode.FADD, val, acc, acc))
        b.emit(store(ptr, val, size=WORD))

    for i in range(traits.known_streams):
        # Disambiguatable stream: load and store both through known-region
        # bases — the baseline scheduler hoists these without hardware.
        src = known_regs[i % len(known_regs)] if known_regs else unknown_ptrs[0]
        val, tmp, daddr = take(3)
        b.emit(binop(Opcode.ADD, daddr, src, offset))
        b.emit(load(val, daddr, disp=(88 + i * 2) * WORD, size=WORD))
        fp_chain(tmp, val, traits.fp_chain)
        b.emit(store(daddr, tmp, disp=(104 + i * 2) * WORD, size=WORD))

    for i in range(traits.streams):
        src = unknown_ptrs[i % len(unknown_ptrs)] if unknown_ptrs else known_regs[0]
        val, tmp, daddr = take(3)
        b.emit(load(val, src, disp=i * WORD, size=WORD))
        fp_chain(tmp, val, traits.fp_chain)
        if known_regs:
            dst = known_regs[i % len(known_regs)]
            b.emit(binop(Opcode.ADD, daddr, dst, offset))
            b.emit(store(daddr, tmp, disp=(i * 2) * WORD, size=WORD))
        elif unknown_ptrs:
            dst = unknown_ptrs[(i + 1) % len(unknown_ptrs)]
            b.emit(store(dst, tmp, disp=(i * 2 + 1) * WORD, size=WORD))

    for i in range(traits.pointer_walks):
        # p1 = p + stride; st [p1+disp]; ld [p+disp]. The store lands
        # exactly ``stride`` past the load — never aliasing, but the
        # unknown base defeats aliasinfo, so hoisting the load above the
        # store costs plain SMARQ a runtime check the certifier can drop.
        base_ptr = (
            unknown_ptrs[i % len(unknown_ptrs)]
            if unknown_ptrs
            else known_regs[0]
        )
        val, tmp, walked = take(3)
        stride = (i + 1) * 8 * WORD
        disp = (16 + i * 2) * WORD
        b.emit(
            Instruction(Opcode.ADD, dest=walked, srcs=(base_ptr,), imm=stride)
        )
        fp_chain(tmp, acc, traits.fp_chain)
        b.emit(store(walked, tmp, disp=disp, size=WORD))
        b.emit(load(val, base_ptr, disp=disp, size=WORD))
        b.emit(fbinop(Opcode.FADD, acc, acc, val))

    for i in range(traits.pointer_chases):
        # Chase a table pointer, then walk it: q = ld [table]; q1 = q +
        # stride; st [q1]; ld [q]. Certifiable only by treating the
        # loaded pointer as one fixed unknown (fresh load symbol).
        ptr, val, walked = take(3)
        stride = (i + 1) * 4 * WORD
        b.emit(
            load(ptr, table_addr(), disp=next_table_slot() * WORD, size=WORD)
        )
        b.emit(
            Instruction(Opcode.ADD, dest=walked, srcs=(ptr,), imm=stride)
        )
        b.emit(store(walked, acc, size=WORD))
        b.emit(load(val, ptr, size=WORD))
        b.emit(fbinop(Opcode.FADD, acc, acc, val))

    for i in range(traits.rmws):
        target = unknown_ptrs[i % len(unknown_ptrs)] if unknown_ptrs else known_regs[0]
        disp = (16 + i * 2) * WORD
        (val,) = take(1)
        b.emit(load(val, target, disp=disp, size=WORD))
        b.emit(fbinop(Opcode.FADD, val, val, acc))
        b.emit(store(target, val, disp=disp, size=WORD))

    for i in range(traits.indirect_loads):
        ptr, val = take(2)
        b.emit(load(ptr, table_addr(), disp=next_table_slot() * WORD, size=WORD))
        b.emit(load(val, ptr, size=WORD))
        b.emit(fbinop(Opcode.FADD, acc, acc, val))

    for i in range(traits.redundant_loads):
        src = unknown_ptrs[i % len(unknown_ptrs)] if unknown_ptrs else known_regs[0]
        disp = (32 + i * 2) * WORD
        first, second = take(2)
        b.emit(load(first, src, disp=disp, size=WORD))
        b.emit(fbinop(Opcode.FADD, acc, acc, first))
        if unknown_ptrs:
            # a MAY-alias store between the two loads makes the reload's
            # elimination speculative
            barrier = unknown_ptrs[(i + 1) % len(unknown_ptrs)]
            b.emit(store(barrier, acc, disp=(48 + i) * WORD, size=WORD))
        b.emit(load(second, src, disp=disp, size=WORD))
        b.emit(fbinop(Opcode.FADD, acc, acc, second))

    for i in range(traits.dead_stores):
        dst = known_regs[i % len(known_regs)] if known_regs else unknown_ptrs[0]
        disp = (64 + i * 2) * WORD
        val, tmp = take(2)
        b.emit(store(dst, acc, disp=disp, size=WORD))
        if unknown_ptrs:
            # MAY-alias load between the two stores makes the elimination
            # speculative (EXTENDED-DEPENDENCE 2 territory)
            src = unknown_ptrs[i % len(unknown_ptrs)]
            b.emit(load(val, src, disp=(80 + i) * WORD, size=WORD))
            b.emit(fbinop(Opcode.FADD, acc, acc, val))
        b.emit(fbinop(Opcode.FMUL, tmp, acc, acc))
        b.emit(store(dst, tmp, disp=disp, size=WORD))

    for i in range(traits.chained_forwardings):
        # A: ld [u_a]; Z: st [u_b] = v; E1: ld [u_a] (forwarded from A);
        # B: st [u_c+disp'] = v; E2: ld [u_b] (forwarded from Z) — the
        # two chained eliminations whose constraints cycle (AMOV shape).
        if not unknown_ptrs:
            break
        u_a = unknown_ptrs[i % len(unknown_ptrs)]
        u_b = unknown_ptrs[(i + 1) % len(unknown_ptrs)]
        u_c = unknown_ptrs[(i + 2) % len(unknown_ptrs)]
        disp_a = (96 + i * 2) * WORD
        disp_b = (112 + i * 2) * WORD
        v1, v2, v3, w = take(4)
        b.emit(load(v1, u_a, disp=disp_a, size=WORD))
        b.emit(fbinop(Opcode.FADD, w, v1, acc))
        b.emit(store(u_b, w, disp=disp_b, size=WORD))
        b.emit(load(v2, u_a, disp=disp_a, size=WORD))   # E1 <- v1
        b.emit(fbinop(Opcode.FADD, acc, acc, v2))
        b.emit(store(u_c, acc, disp=(120 + i) * WORD, size=WORD))
        b.emit(load(v3, u_b, disp=disp_b, size=WORD))   # E2 <- w
        b.emit(fbinop(Opcode.FADD, acc, acc, v3))

    for i in range(traits.slow_stores):
        # store fed by a long FP chain, followed by independent MAY-alias
        # stores that want to reorder above it
        target = unknown_ptrs[i % len(unknown_ptrs)] if unknown_ptrs else known_regs[0]
        (tmp,) = take(1)
        fp_chain(tmp, acc, traits.fp_chain * 3)
        b.emit(store(target, tmp, disp=(64 + i * 8) * WORD, size=WORD))
        for j in range(traits.slow_store_followers):
            other = (
                unknown_ptrs[(i + 1 + j) % len(unknown_ptrs)]
                if unknown_ptrs
                else known_regs[0]
            )
            b.emit(store(other, acc, disp=(40 + i * 8 + j) * WORD, size=WORD))
