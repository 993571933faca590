"""Replay kernels compiled from the numeric replay IR.

A hot trace's functional replay runs on one of four tiers (selected by
``SMARQ_REPLAY_BACKEND`` or by per-trace promotion, see
:mod:`repro.sim.vliw`):

``interp``
    the simulator's generic dispatch loop over the compiled trace — the
    oracle, not compiled here;
``py``
    :func:`compile_py` — a straight-line Python function generated from
    the IR: inlined 64-bit ALU arithmetic, memory through the
    :class:`~repro.sim.memory.Memory` accessors the dispatch loop calls,
    and the adapter's hardware events lowered to direct scalar model
    calls. It is exact by construction, and runs only when
    ``SMARQ_REPLAY_BACKEND=py`` forces it: a trace neither kernel below
    can lower stays on ``interp``;
``vec``
    :func:`compile_vec` — the alias hardware is **simulated statically at
    compile time** over the IR's event stream (every queue/ALAT/bit-mask
    operand is trace-static), reducing each region execution to register
    locals, word-indexed memory access and the irreducible runtime
    residue: one mask test per base register and segment, word-index
    equality tests for the alias pairs (pruned when two accesses
    provably share a base register), plus constant hardware-stat deltas
    at each exit. Anything the static model cannot decide — a bounds
    violation, a misaligned base, a possible alias overlap — returns
    :data:`FALLBACK` and the caller rolls back and re-executes that one
    execution on the dispatch loop; the kernel itself never touches
    adapter state, and stays the trace's kernel however often it
    escapes;
``batch``
    :func:`compile_batch` — the vec residue wrapped in an iteration
    loop over the trace's structural back-edge: when a region's commit
    exit re-enters the region itself, up to ``vliw._BATCH_WIDTH`` (256)
    consecutive iterations run inside one kernel call, amortizing the
    per-execution call/plan/outcome ceremony. Called with ``n = 1`` it
    is exactly one vec execution, so it is the one kernel of every
    trace that has a back-edge. An escape trims the batch
    (:data:`BATCH_TRIM`): the caller rolls back the broken iteration's
    stores and re-runs it on the dispatch loop. Only that iteration can
    roll back, so committed iterations log nothing: each store keeps
    the word it overwrites in a local, and the kernel returns the
    broken iteration's ``(word index, old word)`` pairs. Accounting is
    exact per iteration — N batched commits are indistinguishable from
    N scalar executions.

The two kernels share one lowering (:class:`_ResidueEmitter`), so they
accept and reject the same traces; ``compile_batch`` additionally needs a
structural back-edge (:func:`repro.sim.replay_ir.loop_candidate`).

Kernels index guest memory's word list
(:attr:`repro.sim.memory.Memory.words`), so they lower only traces whose
every access is 8 bytes wide at a displacement that is a multiple of 8.
For such accesses two byte ranges overlap exactly when their word
indexes are equal. Accesses through one base register version within
one *segment* (the ops between two exits) share one guard at the first
of them: one mask test of the group's lowest address, ``if a & _G``,
which escapes when it is negative, misaligned or at least ``2**30``,
then binds the group's word index, the word at that address, of which
each access is a constant, non-negative offset. The upper bound is the
word list's own: an index past its end raises ``IndexError``, and the
kernel's handler escapes. That bound is the memory's only when its size
is a whole number of words, so a kernel called on any other memory
escapes at once. A segment holds no exit, and every escape re-runs the
whole execution on the dispatch loop, so an escape at the group's guard
or at any of its accesses is the same escape of the same execution. An
alias check tests each base group of its targets once: one comparison,
or one subtraction and one constant-set test. A store's ``(word index,
old word)`` pair is an undo entry on the vec tier, as on every other
tier, and two locals on the batch tier.

Kernel source is a translation cost paid at run time, and ``compile()``
time tracks AST nodes, so the emitter keeps the rare paths small: a
batch kernel spells its register writeback once, in one epilogue shared
by the full batch, every side exit and escape. Per iteration, a batch
kernel's back edge normalizes a deferred wrap only when the next
iteration reads the register before writing it; the others are
normalized once, where they leave the kernel. Its snapshot of the
committed registers is one tuple per :data:`_SNAPSHOT_CHUNK` registers,
each of which CPython builds in one step.

A trace's lowered IR and compiled functions are a
:class:`ReplayArtifact`. The artifacts of a translation live in its
translation-cache entry (:mod:`repro.opt.translation_cache`), one per
adapter class and
:meth:`~repro.sim.schemes.HardwareAdapter.replay_config_key`, so the
cache's content-identical region clones (one per repeated run of a
benchmark, for instance) never re-generate identical replay code, and
an evicted entry takes its artifacts with it. Timing plans are
deliberately *not* shared — they hold per-region exit outcomes and stay
on the region object.

Each ``compile_*`` pops its kernel out of the globals dict it was
``exec``-ed in. The kernel keeps that dict as its ``__globals__``, so a
kernel left in it too would make every dropped artifact a reference
cycle that only the cyclic collector frees, and
:meth:`repro.sim.dbt.DbtSystem.run` pauses that collector. No kernel
refers to itself by name.
"""

from __future__ import annotations

from typing import Callable, List, Optional, Tuple

from repro.hw.exceptions import AliasException
from repro.sim import replay_ir as R

_MASK64 = (1 << 64) - 1
_HIGH = 1 << 63
_TOP = 1 << 64

#: shared empty required-target set for ALAT store checks
_EMPTY_TARGETS = frozenset()

#: sentinel returned by a vec kernel when a runtime fact escapes its
#: static model; the caller rolls back and re-runs the dispatch loop
FALLBACK = (-2, -1, None)

#: exit-kind sentinel in a batch kernel's result tuple: the current
#: iteration escaped mid-flight (a guard, an alias test or an access
#: past the word list's end); the caller rolls back the iteration's
#: stores and re-runs it on the dispatch loop
BATCH_TRIM = -2

#: a group guard's mask, bound in each kernel as ``_G``: ``a & _G`` is
#: nonzero exactly when ``a`` is negative, not 8-aligned or at least
#: ``2**30``. The mask and every address below ``2**30`` are
#: single-digit ints, which CPython's ``&`` serves on its fast path
_GUARD_MASK = -(1 << 30) | 7

#: the most registers one back-edge snapshot tuple holds: CPython 3.11
#: builds a display of more items one append at a time
_SNAPSHOT_CHUNK = 30


# ----------------------------------------------------------------------
# py backend
# ----------------------------------------------------------------------
def _prologue(ir: R.ReplayIR) -> List[str]:
    kinds = set()
    for grp in ir.events:
        for ev in grp:
            kinds.add(ev[0])
    stmts: List[str] = []
    if kinds & R.QUEUE_EVENTS:
        stmts += [
            "q = ad.queue",
            "q_chk = q.check_range",
            "q_set = q.set_range",
            "q_rot = q.rotate",
            "q_amov = q.amov",
        ]
    if kinds & R.ALAT_EVENTS:
        stmts += [
            "al = ad.alat",
            "al_sc = al.store_check_range",
            "al_al = al.advanced_load_range",
            "req_get = ad._required.get",
        ]
    if kinds & R.BITMASK_EVENTS:
        stmts += [
            "bf = ad.file",
            "bf_chk = bf.check_range",
            "bf_set = bf.set_range",
        ]
    return stmts


def _event_stmts(ir: R.ReplayIR, evt: int, env: dict) -> List[str]:
    """Statements servicing one op's lowered event group (``a`` holds the
    memory-op address in the generated scope)."""
    out: List[str] = []
    for ev in ir.events[evt]:
        e = ev[0]
        if e == R.E_QCHK:
            _, off, size, il, mi = ev
            out.append(f"q_chk({off}, a, {size}, {bool(il)}, {mi})")
        elif e == R.E_QSET:
            _, off, size, il, mi = ev
            out.append(f"q_set({off}, a, {size}, {bool(il)}, {mi})")
        elif e == R.E_ROT:
            out.append(f"q_rot({ev[1]})")
        elif e == R.E_AMOV:
            out.append(f"q_amov({ev[1]}, {ev[2]})")
        elif e == R.E_ACHK:
            _, size, il, mi = ev
            env["EMPTY_TARGETS"] = _EMPTY_TARGETS
            out.append(
                f"al_sc(a, {size}, {bool(il)}, {mi}, "
                f"req_get({mi}, EMPTY_TARGETS))"
            )
        elif e == R.E_AINS:
            _, mi, size, il = ev
            out.append(f"al_al({mi}, a, {size}, {bool(il)})")
        elif e == R.E_BCHK:
            _, mask, size, il, mi = ev
            out.append(f"bf_chk({mask}, a, {size}, {bool(il)}, {mi})")
        else:  # E_BSET
            _, idx, size, il, mi = ev
            out.append(f"bf_set({idx}, a, {size}, {bool(il)}, {mi})")
    return out


def compile_py(ir: R.ReplayIR) -> Callable:
    """Generate the straight-line ``py`` replay function from the IR.

    The generated function performs exactly the per-entry effects of the
    planned dispatch loop in
    :meth:`repro.sim.vliw.VliwSimulator._execute_planned` and returns
    ``(idx, exit_kind, payload)`` where ``payload`` is the side-exit /
    commit target pc, the program exit code, or the caught
    :class:`~repro.hw.exceptions.AliasException`; ``idx`` is the index of
    the last op whose effect ran (with ``exit_kind``, the key of the
    timing plan's exit outcome).
    Memory goes through the accessors the dispatch loop calls —
    ``mread`` is :meth:`~repro.sim.memory.Memory.read` and ``mstore``
    :meth:`~repro.sim.memory.Memory.write_logged` — so an out-of-bounds
    access raises the same :class:`~repro.sim.memory.MemoryFault` and a
    store logs the same ``(word index, old word)`` undo entries.
    """
    env: dict = {"A": AliasException}
    lines: List[str] = [
        "def _replay(regs, mread, mstore, ad, undo_append):",
    ]
    emit = lines.append
    for stmt in _prologue(ir):
        emit(f"    {stmt}")
    emit("    i = -1")
    emit("    try:")
    pad = "        "

    def emit_wrap(dest: int, expr: str) -> None:
        emit(f"{pad}w = ({expr}) & {_MASK64}")
        emit(f"{pad}regs[{dest}] = w - {_TOP} if w >= {_HIGH} else w")

    for k, op in enumerate(ir.ops):
        t = op[0]
        if t == R.OP_ALU:
            _, kind, d, a, b, imm = op
            if kind == R.A_MOVI:
                emit(f"{pad}regs[{d}] = {imm}")
            elif kind == R.A_MOV:
                mask = "" if imm is None else f" & {imm}"
                emit(f"{pad}regs[{d}] = regs[{a}]{mask}")
            elif kind == R.A_ADDI:
                emit_wrap(d, f"regs[{a}] + {imm}")
            elif kind == R.A_ADD:
                emit_wrap(d, f"regs[{a}] + regs[{b}]")
            elif kind == R.A_SUB:
                emit_wrap(d, f"regs[{a}] - regs[{b}]")
            elif kind == R.A_MUL:
                emit_wrap(d, f"regs[{a}] * regs[{b}]")
            elif kind == R.A_AND:
                emit(f"{pad}regs[{d}] = regs[{a}] & regs[{b}]")
            elif kind == R.A_OR:
                emit(f"{pad}regs[{d}] = regs[{a}] | regs[{b}]")
            elif kind == R.A_XOR:
                emit(f"{pad}regs[{d}] = regs[{a}] ^ regs[{b}]")
            elif kind == R.A_SHL:
                emit_wrap(d, f"regs[{a}] << (regs[{b}] & 63)")
            elif kind == R.A_SHR:
                emit(
                    f"{pad}regs[{d}] = (regs[{a}] & {_MASK64}) >> "
                    f"(regs[{b}] & 63)"
                )
            elif kind == R.A_CMP:
                emit(f"{pad}av = regs[{a}]")
                emit(f"{pad}bv = regs[{b}]")
                emit(f"{pad}regs[{d}] = (av > bv) - (av < bv)")
            elif kind == R.A_FDIV:
                emit(f"{pad}bv = regs[{b}]")
                emit(f"{pad}regs[{d}] = regs[{a}] // bv if bv else 0")
            else:  # A_FMA
                emit_wrap(d, f"regs[{d}] + regs[{a}] * regs[{b}]")
        elif t == R.OP_LD:
            _, dreg, base, disp, size, evt = op
            addr = f"regs[{base}] + {disp}" if disp else f"regs[{base}]"
            emit(f"{pad}a = {addr}")
            if evt is not None:
                stmts = _event_stmts(ir, evt, env)
                if stmts:
                    emit(f"{pad}i = {k}")
                    for stmt in stmts:
                        emit(f"{pad}{stmt}")
            emit(f"{pad}regs[{dreg}] = mread(a, {size})")
        elif t == R.OP_ST:
            _, sreg, base, disp, size, evt = op
            addr = f"regs[{base}] + {disp}" if disp else f"regs[{base}]"
            emit(f"{pad}a = {addr}")
            if evt is not None:
                stmts = _event_stmts(ir, evt, env)
                if stmts:
                    emit(f"{pad}i = {k}")
                    for stmt in stmts:
                        emit(f"{pad}{stmt}")
            emit(f"{pad}mstore(a, regs[{sreg}], {size}, undo_append)")
        elif t == R.OP_CBR:
            _, code, a, b, pay = op
            cmp_op = ("==", "!=", "<", ">=")[code]
            rhs = f"regs[{b}]" if b is not None else "0"
            emit(f"{pad}if regs[{a}] {cmp_op} {rhs}:")
            emit(f"{pad}    return ({k}, {R.X_SIDE}, {ir.payloads[pay]!r})")
        elif t == R.OP_BR:
            emit(f"{pad}return ({k}, {R.X_BR}, {ir.payloads[op[1]]!r})")
        elif t == R.OP_EXIT:
            emit(f"{pad}return ({k}, {R.X_EXIT}, {ir.payloads[op[1]]!r})")
        elif t == R.OP_EVT:
            if op[1] is not None:
                for stmt in _event_stmts(ir, op[1], env):
                    emit(f"{pad}{stmt}")
        # OP_NOP: no functional effect (timing plan accounts its slot)
    emit(f"{pad}return ({len(ir.ops) - 1}, {R.X_FALL}, None)")
    emit("    except A as e:")
    emit(f"        return (i, {R.X_ALIAS}, e)")
    exec(compile("\n".join(lines), "<vliw-replay-py>", "exec"), env)
    return env.pop("_replay")  # type: ignore[return-value]


# ----------------------------------------------------------------------
# vec backend
# ----------------------------------------------------------------------
class _StaticHw:
    """Compile-time simulation of one adapter family's alias hardware.

    Every operand of the queue / ALAT / bit-mask models except the
    access *addresses* is trace-static, so entry liveness, scan lengths,
    rotation, eviction and the full stat stream can be resolved at
    compile time. The one runtime residue is pairwise address overlap;
    each check returns the (word-index expression, size) pairs it must
    test, and the kernel falls back when any test fires (the dispatch
    loop then reproduces the exact exception, ordering and partial
    stats).
    """

    __slots__ = ("family", "stats", "entries", "orders", "base", "limit",
                 "max_live")

    def __init__(self, family: str, limit: int) -> None:
        self.family = family
        self.limit = limit
        self.stats = {}
        self.entries = {}  # key -> (word-index expression, size, is_load)
        self.orders: List[int] = []  # sorted keys (queue orders/ALAT keys)
        self.base = 0
        self.max_live = 0

    def _bump(self, name: str, n: int = 1) -> None:
        self.stats[name] = self.stats.get(name, 0) + n

    # -- queue ---------------------------------------------------------
    def q_set(self, off: int, addr: str, size: int, il: int) -> bool:
        if off < 0 or off >= self.limit or size <= 0:
            return False
        order = self.base + off
        if order not in self.entries:
            self.orders.append(order)
            self.orders.sort()
        self.entries[order] = (addr, size, il)
        self._bump("sets")
        if len(self.entries) > self.max_live:
            self.max_live = len(self.entries)
        return True

    def q_check(self, off: int, size: int, il: int):
        if off < 0 or off >= self.limit or size <= 0:
            return None
        own = self.base + off
        pairs = []
        for order in self.orders:
            if order < own:
                continue
            e_addr, e_size, e_il = self.entries[order]
            if il and e_il:
                continue
            pairs.append((e_addr, e_size))
        self._bump("comparisons", len(pairs))
        self._bump("checks")
        return pairs

    def q_rotate(self, amount: int) -> bool:
        if amount < 0:
            return False
        new_base = self.base + amount
        self.orders = [o for o in self.orders if o >= new_base]
        self.entries = {
            o: e for o, e in self.entries.items() if o >= new_base
        }
        self.base = new_base
        self._bump("rotations")
        self._bump("rotated_registers", amount)
        return True

    def q_amov(self, src: int, dst: int) -> bool:
        if not (0 <= src < self.limit and 0 <= dst < self.limit):
            return False
        src_order = self.base + src
        entry = self.entries.pop(src_order, None)
        if entry is not None:
            self.orders.remove(src_order)
            if src != dst:
                dst_order = self.base + dst
                if dst_order not in self.entries:
                    self.orders.append(dst_order)
                    self.orders.sort()
                self.entries[dst_order] = entry
        self._bump("amovs")
        return True

    # -- ALAT ----------------------------------------------------------
    def alat_insert(self, mem_index: int, addr: str, size: int,
                    il: int) -> bool:
        if size <= 0:
            return False
        if len(self.entries) >= self.limit:
            oldest = self.orders.pop(0)
            del self.entries[oldest]
        if mem_index not in self.entries:
            self.orders.append(mem_index)
            self.orders.sort()
        self.entries[mem_index] = (addr, size, il)
        self._bump("inserts")
        return True

    def alat_store_check(self, size: int):
        if size <= 0:
            return None
        pairs = [
            (self.entries[key][0], self.entries[key][1])
            for key in self.orders
        ]
        self._bump("store_checks")
        self._bump("comparisons", len(pairs))
        return pairs

    # -- bit-mask file -------------------------------------------------
    def bm_set(self, index: int, addr: str, size: int, il: int) -> bool:
        if not 0 <= index < self.limit or size <= 0:
            return False
        self.entries[index] = (addr, size, il)
        self._bump("sets")
        return True

    def bm_check(self, mask: int, size: int):
        if size <= 0 or mask < 0 or mask >= (1 << self.limit):
            return None
        pairs = []
        for index in range(self.limit):
            if mask & (1 << index) and index in self.entries:
                e_addr, e_size, _e_il = self.entries[index]
                pairs.append((e_addr, e_size))
        self._bump("checks")
        self._bump("comparisons", len(pairs))
        return pairs


#: stat attribute emission order per hardware family (matches the
#: dataclass fields the models expose; ``max_live`` is handled apart)
_STAT_TARGETS = {
    "queue": ("ad.queue.stats",
              ("sets", "checks", "comparisons", "rotations",
               "rotated_registers", "amovs")),
    "alat": ("ad.alat.stats", ("inserts", "store_checks", "comparisons")),
    "bitmask": ("ad.file.stats", ("sets", "checks", "comparisons")),
}


def _hw_family(ir: R.ReplayIR):
    kinds = set()
    for grp in ir.events:
        for ev in grp:
            kinds.add(ev[0])
    if kinds & R.QUEUE_EVENTS:
        return "queue"
    if kinds & R.ALAT_EVENTS:
        return "alat"
    if kinds & R.BITMASK_EVENTS:
        return "bitmask"
    return None


#: ALU kinds whose result is emitted via the signed 64-bit wrap
_WRAP_KINDS = frozenset(
    (R.A_ADDI, R.A_ADD, R.A_SUB, R.A_MUL, R.A_SHL, R.A_FMA)
)


def _wrapped(expr: str) -> str:
    """Branchless signed wrap of ``expr``: ((v + 2**63) mod 2**64) - 2**63."""
    return f"({expr} + {_HIGH} & {_MASK64}) - {_HIGH}"


def _defer_wraps(ir: R.ReplayIR):
    """Op indices whose ALU wrap may be deferred to the consumer.

    The signed wrap is congruence-preserving (mod 2**64), so a wrapped
    def whose every use is *wrap-transparent* — an operand of another
    wrapped op, a shift amount or shifted value (only the low bits
    matter), a store value (masked at the access), the source of a
    masked move (a forwarded store value) or a memory base (a
    raw base outside the signed range fails its group guard, and the
    execution escapes) — can stay as the raw Python int and let each
    consumer normalize. Opaque uses (signed compares, bitwise ops on the
    raw mixed-sign representation, floor division, plain moves) force
    the wrap at the def so the interp tier's exact value representation
    is reproduced. Commit-time register writeback of a deferred value
    wraps at the exit site instead (executed once per region, not once
    per def).
    """
    live = {}  # reg -> candidate wrap-def op index
    wraps = set()
    bad = set()

    def u(reg, transparent=True):
        if reg is None or transparent:
            return
        k0 = live.get(reg)
        if k0 is not None:
            bad.add(k0)

    for k, op in enumerate(ir.ops):
        t = op[0]
        if t == R.OP_ALU:
            _, kind, d, a, b, imm = op
            if kind == R.A_MOV:
                u(a, imm is not None)  # a masked move reads the low bits
            elif kind == R.A_ADDI:
                u(a)
            elif kind in (R.A_ADD, R.A_SUB, R.A_MUL, R.A_SHL, R.A_SHR):
                u(a)
                u(b)
            elif kind == R.A_FMA:
                u(d)
                u(a)
                u(b)
            elif kind != R.A_MOVI:  # AND/OR/XOR/CMP/FDIV: raw values
                u(a, False)
                u(b, False)
            if kind in _WRAP_KINDS:
                live[d] = k
                wraps.add(k)
            else:
                live.pop(d, None)
        elif t == R.OP_LD:
            u(op[2])  # base: a raw one fails its guard
            live.pop(op[1], None)  # loaded value is canonical unsigned
        elif t == R.OP_ST:
            u(op[1])  # store value: masked at the access
            u(op[2])
        elif t == R.OP_CBR:
            u(op[2], False)  # signed compare sees the exact value
            if op[3] is not None:
                u(op[3], False)
    return wraps - bad


def _word_only(ir: R.ReplayIR) -> bool:
    """True when every access is one aligned word: 8 bytes at a
    displacement that is a multiple of 8. Kernels lower nothing else;
    the alias events of an access carry the access's own size."""
    return all(
        op[4] == 8 and not op[3] & 7
        for op in ir.ops
        if op[0] == R.OP_LD or op[0] == R.OP_ST
    )


#: ops that end a guard segment: every exit site
_SEGMENT_ENDS = frozenset((R.OP_CBR, R.OP_BR, R.OP_EXIT))


def _access_groups(ir: R.ReplayIR):
    """Group the accesses by (base register, base version, segment); a
    segment ends at every exit site.

    Returns ``(group_of, lows)``: ``group_of[k]`` is ``(base, version,
    g)`` for access ``k``, where ``g`` is the op index of the group's
    first access, and ``lows[g]`` is the group's smallest displacement,
    the address its one guard tests."""
    version: dict = {}
    first: dict = {}
    group_of: dict = {}
    lows: dict = {}
    seg = 0
    for k, op in enumerate(ir.ops):
        t = op[0]
        if t == R.OP_LD or t == R.OP_ST:
            base, disp = op[2], op[3]
            ver = version.get(base, 0)
            g = first.setdefault((base, ver, seg), k)
            group_of[k] = (base, ver, g)
            lows[g] = min(lows.get(g, disp), disp)
            if t == R.OP_LD:
                version[op[1]] = version.get(op[1], 0) + 1
        elif t == R.OP_ALU:
            version[op[2]] = version.get(op[2], 0) + 1
        elif t in _SEGMENT_ENDS:
            seg += 1
    return group_of, lows


def _plus(expr: str, n: int) -> str:
    """``expr + n`` as source, with no ``+ 0`` and no ``+ -n``."""
    if not n:
        return expr
    return f"{expr} + {n}" if n > 0 else f"{expr} - {-n}"


class _ResidueEmitter:
    """Codegen core shared by the ``vec`` and ``batch`` kernels.

    Owns one body's emission state — register locals, access groups and
    their word indexes, CSE value numbers, deferred wraps and the static
    hardware simulation — and walks the IR emitting residue statements
    into ``lines``. Exit sites and store statements are delegated to the
    caller's hooks so the two kernels can disagree about what an exit
    does (vec: write back + return; batch: continue the iteration loop
    at the back-edge site, record a side exit or a full batch and break
    to the shared epilogue) and how a store keeps the word it overwrites
    (vec: an undo entry; batch: a local).

    ``fb`` is the statement executed when a runtime fact escapes the
    static model (vec: ``return _FB``; batch: ``break`` out of the
    iteration loop into the epilogue). The kernel wraps the body in an
    ``IndexError`` handler that escapes too: an access past the word
    list's end is a group guard's upper bound.
    """

    __slots__ = (
        "ir", "guest_count", "family", "hw", "emit", "pad", "fb",
        "defer_ok", "bound", "written", "written_set", "version",
        "group_of", "lows", "syms", "deferred_now", "cse",
    )

    def __init__(self, ir: R.ReplayIR, guest_count: int, family,
                 limit: int, lines: List[str], pad: str,
                 fb: str = "return _FB") -> None:
        self.ir = ir
        self.guest_count = guest_count
        self.family = family
        self.hw = _StaticHw(family, limit) if family else None
        self.emit = lines.append
        self.pad = pad
        self.fb = fb
        self.defer_ok = _defer_wraps(ir)
        self.bound = set()  # registers with a live local
        self.written: List[int] = []  # registers written, in first-write order
        self.written_set = set()
        self.version: dict = {}  # register -> def count (CSE validity)
        self.group_of, self.lows = _access_groups(ir)
        self.syms: dict = {}  # index -> (base, version, disp, group, offset)
        self.deferred_now = set()  # regs whose local holds a raw (unwrapped) value
        self.cse: dict = {}  # value-number key -> (reg, version at def, raw?)

    # -- register locals -----------------------------------------------
    def use(self, reg: int) -> str:
        name = f"r{reg}"
        if reg not in self.bound:
            if reg < self.guest_count:
                self.emit(f"{self.pad}{name} = regs[{reg}]")
            else:
                self.emit(f"{self.pad}{name} = 0")
            self.bound.add(reg)
        return name

    def define(self, reg: int) -> str:
        if reg not in self.written_set:
            self.written_set.add(reg)
            self.written.append(reg)
        self.bound.add(reg)
        self.deferred_now.discard(reg)
        self.version[reg] = self.version.get(reg, 0) + 1
        return f"r{reg}"

    def emit_wrap(self, dest: int, expr: str) -> None:
        name = self.define(dest)
        self.emit(f"{self.pad}{name} = {_wrapped(f'({expr})')}")

    def alu_op(self, k: int, kind: int, d: int, a, b, imm) -> None:
        """One ALU op: value-numbered (a repeat of a still-valid pure
        expression becomes a local copy) and wrap-deferred where
        :func:`_defer_wraps` proved every use normalizes anyway."""
        emit = self.emit
        pad = self.pad
        use = self.use
        version = self.version
        cse = self.cse
        want_defer = k in self.defer_ok
        key = None
        if kind not in (R.A_MOVI, R.A_MOV, R.A_FMA):
            key = (kind, a, version.get(a, 0), b,
                   version.get(b, 0) if b is not None else None, imm)
            hit = cse.get(key)
            if hit is not None:
                s_reg, s_ver, s_raw = hit
                if version.get(s_reg, 0) == s_ver:
                    sname = f"r{s_reg}"
                    name = self.define(d)
                    if s_raw and not want_defer:
                        emit(f"{pad}{name} = {_wrapped(sname)}")
                        s_raw = False
                    elif name != sname:
                        emit(f"{pad}{name} = {sname}")
                    if s_raw:
                        self.deferred_now.add(d)
                    cse[key] = (d, version[d], s_raw)
                    return
        if kind == R.A_MOVI:
            emit(f"{pad}{self.define(d)} = {imm}")
        elif kind == R.A_MOV:
            src = use(a) if imm is None else f"{use(a)} & {imm}"
            emit(f"{pad}{self.define(d)} = {src}")
        else:
            wrapped = kind in _WRAP_KINDS
            if kind == R.A_ADDI:
                expr = f"{use(a)} + {imm}"
            elif kind == R.A_ADD:
                expr = f"{use(a)} + {use(b)}"
            elif kind == R.A_SUB:
                expr = f"{use(a)} - {use(b)}"
            elif kind == R.A_MUL:
                expr = f"{use(a)} * {use(b)}"
            elif kind == R.A_AND:
                expr = f"{use(a)} & {use(b)}"
            elif kind == R.A_OR:
                expr = f"{use(a)} | {use(b)}"
            elif kind == R.A_XOR:
                expr = f"{use(a)} ^ {use(b)}"
            elif kind == R.A_SHL:
                expr = f"{use(a)} << ({use(b)} & 63)"
            elif kind == R.A_SHR:
                expr = f"({use(a)} & {_MASK64}) >> ({use(b)} & 63)"
            elif kind == R.A_CMP:
                av, bv = use(a), use(b)
                expr = f"({av} > {bv}) - ({av} < {bv})"
            elif kind == R.A_FDIV:
                av, bv = use(a), use(b)
                expr = f"{av} // {bv} if {bv} else 0"
            else:  # A_FMA
                expr = f"{use(d)} + {use(a)} * {use(b)}"
            if wrapped and want_defer:
                name = self.define(d)
                emit(f"{pad}{name} = {expr}")
                self.deferred_now.add(d)
            elif wrapped:
                self.emit_wrap(d, expr)
            else:
                emit(f"{pad}{self.define(d)} = {expr}")
        if key is not None:
            cse[key] = (d, version[d], d in self.deferred_now)

    # -- word indexes and guards ---------------------------------------
    def emit_index(self, k: int, disp: int, store: bool) -> str:
        """Word-index expression of access ``k``.

        The first access of a group emits the group's one guard — one
        mask test on its lowest address, ``if a & _G``, which escapes via
        ``fb`` when that address is negative, misaligned or at least
        ``2**30`` — and binds the group's word index ``i<g>``, the word
        at its smallest displacement; every access of the group is a
        constant word offset from it, so none is negative. The upper
        bound is the word list's own: an index past its end raises
        ``IndexError``, which the kernel's handler turns into the same
        escape (each kernel first escapes on a memory that is not a
        whole number of words, so the list ends where the memory does).
        A store at an offset binds its own index ``j<k>``: the word it
        keeps and its write both read it.
        """
        base, ver, g = self.group_of[k]
        pad = self.pad
        ig = f"i{g}"
        lo = self.lows[g]
        if k == g:
            low = _plus(self.use(base), lo)
            self.emit(f"{pad}if {low} & _G: {self.fb}")
            self.emit(f"{pad}{ig} = {low} >> 3")
        off = (disp - lo) >> 3
        idx = _plus(ig, off)
        if off and store:
            self.emit(f"{pad}j{k} = {idx}")
            idx = f"j{k}"
        self.syms[idx] = (base, ver, disp, g, off)
        return idx

    def emit_sweep(self, idx: str, size: int, pairs) -> bool:
        """Alias tests for one check: escape via ``fb`` when the access
        shares its word with an earlier tracked one. Pairs whose
        accesses share a base register version resolve statically:
        disjoint displacements drop the test, an unavoidable overlap
        rejects the lowering (returns False).

        The other targets are tested once per base group. The access is
        word ``J`` (its bound index, or ``iA + a`` for a load at an
        offset) and a target of group ``iT`` is word ``iT + o``, so the
        two collide exactly when ``J - iT == o`` (word indexes are
        Python ints): a group with several targets costs one subtraction
        and one test against a constant set, one with a single target
        one comparison — ``J == iT`` for a group's lowest word."""
        syms = self.syms
        base, ver, disp, g, own = syms[idx]
        name, shift = (idx, 0) if idx.isidentifier() else (f"i{g}", own)
        groups: dict = {}  # target group -> word offsets from ``name``
        for p_idx, p_size in pairs:
            p_base, p_ver, p_disp, p_g, p_off = syms[p_idx]
            if p_base == base and p_ver == ver:
                if disp < p_disp + p_size and p_disp < disp + size:
                    return False  # certain overlap: every run would FB
                continue  # certain disjoint: no runtime test needed
            offs = groups.setdefault(p_g, [])
            if p_off - shift not in offs:
                offs.append(p_off - shift)
        tests: List[str] = []
        for p_g, offs in groups.items():
            if len(offs) > 1:
                consts = ", ".join(map(str, offs))
                tests.append(f"{name} - i{p_g} in {{{consts}}}")
            elif offs[0]:
                tests.append(f"{name} - i{p_g} == {offs[0]}")
            else:
                tests.append(f"{name} == i{p_g}")
        if tests:
            self.emit(f"{self.pad}if {' or '.join(tests)}: {self.fb}")
        return True

    def emit_events(self, evt: Optional[int], idx: str) -> bool:
        """Statically apply one op's events; False aborts the lowering."""
        if evt is None:
            return True
        hw = self.hw
        for ev in self.ir.events[evt]:
            e = ev[0]
            if e == R.E_QCHK:
                _, off, size, il, _mi = ev
                pairs = hw.q_check(off, size, il)
                if pairs is None or not self.emit_sweep(idx, size, pairs):
                    return False
            elif e == R.E_QSET:
                _, off, size, il, _mi = ev
                if not hw.q_set(off, idx, size, il):
                    return False
            elif e == R.E_ROT:
                if not hw.q_rotate(ev[1]):
                    return False
            elif e == R.E_AMOV:
                if not hw.q_amov(ev[1], ev[2]):
                    return False
            elif e == R.E_ACHK:
                _, size, _il, _mi = ev
                pairs = hw.alat_store_check(size)
                if pairs is None or not self.emit_sweep(idx, size, pairs):
                    return False
            elif e == R.E_AINS:
                _, mi, size, il = ev
                if not hw.alat_insert(mi, idx, size, il):
                    return False
            elif e == R.E_BCHK:
                _, mask, size, il, _mi = ev
                pairs = hw.bm_check(mask, size)
                if pairs is None or not self.emit_sweep(idx, size, pairs):
                    return False
            else:  # E_BSET
                _, bit, size, il, _mi = ev
                if not hw.bm_set(bit, idx, size, il):
                    return False
        return True

    # -- exit-site building blocks -------------------------------------
    def stat_lines(self, indent: str) -> List[str]:
        """Constant hardware-stat deltas of a clean execution reaching
        the current exit site."""
        hw = self.hw
        out: List[str] = []
        if hw is not None and hw.stats:
            target, fields = _STAT_TARGETS[self.family]
            out.append(f"{indent}_hs = {target}")
            for name in fields:
                n = hw.stats.get(name, 0)
                if n:
                    out.append(f"{indent}_hs.{name} += {n}")
            if self.family == "queue" and hw.max_live:
                out.append(
                    f"{indent}if _hs.max_live < {hw.max_live}: "
                    f"_hs.max_live = {hw.max_live}"
                )
        return out

    def writeback_lines(self, indent: str) -> List[str]:
        """Guest-register writeback for a commit-kind exit site."""
        out: List[str] = []
        for reg in self.written:
            if reg < self.guest_count:
                if reg in self.deferred_now:
                    out.append(f"{indent}regs[{reg}] = {_wrapped(f'r{reg}')}")
                else:
                    out.append(f"{indent}regs[{reg}] = r{reg}")
        return out

    # -- body walk ------------------------------------------------------
    def walk(self, exit_emit, store_emit) -> bool:
        """Emit the whole residue body, delegating exit sites to
        ``exit_emit(emitter, k, xkind, payload, commit, indent)`` and
        stores to ``store_emit(emitter, k, idx, value)``, which writes
        ``value`` to word ``idx`` and keeps the word it overwrites.
        Returns False when the trace cannot be statically lowered."""
        ir = self.ir
        emit = self.emit
        pad = self.pad
        for k, op in enumerate(ir.ops):
            t = op[0]
            if t == R.OP_ALU:
                self.alu_op(k, op[1], op[2], op[3], op[4], op[5])
            elif t == R.OP_LD or t == R.OP_ST:
                _, vreg, _base, disp, _size, evt = op
                idx = self.emit_index(k, disp, t == R.OP_ST)
                if not self.emit_events(evt, idx):
                    return False
                if t == R.OP_LD:
                    emit(f"{pad}{self.define(vreg)} = W[{idx}]")
                else:
                    store_emit(self, k, idx, self.use(vreg))
            elif t == R.OP_CBR:
                _, code, a, b, pay = op
                cmp_op = ("==", "!=", "<", ">=")[code]
                lhs = self.use(a)
                rhs = self.use(b) if b is not None else "0"
                emit(f"{pad}if {lhs} {cmp_op} {rhs}:")
                exit_emit(self, k, R.X_SIDE, ir.payloads[pay], False,
                          pad + "    ")
            elif t == R.OP_BR:
                exit_emit(self, k, R.X_BR, ir.payloads[op[1]], True, pad)
            elif t == R.OP_EXIT:
                exit_emit(self, k, R.X_EXIT, ir.payloads[op[1]], True, pad)
            elif t == R.OP_EVT:
                if not self.emit_events(op[1], "0"):
                    return False
            # OP_NOP: no functional effect
        exit_emit(self, len(ir.ops) - 1, R.X_FALL, None, True, pad)
        return True


def _family_limit(adapter, family) -> int:
    if family == "queue":
        return adapter.queue.num_registers
    if family == "alat":
        return adapter.alat.num_entries
    if family == "bitmask":
        return adapter.file.num_registers
    return 0


def _vec_exit(em: _ResidueEmitter, k: int, xkind: int, payload,
              commit: bool, indent: str) -> None:
    emit = em.emit
    for line in em.stat_lines(indent):
        emit(line)
    if commit:
        for line in em.writeback_lines(indent):
            emit(line)
    emit(f"{indent}return ({k}, {xkind}, {payload!r})")


def _vec_store(em: _ResidueEmitter, k: int, idx: str, value: str) -> None:
    em.emit(f"{em.pad}undo_append(({idx}, W[{idx}]))")
    em.emit(f"{em.pad}W[{idx}] = {value} & {_MASK64}")


def compile_vec(ir: R.ReplayIR, adapter, guest_count: int):
    """Compile the vectorized kernel for one lowered trace.

    Returns ``None`` when the trace cannot be statically lowered: an
    access that is not one aligned word (:func:`_word_only`), a hardware
    operand the static model rejects (the ``py`` tier then reproduces
    the model's runtime error exactly), or a pair of accesses that
    provably always overlap (the trace would fall back on every
    execution anyway). Otherwise returns the kernel, with signature
    ``(regs, words, msize, ad, undo_append)``; it returns ``(exit_idx,
    exit_kind, payload)`` like ``py``, and it never touches adapter
    state, so the caller skips the adapter's region enter and exit on
    this tier. ``regs`` is the *guest* register file itself —
    scratch registers live entirely in locals and guest registers are
    written back only on commit-kind exits, so an abort or
    :data:`FALLBACK` leaves it untouched. ``words`` is the memory's word
    list (:attr:`repro.sim.memory.Memory.words`); each store logs
    ``(word index, old word)`` and the caller rolls those back. A
    memory whose size is not a whole number of words returns
    :data:`FALLBACK` at once: the guards' upper bound is the word list's
    end, which only then is the memory's.
    """
    if not _word_only(ir):
        return None
    family = _hw_family(ir)
    env: dict = {"_FB": FALLBACK, "_G": _GUARD_MASK}
    lines: List[str] = [
        # the default args bind the sentinel and the guard mask as
        # locals (LOAD_FAST, not LOAD_GLOBAL); callers pass only the
        # first five
        "def _replay_vec(regs, W, msize, ad, undo_append, _FB=_FB, _G=_G):",
        "    if msize & 7: return _FB",
        "    try:",
    ]
    em = _ResidueEmitter(
        ir, guest_count, family, _family_limit(adapter, family), lines,
        "        ",
    )
    if not em.walk(_vec_exit, _vec_store):
        return None
    lines += ["    except IndexError:", "        return _FB"]
    exec(compile("\n".join(lines), "<vliw-replay-vec>", "exec"), env)
    return env.pop("_replay_vec")


# ----------------------------------------------------------------------
# batch backend
# ----------------------------------------------------------------------
def loop_exit_for(ir: R.ReplayIR, entry_pc: int, fall_through):
    """The back-edge exit site of a self-looping region, or None.

    The batch kernel bakes the *structural* candidate exit
    (:func:`repro.sim.replay_ir.loop_candidate`) — a pure function of
    the trace content, so content-identical region clones share one
    compiled kernel. Whether that exit actually re-enters **this**
    region is a per-region fact decided here: the branch payload (or the
    fall-through pc) must equal the region's own entry pc.
    """
    cand = R.loop_candidate(ir)
    if cand is None:
        return None
    k, xkind = cand
    if xkind == R.X_BR:
        if ir.payloads[ir.ops[k][1]] == entry_pc:
            return cand
        return None
    # X_FALL: the trace has no branch or exit at all; it self-loops only
    # when the fall-through continuation is the region's entry
    if fall_through == entry_pc:
        return cand
    return None


def _batch_reg_scan(ir: R.ReplayIR):
    """Registers a trace body touches: ``(refs, rbw)``.

    ``refs`` is every register the emitted body can read or write (the
    batch kernel binds each one to a loop-carried local above its
    iteration loop); ``rbw`` holds the registers *read before their
    first write* — the ones whose value at iteration start matters, so
    scratch registers (``>= guest_count``) in it must be re-zeroed at
    the back edge to match the scalar tiers' per-execution zero init.
    """
    refs: set = set()
    rbw: set = set()
    written: set = set()

    def rd(r):
        refs.add(r)
        if r not in written:
            rbw.add(r)

    for op in ir.ops:
        t = op[0]
        if t == R.OP_ALU:
            kind, d, a, b = op[1], op[2], op[3], op[4]
            if kind == R.A_FMA:
                rd(d)
            if kind != R.A_MOVI:
                rd(a)
                if b is not None:
                    rd(b)
            refs.add(d)
            written.add(d)
        elif t == R.OP_LD:
            rd(op[2])
            refs.add(op[1])
            written.add(op[1])
        elif t == R.OP_ST:
            rd(op[1])
            rd(op[2])
        elif t == R.OP_CBR:
            rd(op[2])
            if op[3] is not None:
                rd(op[3])
    return refs, rbw


def _bind_lines(refs, guest_count: int) -> List[str]:
    """Prologue statements binding each referenced register to its
    local: one slice unpack per contiguous run of guest registers, one
    chained zero assignment for every scratch register."""
    out: List[str] = []
    guest = [r for r in refs if r < guest_count]
    start = 0
    for i, reg in enumerate(guest):
        if i + 1 < len(guest) and guest[i + 1] == reg + 1:
            continue
        run = guest[start:i + 1]
        start = i + 1
        if len(run) == 1:
            out.append(f"r{reg} = regs[{reg}]")
        else:
            names = ", ".join(f"r{r}" for r in run)
            out.append(f"{names} = regs[{run[0]}:{reg + 1}]")
    temps = [r for r in refs if r >= guest_count]
    if temps:
        out.append(" = ".join(f"r{r}" for r in temps) + " = 0")
    return out


def compile_batch(ir: R.ReplayIR, adapter, guest_count: int):
    """Compile the cross-iteration batched kernel for one lowered trace.

    The batch kernel amortizes the CPython per-execution floor: when a
    hot region's commit exit re-enters the region itself (a back-edge),
    up to ``n`` consecutive iterations run inside **one** kernel call —
    the vec tier's residue body wrapped in an iteration loop, with every
    escape (``return _FB``) replaced by ``break``: the loop stops,
    committed iterations stay committed, and the caller rolls back the
    broken iteration's stores and re-runs it on the dispatch loop.
    Register locals are **loop-carried**: every referenced guest
    register is bound once above the loop, the back-edge site normalizes
    only the deferred wraps the next iteration reads before writing
    (plus ``prev<c>`` snapshot tuples of the committed state, at most
    :data:`_SNAPSHOT_CHUNK` registers each), and ``regs`` is written
    exactly once per kernel call — at the exit that actually leaves the
    loop, which also normalizes the deferred wraps the back edge left
    raw. Hardware-stat deltas are likewise applied once per call,
    multiplied by the number of committed iterations, instead of per
    back-edge. Every way out of the loop — a full batch and a side exit
    (each records its exit in ``_x``; a side exit first applies its own
    stat deltas) and an escape (``_x`` stays a trim) — shares one
    epilogue after the loop, so the committed-state writeback is spelled
    once per kernel. With ``n = 1`` the kernel is one vec execution (0
    batched iterations), which is how scalar uses of the trace run it.

    Only the iteration in flight can be rolled back, so committed
    iterations log nothing: store ``k`` keeps the word it overwrites in
    ``u<k>`` and sets ``s``, reset at each iteration's start, to its
    ordinal, and the kernel returns the ``(word index, old word)`` pairs
    of the ``s`` stores the final iteration ran. A memory whose size is
    not a whole number of words returns a trim at once: the guards'
    upper bound is the word list's end, which only then is the memory's.

    Returns ``None`` when the trace has no structural back-edge
    candidate (:func:`repro.sim.replay_ir.loop_candidate`) or the static
    lowering rejects it for the vec tier's reasons. Otherwise returns
    the kernel; its signature is ``(regs, words, msize, ad, n)`` and it
    returns ``(iters, undo, exit_idx, exit_kind, payload)``: ``iters``
    back-edge iterations committed in full (registers written back,
    memory kept, hardware-stat deltas applied), then the final
    iteration's store pairs and exit — with ``exit_kind ==``
    :data:`BATCH_TRIM` when it escaped and the caller must roll ``undo``
    back, newest first, and re-run it exactly. Every committed iteration
    is indistinguishable from one scalar vec execution exiting at the
    back-edge site — the exact-accounting contract the goldens and the
    ``knobs`` fuzz oracle pin.
    """
    if not _word_only(ir) or R.loop_candidate(ir) is None:
        return None
    family = _hw_family(ir)
    env: dict = {"_G": _GUARD_MASK}
    lines: List[str] = [
        "def _replay_batch(regs, W, msize, ad, n, _G=_G):",
        f"    if msize & 7: return (0, (), {BATCH_TRIM}, {BATCH_TRIM}, None)",
    ]
    emit = lines.append
    em = _ResidueEmitter(
        ir, guest_count, family, _family_limit(adapter, family), lines,
        "            ", fb="break",
    )
    # loop-carried register locals: bind every referenced register once
    # above the iteration loop. Exits restore/write back explicitly, so
    # the back edge never touches ``regs`` at all.
    refs, rbw = _batch_reg_scan(ir)
    rbw_temps = sorted(r for r in rbw if r >= guest_count)
    for stmt in _bind_lines(sorted(refs), guest_count):
        emit(f"    {stmt}")
    store_at = len(lines)  # the store locals' binding goes here
    emit("    it = 0")
    # the way out of the loop: (iterations to hold back from ``it``,
    # exit index, exit kind, payload); an escape leaves it a trim
    emit(f"    _x = (0, {BATCH_TRIM}, {BATCH_TRIM}, None)")
    emit("    try:")
    emit("        while 1:")
    if any(op[0] == R.OP_ST for op in ir.ops):
        emit("            s = 0")

    # each store's (word index, old word) names, in store order
    stores: List[Tuple[str, str]] = []

    def batch_store(em: _ResidueEmitter, k: int, idx: str,
                    value: str) -> None:
        stores.append((idx, f"u{k}"))
        em.emit(f"{em.pad}u{k} = W[{idx}]")
        em.emit(f"{em.pad}W[{idx}] = {value} & {_MASK64}")
        em.emit(f"{em.pad}s = {len(stores)}")

    # capture at the back-edge site: the written guest registers' slots
    # (in first-write order, one target list per snapshot chunk), the
    # ones whose locals stay raw there, hardware stats of one full
    # iteration, and max_live
    cap: dict = {}

    def batch_exit(em: _ResidueEmitter, k: int, xkind: int, payload,
                   commit: bool, indent: str) -> None:
        e = em.emit
        if cap:
            # past the back-edge site: this exit is dead code, but a
            # dead CBR still needs a non-empty suite
            if xkind == R.X_SIDE:
                e(f"{indent}pass")
            return
        if not commit:
            # a side exit discards the broken iteration's register
            # effects: apply its own stat deltas and leave the loop; the
            # epilogue restores the last committed state
            for line in em.stat_lines(indent):
                e(line)
            e(f"{indent}_x = (0, {k}, {xkind}, {payload!r})")
            e(f"{indent}break")
            return
        # the trace's first commit-kind exit is the back-edge site
        # (loop_candidate: a program exit before it leaves no candidate,
        # and everything after it is dead). Normalize the deferred locals
        # the next iteration reads before writing (its reads assume
        # canonical signed form) and leave the rest raw, re-zero scratch
        # registers the body reads before writing, snapshot the
        # committed state for the epilogue, and loop
        wr = [r for r in em.written if r < guest_count]
        raw = [r for r in wr if r in em.deferred_now and r not in rbw]
        for reg in wr:
            if reg in em.deferred_now and reg in rbw:
                e(f"{indent}r{reg} = {_wrapped(f'r{reg}')}")
        if rbw_temps:
            e(indent + " = ".join(f"r{r}" for r in rbw_temps) + " = 0")
        # tuple displays of the written guest registers' locals and
        # slots; the trailing comma keeps a one-register tuple a tuple
        chunks = [wr[c:c + _SNAPSHOT_CHUNK]
                  for c in range(0, len(wr), _SNAPSHOT_CHUNK)]
        for c, chunk in enumerate(chunks):
            live = "".join(f"r{r}, " for r in chunk).rstrip()
            e(f"{indent}prev{c} = ({live})")
        cap["slots"] = [
            "".join(f"regs[{r}], " for r in chunk).rstrip()
            for chunk in chunks
        ]
        cap["raw"] = raw
        hw = em.hw
        cap["stats"] = dict(hw.stats) if hw is not None else {}
        cap["max_live"] = (hw.max_live
                           if hw is not None and family == "queue"
                           else 0)
        e(f"{indent}it += 1")
        e(f"{indent}if it < n:")
        e(f"{indent}    continue")
        # full batch: every iteration committed, and the snapshot holds
        # the live locals, so the epilogue's restore is this exit's
        # writeback; the last iteration is reported as the final exit
        e(f"{indent}_x = (1, {k}, {xkind}, {payload!r})")
        e(f"{indent}break")

    em.bound |= refs
    if not em.walk(batch_exit, batch_store) or not cap:
        return None
    if stores:
        # a break before a store still builds every pair (and slices
        # them all away), so the prologue binds each name they read
        names = dict.fromkeys(name for pair in stores for name in pair)
        lines.insert(store_at, "    " + " = ".join(names) + " = 0")
    lines += ["    except IndexError:", "        pass"]
    # one epilogue for every way out — a full batch, a side exit, an
    # escape: apply the stat deltas of ``it`` committed iterations at
    # once, write back the last committed register state (the caller
    # rolls the final iteration's stores back) and wrap the registers
    # the back edge left raw, as one loop over their slots
    stats, max_live, raw = cap["stats"], cap["max_live"], cap["raw"]
    pad = "        "
    body: List[str] = []
    if stats:
        target, fields = _STAT_TARGETS[family]
        body = [
            f"{pad}_hs.{name} += "
            + ("it" if stats[name] == 1 else f"{stats[name]} * it")
            for name in fields if stats.get(name)
        ]
        if body or max_live:
            body.insert(0, f"{pad}_hs = {target}")
    if max_live:
        body.append(f"{pad}if _hs.max_live < {max_live}: "
                    f"_hs.max_live = {max_live}")
    for c, slots in enumerate(cap["slots"]):
        body.append(f"{pad}{slots} = prev{c}")
    if raw:
        body.append(f"{pad}for _k in ({''.join(f'{r}, ' for r in raw)}):")
        body.append(f"{pad}    regs[_k] = {_wrapped('regs[_k]')}")
    if body:
        emit("    if it:")
        lines.extend(body)
    undo = "".join(f"({i}, {u}), " for i, u in stores)
    undo = f"({undo.rstrip()})[:s]" if stores else "()"
    emit(f"    return (it - _x[0], {undo}) + _x[1:]")
    exec(compile("\n".join(lines), "<vliw-replay-batch>", "exec"), env)
    return env.pop("_replay_batch")


# ----------------------------------------------------------------------
# replay artifacts
# ----------------------------------------------------------------------
class ReplayArtifact:
    """Shareable replay code for one (trace content, hardware) identity.

    Holds everything that is a pure function of the lowered trace: the
    numeric IR and the compiled ``py``/``vec``/``batch`` functions. A
    trace normally compiles exactly one kernel (batch when it has a
    back-edge, else vec), and ``py`` only under a forced ``py`` tier.
    The slots exist for both kernels because simulators that force a
    tier share the artifact. Timing plans (exit outcomes, execution
    counts) are per-region and never live here. ``rejected`` is set
    when the shared lowering rejects the trace, for both kernels; each
    ``*_guest_count`` is the register file size its kernel was compiled
    for.
    """

    __slots__ = ("ir", "rejected", "py_fn", "vec_fn", "vec_guest_count",
                 "batch_fn", "batch_guest_count")

    def __init__(self) -> None:
        self.ir: Optional[R.ReplayIR] = None
        self.rejected = False
        self.py_fn: Optional[Callable] = None
        self.vec_fn: Optional[Callable] = None
        self.vec_guest_count = 0
        self.batch_fn: Optional[Callable] = None
        self.batch_guest_count = 0
