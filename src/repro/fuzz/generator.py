"""Seeded adversarial guest-program generator for differential fuzzing.

:mod:`repro.workloads.synthetic` composes loop bodies from a fixed menu of
realistic patterns; that is the right corpus for reproducing the paper's
figures, but it only ever exercises the shapes we already thought of. The
fuzzer instead draws *op soups* from an explicit RNG seed, biased toward
the situations that historically break alias machinery:

* random mixes of **known and unknown bases** (known bases resolve through
  the symbolic region analysis; unknown bases are reloaded from a
  parameter block every iteration, defeating static disambiguation);
* **overlapping forwarding chains** (load reloaded across a store that is
  itself reloaded across a later store — the AMOV cycle shape);
* **near-overflow register pressure** (many distinct memory operations
  against alias register files as small as 4);
* **boundary-size accesses**: sizes 1/2/4/8 with displacement jitter drawn
  from ``{0, 1, size-1, size, ...}`` so generated ranges are frequently
  exactly adjacent or overlap by exactly one byte;
* **word-shaped cases** (every third seed, see :func:`word_shaped`):
  the same draw with every access widened to one aligned 8-byte word,
  the only shape the simulator's replay kernels lower — so the kernels,
  their guards and their mid-batch trims stay under fuzz;
* **overflow cases** (every fifth word-shaped seed, see
  :func:`overflowing`): seed data near ``2**63``, so sums and products
  leave the signed 64-bit range, a register that wraps every iteration
  and is read opaquely at the top of the next one, and a loop tested
  at its top, so the registers the last replay left are the final
  state — the shapes that show a kernel's missing wrap.

A :class:`FuzzCase` is fully determined by its JSON-serializable form
(:meth:`FuzzCase.to_dict`), so any case — including one reduced by the
delta-debugging minimizer — can be replayed byte-for-byte later, shipped
to a process-pool worker, or committed to ``tests/corpus/``.

Ops are compact JSON lists:

``["ld", dest, base_ref, disp, size]``
    load; ``base_ref`` is ``"kI"`` (known region base) or ``"uI"``
    (unknown pointer).
``["st", base_ref, src, disp, size]``
    store through the same base vocabulary.
``["fop", name, dest, lhs, rhs]``
    FADD/FMUL filler creating value dependences between memory ops.
``["movi", dest, imm]``
    immediate definition.
``["pmov", u_index, base_ref, delta]``
    pointer bump: unknown base register ``u_index`` becomes
    ``base_ref + delta`` (an ``ADD`` immediate). Creates derived
    pointers at provable constant separation — the certifier's
    bread and butter — while staying inside the region bounds
    (generation caps the per-case delta sum).
``["bop", name, dest, lhs, rhs]``
    bitwise ``and``/``or``/``xor``: reads its operands' exact signed
    values, so a replay tier that hands it an unwrapped value computes
    another result (overflow cases only).
"""

from __future__ import annotations

import base64
import json
import random
import zlib
from dataclasses import dataclass, field, asdict
from typing import Dict, List, Optional, Sequence, Tuple

from repro.frontend.program import GuestProgram
from repro.ir.instruction import (
    Instruction,
    Opcode,
    binop,
    branch,
    fbinop,
    load,
    movi,
    store,
)
from repro.workloads.synthetic import ProgramBuilder

WORD = 8

# ----------------------------------------------------------------------
# Register conventions (shared by the superblock- and program-level
# harnesses so one op vocabulary serves every oracle).
# ----------------------------------------------------------------------
#: known-region base registers: r1 .. r(1 + MAX_KNOWN - 1)
KNOWN_BASE_REG = 1
MAX_KNOWN_BASES = 3
#: unknown pointer registers: r8 .. r13
UNKNOWN_BASE_REG = 8
MAX_UNKNOWN_BASES = 6
#: data registers the op soup reads/writes: r20 .. r39
DATA_REG = 20
DATA_REGS = 20
#: registers only the overflow class's own ops use: r40 .. r43
_OVERFLOW_REG = 40
#: program-harness registers (setup + loop induction)
_PARAMS_REG = 16
_COUNTER_REG = 48
_LIMIT_REG = 49
_OFFSET_REG = 50
_OFFMASK_REG = 51
_TADDR_REG = 52
_TVAL_REG = 53

#: byte span each data region spans in the program harness; the walking
#: offset is masked to _OFFSET_MASK so every generated access stays in
#: bounds: shift (<= 16) + offset (<= 504) + disp (< 128) + size (<= 8)
_REGION_BYTES = 1024
_OFFSET_MASK = 511

_FOP_NAMES = {"fadd": Opcode.FADD, "fmul": Opcode.FMUL}
_BOP_NAMES = {"and": Opcode.AND, "or": Opcode.OR, "xor": Opcode.XOR}

CASE_SCHEMA_VERSION = 1


@dataclass
class CaseConfig:
    """Everything about a case that is not the op list."""

    seed: int
    #: physical alias register file the allocator-level oracles target
    #: (small values exercise throttling / near-overflow pressure)
    alias_registers: int = 64
    known_bases: int = 1
    unknown_bases: int = 2
    #: unknown base i points into underlying region ``base_regions[i]`` —
    #: two bases sharing a region genuinely alias at runtime
    base_regions: Tuple[int, ...] = ()
    #: byte shift of each unknown base inside its region (partial-overlap
    #: fodder when two bases share a region)
    base_shifts: Tuple[int, ...] = ()
    #: whether each unknown base walks with the loop's moving offset
    base_walks: Tuple[bool, ...] = ()
    iterations: int = 32
    hot_threshold: int = 10
    #: the overflow class: seed data just below ``2**63`` instead of
    #: below ``2**30``, and the loop tested at its top; serialized only
    #: when set
    overflow: bool = False


@dataclass
class FuzzCase:
    """One differential-fuzzing test case: a config plus an op list."""

    config: CaseConfig
    ops: List[list] = field(default_factory=list)

    # ------------------------------------------------------------------
    # Serialization (the minimizer, corpus, and process-pool workers all
    # round-trip through this form)
    # ------------------------------------------------------------------
    def to_dict(self) -> dict:
        config = asdict(self.config)
        if not config["overflow"]:
            del config["overflow"]  # a case outside the class: as before
        return {
            "schema": CASE_SCHEMA_VERSION,
            "config": config,
            "ops": [list(op) for op in self.ops],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzCase":
        if data.get("schema") != CASE_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported fuzz case schema {data.get('schema')!r}"
            )
        raw = dict(data["config"])
        for key in ("base_regions", "base_shifts"):
            raw[key] = tuple(raw.get(key, ()))
        raw["base_walks"] = tuple(bool(w) for w in raw.get("base_walks", ()))
        return cls(config=CaseConfig(**raw), ops=[list(op) for op in data["ops"]])

    def with_ops(self, ops: Sequence[list]) -> "FuzzCase":
        """A sibling case with the same config and a different op list."""
        return FuzzCase(config=self.config, ops=[list(op) for op in ops])

    # ------------------------------------------------------------------
    # Materialization
    # ------------------------------------------------------------------
    def base_register(self, ref: str) -> int:
        kind, idx = ref[0], int(ref[1:])
        if kind == "k":
            return KNOWN_BASE_REG + idx
        if kind == "u":
            return UNKNOWN_BASE_REG + idx
        raise ValueError(f"bad base ref {ref!r}")

    def body(self) -> List[Instruction]:
        """Fresh IR instructions for the op soup (superblock harness)."""
        insts: List[Instruction] = []
        for op in self.ops:
            insts.append(self._materialize(op))
        return insts

    def _materialize(self, op: list) -> Instruction:
        kind = op[0]
        if kind == "ld":
            _, dest, ref, disp, size = op
            return load(dest, self.base_register(ref), disp=disp, size=size)
        if kind == "st":
            _, ref, src, disp, size = op
            return store(self.base_register(ref), src, disp=disp, size=size)
        if kind == "fop":
            _, name, dest, lhs, rhs = op
            return fbinop(_FOP_NAMES[name], dest, lhs, rhs)
        if kind == "movi":
            _, dest, imm = op
            return movi(dest, imm)
        if kind == "bop":
            _, name, dest, lhs, rhs = op
            return binop(_BOP_NAMES[name], dest, lhs, rhs)
        if kind == "pmov":
            _, u_index, ref, delta = op
            return Instruction(
                Opcode.ADD,
                dest=UNKNOWN_BASE_REG + u_index,
                srcs=(self.base_register(ref),),
                imm=delta,
            )
        raise ValueError(f"unknown fuzz op {op!r}")

    def known_region_map(self) -> Dict[str, Tuple[int, int]]:
        """Region layout the superblock-level alias analysis sees."""
        return {
            f"karr{i}": (0x100000 + i * 0x10000, _REGION_BYTES)
            for i in range(self.config.known_bases)
        }

    def known_initial_regions(self) -> Dict[int, str]:
        return {
            KNOWN_BASE_REG + i: f"karr{i}"
            for i in range(self.config.known_bases)
        }

    # ------------------------------------------------------------------
    def program(self) -> GuestProgram:
        """Wrap the op soup in a complete guest program.

        Layout: one region per known base, one region per distinct
        underlying unknown region, and a parameter block holding the
        unknown bases' (possibly colliding, possibly shifted) pointers.
        The hot loop reloads every unknown pointer from the parameter
        block each iteration — the binary-level idiom that defeats static
        disambiguation — then runs the op soup and advances a wrapped
        byte offset that the flagged bases walk with.
        """
        cfg = self.config
        b = ProgramBuilder(f"fuzz{cfg.seed}")

        known_bases = [
            b.add_region(f"karr{i}", _REGION_BYTES)
            for i in range(cfg.known_bases)
        ]
        n_regions = (max(cfg.base_regions) + 1) if cfg.base_regions else 0
        unknown_regions = [
            b.add_region(f"uarr{j}", _REGION_BYTES) for j in range(n_regions)
        ]
        params_base = b.add_region(
            "params", max(1, cfg.unknown_bases) * WORD
        )

        # Setup: parameter block + deterministic nonzero seed data so
        # loads observe distinguishable values from iteration one.
        for i in range(cfg.unknown_bases):
            target = (
                unknown_regions[cfg.base_regions[i]] + cfg.base_shifts[i]
            )
            b.init_word(params_base + i * WORD, target, _TADDR_REG, _TVAL_REG)
        rng = random.Random(cfg.seed ^ 0x5EED)
        for base in known_bases + unknown_regions:
            for j in range(8):
                value = rng.randrange(1, 1 << 30)
                if cfg.overflow:
                    value = (1 << 63) - value
                b.init_word(base + j * WORD, value, _TADDR_REG, _TVAL_REG)

        # Loop-invariant registers.
        for i, base in enumerate(known_bases):
            reg = KNOWN_BASE_REG + i
            b.emit(movi(reg, base))
            b.register_regions[reg] = f"karr{i}"
        b.emit(movi(_PARAMS_REG, params_base))
        b.register_regions[_PARAMS_REG] = "params"
        b.emit(movi(_LIMIT_REG, cfg.iterations))
        b.emit(movi(_OFFMASK_REG, _OFFSET_MASK))
        b.emit(movi(_COUNTER_REG, 0))
        b.emit(movi(_OFFSET_REG, 0))

        head = b.here()
        # An overflow case tests at the top of the loop instead: its last
        # pass leaves there, before the body runs, so the registers the
        # last replay of the body left are the program's final state.
        leave = (
            b.emit(branch(Opcode.BGE, 0, srcs=(_COUNTER_REG, _LIMIT_REG)))
            if cfg.overflow
            else None
        )
        for i in range(cfg.unknown_bases):
            reg = UNKNOWN_BASE_REG + i
            b.emit(load(reg, _PARAMS_REG, disp=i * WORD, size=WORD))
            if cfg.base_walks[i]:
                b.emit(binop(Opcode.ADD, reg, reg, _OFFSET_REG))
        for op in self.ops:
            b.emit(self._materialize(op))
        step = Instruction(
            Opcode.ADD, dest=_OFFSET_REG, srcs=(_OFFSET_REG,), imm=WORD
        )
        b.emit(step)
        b.emit(binop(Opcode.AND, _OFFSET_REG, _OFFSET_REG, _OFFMASK_REG))
        b.emit(
            Instruction(
                Opcode.ADD, dest=_COUNTER_REG, srcs=(_COUNTER_REG,), imm=1
            )
        )
        if leave is None:
            b.emit(branch(Opcode.BLT, head, srcs=(_COUNTER_REG, _LIMIT_REG)))
        else:
            b.emit(branch(Opcode.BR, head))
            leave.target = b.here()
        b.emit(branch(Opcode.EXIT, 0))
        return b.build()


# ----------------------------------------------------------------------
# Generation
# ----------------------------------------------------------------------
def _boundary_disp(rng: random.Random, size: int) -> int:
    """Displacement biased toward adjacency / single-byte overlap.

    Accesses land in one of four 16-byte cells with a jitter chosen so
    two ops in the same cell are frequently identical, exactly adjacent,
    or overlapping by exactly one byte.
    """
    cell = rng.randrange(4) * 16
    jitter = rng.choice((0, 0, 1, size - 1, size, 7, 8, 9))
    return cell + jitter


def _base_ref(rng: random.Random, cfg: CaseConfig) -> str:
    if cfg.known_bases and rng.random() < 0.3:
        return f"k{rng.randrange(cfg.known_bases)}"
    return f"u{rng.randrange(cfg.unknown_bases)}"


def _data_reg(rng: random.Random) -> int:
    return DATA_REG + rng.randrange(DATA_REGS)


def _emit_random_op(rng: random.Random, cfg: CaseConfig, ops: List[list]) -> None:
    roll = rng.random()
    if roll < 0.30:
        size = rng.choice((1, 2, 4, 8, 8))
        ops.append(
            ["ld", _data_reg(rng), _base_ref(rng, cfg),
             _boundary_disp(rng, size), size]
        )
    elif roll < 0.55:
        size = rng.choice((1, 2, 4, 8, 8))
        ops.append(
            ["st", _base_ref(rng, cfg), _data_reg(rng),
             _boundary_disp(rng, size), size]
        )
    elif roll < 0.65:
        ops.append(["movi", _data_reg(rng), rng.randrange(0, 256)])
    else:
        ops.append(
            ["fop", rng.choice(("fadd", "fmul")), _data_reg(rng),
             _data_reg(rng), _data_reg(rng)]
        )


def _emit_forwarding_chain(
    rng: random.Random, cfg: CaseConfig, ops: List[list]
) -> None:
    """Two overlapping forwarding chains (the AMOV cycle shape).

    ``A: ld [a]; st [b] = f(A); E1: ld [a]; st [c]; E2: ld [b]`` — E1
    forwards from A across the store to ``b``, E2 forwards from that
    store across the store to ``c``; their check constraints chain and,
    under reordering, cycle.
    """
    u_a = _base_ref(rng, cfg)
    u_b = f"u{rng.randrange(cfg.unknown_bases)}"
    u_c = f"u{rng.randrange(cfg.unknown_bases)}"
    size = rng.choice((4, 8))
    disp_a = _boundary_disp(rng, size)
    disp_b = _boundary_disp(rng, size)
    v1, v2, v3, w = (_data_reg(rng) for _ in range(4))
    ops.append(["ld", v1, u_a, disp_a, size])
    ops.append(["fop", "fadd", w, v1, v1])
    ops.append(["st", u_b, w, disp_b, size])
    ops.append(["ld", v2, u_a, disp_a, size])
    ops.append(["st", u_c, v2, _boundary_disp(rng, size), size])
    ops.append(["ld", v3, u_b, disp_b, size])


def word_shaped(seed: int) -> bool:
    """Whether ``seed`` draws a word-shaped case: every third seed.

    The replay kernels lower only traces whose every access is 8 bytes
    wide at a displacement that is a multiple of 8, and the boundary-size
    draw almost never yields such a trace."""
    return seed % 3 == 0


def overflowing(seed: int) -> bool:
    """Whether ``seed`` draws an overflow case: every fifth word-shaped
    seed (9, 24, 39, ...; a residue no seed pinned in the tests has).

    Seed data below ``2**30`` never leaves the signed 64-bit range, and
    every other op reads a register through a wrap-transparent use
    (``fadd``/``fmul`` operands, store values), so no other case can
    tell a kernel that skips a wrap from one that does not."""
    return seed % 15 == 9


def _add_overflow_ops(rng: random.Random, cfg: CaseConfig,
                      ops: List[list]) -> None:
    """Make ``ops`` an overflow case, in place.

    ``t`` is loaded from a seed-data word (each just below ``2**63``),
    ``acc = t + t`` and ``sq = t * t`` wrap, and a bitwise op at the top
    of the body reads ``acc`` and ``t`` as the previous iteration left
    them. A batch kernel defers both wraps; it must normalize ``acc`` at
    its back edge (the next iteration reads it opaquely) and ``sq``
    where it leaves the kernel (nothing reads it)."""
    cfg.overflow = True
    cfg.known_bases = max(cfg.known_bases, 1)
    t, acc, sq, out = range(_OVERFLOW_REG, _OVERFLOW_REG + 4)
    # a known base does not walk, so the load stays on the seed data
    ref = f"k{rng.randrange(cfg.known_bases)}"
    ops.insert(0, ["bop", rng.choice(("or", "xor")), out, acc, t])
    ops.append(["ld", t, ref, rng.randrange(8) * WORD, WORD])
    ops.append(["fop", "fadd", acc, t, t])
    ops.append(["fop", "fmul", sq, t, t])


def _to_words(cfg: CaseConfig, ops: List[list]) -> None:
    """Widen every access to one aligned word, in place: size 8, its
    displacement and every base shift rounded down to a multiple of 8
    (pointer-bump deltas already are), so every address stays inside its
    region and 8-aligned."""
    cfg.base_shifts = tuple(s // WORD * WORD for s in cfg.base_shifts)
    for op in ops:
        if op[0] in ("ld", "st"):
            op[3] = op[3] // WORD * WORD
            op[4] = WORD


def generate_case(seed: int) -> FuzzCase:
    """Deterministically generate one adversarial case from ``seed``
    (word-shaped when :func:`word_shaped` says so, an overflow case
    when :func:`overflowing` does)."""
    rng = random.Random(seed)
    unknown_bases = rng.randint(1, 4)
    known_bases = rng.randint(0, 2)
    # Collision-heavy bias: a quarter of cases collapse every unknown
    # base into ONE region and append a store/load cluster on a shared
    # cell below — "different" pointers alias at runtime on most
    # iterations, so alias sweeps fire mid-trace. This is what trims
    # batched replays mid-flight: the batch tier's rollback + scalar
    # re-run seam gets exercised instead of the all-iterations-clean
    # fast path.
    collision_heavy = rng.random() < 0.25
    # Region collisions: bases drawing from fewer regions than there are
    # bases guarantees some runtime aliasing between "different" pointers.
    n_regions = 1 if collision_heavy else rng.randint(1, unknown_bases)
    cfg = CaseConfig(
        seed=seed,
        alias_registers=rng.choice((4, 6, 8, 12, 16, 64, 64)),
        known_bases=known_bases,
        unknown_bases=unknown_bases,
        base_regions=tuple(
            rng.randrange(n_regions) for _ in range(unknown_bases)
        ),
        base_shifts=tuple(
            rng.choice((0, 1, 7, 8, 9, 16)) for _ in range(unknown_bases)
        ),
        base_walks=tuple(
            rng.random() < 0.5 for _ in range(unknown_bases)
        ),
        iterations=rng.randint(24, 48),
        hot_threshold=10,
    )
    ops: List[list] = []
    n_ops = rng.randint(4, 22)
    # Pointer-bump budget: the sum of pmov deltas stays well under the
    # region headroom (see _REGION_BYTES) so every derived pointer —
    # including chains of bumps — remains in bounds even combined with
    # the walking offset, and the minimizer can drop any subset of ops
    # without pushing survivors out of range.
    pmov_budget = 192
    while len(ops) < n_ops:
        roll = rng.random()
        if roll < 0.12:
            _emit_forwarding_chain(rng, cfg, ops)
        elif roll < 0.24:
            delta = rng.choice((8, 16, 32, 64))
            if delta <= pmov_budget:
                ops.append(
                    ["pmov", rng.randrange(cfg.unknown_bases),
                     _base_ref(rng, cfg), delta]
                )
                pmov_budget -= delta
        else:
            _emit_random_op(rng, cfg, ops)
    if collision_heavy:
        # the shared-cell cluster: stores and loads through distinct
        # bases (all one region) landing identical/adjacent/overlapping
        # in one 16-byte cell
        cell = rng.randrange(4) * 16
        for _ in range(rng.randint(2, 4)):
            size = rng.choice((4, 8))
            ops.append(
                ["st", _base_ref(rng, cfg), _data_reg(rng),
                 cell + rng.choice((0, 1, size - 1)), size]
            )
            ops.append(
                ["ld", _data_reg(rng), _base_ref(rng, cfg),
                 cell + rng.choice((0, 1)), size]
            )
    if word_shaped(seed):
        _to_words(cfg, ops)
    if overflowing(seed):
        _add_overflow_ops(rng, cfg, ops)
    return FuzzCase(config=cfg, ops=ops)


# ----------------------------------------------------------------------
# Benchmark-name encoding (process-pool transport)
# ----------------------------------------------------------------------
#: benchmark-name prefixes the workload registry forwards here
FUZZ_BENCHMARK_PREFIXES = ("fuzz:", "fuzzcase:")


def case_benchmark_name(case: FuzzCase) -> str:
    """Encode a full case (config + ops) as a self-contained benchmark
    name, so :func:`repro.workloads.make_benchmark` — and therefore the
    engine's process-pool workers — can rebuild exactly this program."""
    blob = json.dumps(case.to_dict(), sort_keys=True, separators=(",", ":"))
    packed = base64.urlsafe_b64encode(zlib.compress(blob.encode("utf-8")))
    return "fuzzcase:" + packed.decode("ascii")


def benchmark_program(name: str) -> GuestProgram:
    """Resolve a ``fuzz:<seed>`` or ``fuzzcase:<packed>`` benchmark name.

    ``fuzz:<seed>`` rebuilds the generated case for that seed;
    ``fuzzcase:<packed>`` decodes a full serialized case (the form the
    minimizer and the engine oracle use).
    """
    if name.startswith("fuzz:"):
        return generate_case(int(name[len("fuzz:"):])).program()
    if name.startswith("fuzzcase:"):
        packed = name[len("fuzzcase:"):].encode("ascii")
        blob = zlib.decompress(base64.urlsafe_b64decode(packed))
        return FuzzCase.from_dict(json.loads(blob.decode("utf-8"))).program()
    raise ValueError(f"not a fuzz benchmark name: {name!r}")
