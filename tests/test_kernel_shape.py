"""Kernel-shape tests: the replay kernels index guest memory as words
without changing what escapes.

The batch and vec kernels (:mod:`repro.sim.replay_backends`) read and
write :attr:`~repro.sim.memory.Memory.words`, guard each group of
accesses through one base register version within one segment once, and
test alias pairs by word-index equality, once per base group. A batch
kernel writes its register state back in one shared epilogue. These
tests pin:

* for 8-aligned 8-byte accesses, word-index equality decides exactly
  what the pairwise byte-range test decides;
* a load at an offset in its group checks from the group's index
  shifted by its own offset, escaping exactly on a byte-range overlap;
* a check whose word index equals an earlier set's trims the kernel,
  and the re-run execution equals the ``interp`` oracle's, hardware
  stats included — for targets in five base groups (five comparisons)
  and for three targets in one group (one constant-set test);
* a misaligned base escapes its guard, and the run equals ``interp``;
* a side exit taken before an out-of-bounds access in a later segment
  still side-exits: the later segment's guard never runs;
* an out-of-bounds access anywhere in its group escapes — below
  address 0 at the group's guard, past the end at the access — and the
  re-run raises the ``interp`` tier's fault;
* a trace with a sub-word or unaligned access is rejected by both
  kernels, stays on the dispatch loop, and the run equals ``interp``;
* every batch kernel generated on the golden cells snapshots the guest
  registers it writes in chunks of at most 30, and restores and writes
  back each chunk with one statement — none when it writes no guest
  register.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.replay_backends as backends_mod
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import (
    Instruction,
    Opcode,
    binop,
    branch,
    load,
    movi,
    store,
)
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.opt.translation_cache import reset_translation_cache
from repro.sched.machine import MachineModel
from repro.sim import replay_ir as R
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory, MemoryFault
from repro.sim.replay_ir import lower_trace
from repro.sim.schemes import SmarqAdapter
from repro.sim.vliw import _REPLAY_THRESHOLD, VliwSimulator, _compile_trace
from repro.workloads import make_benchmark

from tests.test_golden_reports import GOLDEN_CELLS, GOLDEN_HOT_THRESHOLD

MACHINE = MachineModel()
MEMORY_BYTES = 4096


@pytest.fixture(autouse=True)
def _fresh_artifacts(monkeypatch):
    """Replay artifacts live in translation-cache entries: an empty
    cache compiles every kernel afresh."""
    monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
    reset_translation_cache()
    yield
    reset_translation_cache()


@st.composite
def _word_pairs(draw):
    """Two 8-byte accesses as a kernel sees them: an 8-aligned base plus
    a displacement that is a multiple of 8, the second placed anywhere
    from disjoint to identical relative to the first."""
    base = 8 * draw(st.integers(0, 1 << 40))
    disp = 8 * draw(st.integers(-4, 4))
    p_base = base + 8 * draw(st.integers(-6, 6))
    p_disp = 8 * draw(st.integers(-4, 4))
    return base, disp, p_base, p_disp


class TestWordIndexEquality:
    @settings(max_examples=400, deadline=None)
    @given(pair=_word_pairs())
    def test_matches_pairwise_byte_range_test(self, pair):
        base, disp, p_base, p_disp = pair
        a, p = base + disp, p_base + p_disp
        # the kernel's word index: the guard binds ``base >> 3`` and each
        # access adds its displacement in words
        same_word = (base >> 3) + disp // 8 == (p_base >> 3) + p_disp // 8
        assert same_word == (p < a + 8 and a < p + 8)


def _translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    return OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    ).optimize(block)


def sweep_region():
    """A store whose value waits on a load, then five loads from
    distinct base registers that speculation hoists above it: the
    store's check tests its word index against five earlier sets.
    ``r3 == 0x100`` makes the first hoisted load really overlap the
    store."""
    return _translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            load(4, 5),
            load(6, 7),
            load(10, 11),
            load(12, 13),
            branch(Opcode.BR, 0),
        ]
    )


def misaligned_region():
    """A load through ``r3`` and a store through ``r1``; any ``r3`` that
    is not a multiple of 8 fails the load's guard."""
    return _translate(
        [
            movi(1, 0x100),
            load(2, 3),
            store(1, 2),
            branch(Opcode.BR, 0),
        ]
    )


def two_segment_region():
    """``r5`` is read before the side exit and written 8 KB past itself
    after it: one base register version, two segments. With ``r3 != 0``
    the side exit is taken and the out-of-bounds store never runs."""
    return _translate(
        [
            load(2, 5),
            branch(Opcode.BNE, 7, srcs=(3, 0)),
            store(5, 2, disp=8192),
            branch(Opcode.BR, 0),
        ]
    )


def double_store_region():
    """Two stores, through ``r1`` and ``r5``, then a load through ``r6``
    whose nonzero value takes a side exit. With ``r1 == r5`` both stores
    write one word; without speculation the load and the exit stay
    after them, and a misaligned ``r6`` escapes at the load's guard."""
    return _translate(
        [
            store(1, 2),
            store(5, 4),
            load(7, 6),
            branch(Opcode.BNE, 9, srcs=(7, 0)),
            branch(Opcode.BR, 0),
        ],
        speculate=False,
    )


def walking_store_region():
    """Loads word ``r6``, stores ``r6`` to word ``r1``, and steps both a
    word. Started ``k`` words below the end of memory, iteration ``k``'s
    load is past the end: it escapes before its store."""
    return _translate(
        [
            load(7, 6),
            store(1, 6),
            Instruction(Opcode.ADD, dest=1, srcs=(1,), imm=8),
            Instruction(Opcode.ADD, dest=6, srcs=(6,), imm=8),
            branch(Opcode.BR, 0),
        ],
        speculate=False,
    )


def product_base_region():
    """Loads through ``r9 = r6 * r8``, a deferred wrap: the kernel's
    guard sees the raw product, the dispatch loop the wrapped one."""
    return _translate(
        [
            binop(Opcode.MUL, 9, 6, 8),
            load(7, 9),
            store(1, 7),
            branch(Opcode.BR, 0),
        ],
        speculate=False,
    )


def _run(region, sim, **regs):
    memory = Memory(MEMORY_BYTES)
    memory.write(0x100, 0xAB, 8)
    memory.write(0x300, 0xCD, 8)
    registers = [0] * 64
    for name, value in regs.items():
        registers[int(name[1:])] = value
    sim.memory = memory
    adapter = SmarqAdapter(64)
    outcome = sim.execute_region(region, adapter, registers)
    return (
        outcome, registers, memory.to_bytes(),
        adapter.queue.stats,
    )


def _against_interp(make_region, pattern, monkeypatch):
    """Run ``pattern`` (one register dict per execution) on a fresh
    simulator in auto mode, then on the ``interp`` oracle; return the
    auto run's tracer counters and captured batch-kernel sources after
    asserting the two runs are identical, stats included."""
    sources = []
    real_compile = compile

    def recording(src, filename, mode, *args, **kwargs):
        if filename == "<vliw-replay-batch>":
            sources.append(src)
        return real_compile(src, filename, mode, *args, **kwargs)

    monkeypatch.setattr(backends_mod, "compile", recording, raising=False)
    tracer = Tracer()
    sim = VliwSimulator(MACHINE, Memory(MEMORY_BYTES), tracer=tracer)
    region = make_region()
    runs = [_run(region, sim, **regs) for regs in pattern]

    monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
    oracle = VliwSimulator(MACHINE, Memory(MEMORY_BYTES))
    oracle_region = make_region()
    expected = [_run(oracle_region, oracle, **regs) for regs in pattern]
    assert runs == expected
    assert sim.stats == oracle.stats
    return tracer.counters, sources, runs


def _alias_tests(src):
    """A batch kernel's alias tests, ``if <term> or ...: break``, each as
    the target-word count of its terms: ``iA == iT`` and ``iA - iT ==
    o`` test one word, ``iA - iT in {o1, o2, ...}`` one per constant."""
    out = []
    for node in ast.walk(ast.parse(src)):
        if not (
            isinstance(node, ast.If)
            and len(node.body) == 1
            and isinstance(node.body[0], ast.Break)
        ):
            continue
        test = node.test
        terms = (
            test.values
            if isinstance(test, ast.BoolOp) and isinstance(test.op, ast.Or)
            else [test]
        )
        if all(
            isinstance(t, ast.Compare)
            and isinstance(t.ops[0], (ast.Eq, ast.In))
            for t in terms
        ):
            out.append([
                len(t.comparators[0].elts)
                if isinstance(t.comparators[0], ast.Set) else 1
                for t in terms
            ])
    return out


class TestWordKernelEscapes:
    def test_index_sweep_hit_trims_and_matches_interp(self, monkeypatch):
        # dispatch-loop runs below the threshold, a clean kernel run at
        # it, then colliding and clean kernel runs
        pattern = (
            [{"r3": 0x300}] * _REPLAY_THRESHOLD
            + [{"r3": 0x100}, {"r3": 0x300}, {"r3": 0x100}]
        )
        c, sources, runs = _against_interp(sweep_region, pattern,
                                           monkeypatch)
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.batch_trims", 0) == 2
        assert c.get("vliw.replay_compiles", 0) == 0
        # the store's one check: one comparison per hoisted load's group
        assert [_alias_tests(src) for src in sources] == [[[1] * 5]]
        assert [run[0].status for run in runs] == (
            ["commit"] * _REPLAY_THRESHOLD + ["alias", "commit", "alias"]
        )

    def test_group_set_test_trims_exactly_and_matches_interp(
        self, monkeypatch
    ):
        """Three loads through ``r3`` (words ``r3/8`` to ``r3/8 + 2``)
        are hoisted above a store to word ``0x21``: the store's check is
        one subtraction and one constant-set test, which fires exactly
        when one of the three words is the store's."""
        def region():
            return _translate(
                [
                    movi(1, 0x100),
                    load(9, 8),
                    store(1, 9, disp=8),
                    load(2, 3),
                    load(4, 3, disp=8),
                    load(6, 3, disp=16),
                    branch(Opcode.BR, 0),
                ]
            )

        bases = [0xF0, 0xF8, 0x100, 0x108, 0x110]
        pattern = [{"r3": 0x300}] * _REPLAY_THRESHOLD + [
            {"r3": r3} for r3 in bases
        ]
        c, sources, runs = _against_interp(region, pattern, monkeypatch)
        assert [_alias_tests(src) for src in sources] == [[[3]]]
        assert c.get("vliw.batch_trims", 0) == 3
        assert c.get("vliw.replay_compiles", 0) == 0
        assert [run[0].status for run in runs[_REPLAY_THRESHOLD:]] == [
            "commit", "alias", "alias", "alias", "commit"
        ]

    def test_load_at_an_offset_checks_from_its_groups_index(self):
        """A load at ``r3 + 8``, the second word of its group, checks a
        store through ``r1``: the test spells the load's word as the
        group's index plus one, so the kernel escapes exactly when
        ``r1 == r3 + 8``, the byte-range overlap."""
        ir = R.ReplayIR(
            [
                (R.OP_LD, 2, 3, 0, 8, None),
                (R.OP_ST, 9, 1, 0, 8, 0),
                (R.OP_LD, 4, 3, 8, 8, 1),
                (R.OP_BR, 0),
            ],
            [((R.E_QSET, 0, 8, 0, 1),), ((R.E_QCHK, 0, 8, 1, 2),)],
            [0],
        )
        fn = backends_mod.compile_vec(ir, SmarqAdapter(64), 64)
        for r1 in range(0x100, 0x120, 8):
            registers = [0] * 64
            registers[1], registers[3] = r1, 0x100
            memory = Memory(MEMORY_BYTES)
            out = fn(registers, memory.words, memory.size, SmarqAdapter(64),
                     [].append)
            assert (out == backends_mod.FALLBACK) == (r1 == 0x108), r1

    def test_misaligned_base_escapes_and_matches_interp(self, monkeypatch):
        pattern = (
            [{"r3": 0x300}] * _REPLAY_THRESHOLD
            + [{"r3": 0x304}, {"r3": 0x300}, {"r3": 0x2FF}]
        )
        c, _sources, runs = _against_interp(misaligned_region, pattern,
                                            monkeypatch)
        assert c.get("vliw.batch_compiles", 0) == 1
        # the two misaligned runs escape the kernel and re-run exactly
        assert c.get("vliw.batch_trims", 0) == 2
        assert c.get("vliw.replay_compiles", 0) == 0
        assert [run[0].status for run in runs] == ["commit"] * len(pattern)

    def test_side_exit_before_a_later_segments_fault_side_exits(
        self, monkeypatch
    ):
        """The load and the out-of-bounds store share ``r5``'s version
        but not a segment, so they are two groups: the kernel takes the
        side exit before it reaches the store's guard or the store,
        instead of trimming."""
        pattern = [{"r3": 1, "r5": 0x300}] * (_REPLAY_THRESHOLD + 3)
        c, _sources, runs = _against_interp(two_segment_region, pattern,
                                            monkeypatch)
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.backend_batch", 0) == 4
        assert c.get("vliw.batch_trims", 0) == 0
        assert {run[0].status for run in runs} == {"side_exit"}

    @pytest.mark.parametrize("kernel,escapes", [("batch", "batch_trims"),
                                                ("vec", "vec_fallbacks")])
    @pytest.mark.parametrize("disps,r5", [((0, 1024), 0xC00), ((8, -8), 0)])
    def test_fault_in_a_group_escapes_and_raises_the_interp_fault(
        self, disps, r5, kernel, escapes, monkeypatch
    ):
        """At the faulting ``r5`` one load of the group is in bounds and
        the other is not. Below address 0, the group's guard on its
        lowest address escapes at the group's first access; past the
        end, the word list's ``IndexError`` escapes at the access. Either
        way the dispatch loop's re-run raises the ``interp`` tier's
        fault. The batch kernel runs in auto mode, the vec kernel
        forced."""
        def region():
            return _translate(
                [load(2, 5, disp=disps[0]), load(4, 5, disp=disps[1]),
                 branch(Opcode.BR, 0)]
            )

        if kernel == "vec":
            monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "vec")
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(MEMORY_BYTES), tracer=tracer)
        translated = region()
        for _ in range(_REPLAY_THRESHOLD):
            _run(translated, sim, r5=0x300)
        with pytest.raises(MemoryFault) as got:
            _run(translated, sim, r5=r5)
        assert tracer.counters.get(f"vliw.{kernel}_compiles", 0) == 1
        assert tracer.counters.get(f"vliw.{escapes}", 0) == 1

        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
        oracle = VliwSimulator(MACHINE, Memory(MEMORY_BYTES))
        with pytest.raises(MemoryFault) as want:
            _run(region(), oracle, r5=r5)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("size,disp", [(4, 0), (8, 4)])
    def test_sub_word_access_is_rejected_and_matches_interp(
        self, size, disp, monkeypatch
    ):
        def region():
            return _translate(
                [
                    movi(1, 0x100),
                    load(2, 3, disp=disp, size=size),
                    store(1, 2),
                    branch(Opcode.BR, 0),
                ]
            )

        pattern = [{"r3": 0x300}] * (_REPLAY_THRESHOLD + 2)
        c, sources, _runs = _against_interp(region, pattern, monkeypatch)
        assert sources == []
        assert c.get("vliw.batch_compiles", 0) == 0
        assert c.get("vliw.vec_compiles", 0) == 0
        # the trace stays on the dispatch loop: no py code, no py run
        assert c.get("vliw.replay_compiles", 0) == 0
        assert c.get("vliw.backend_py", 0) == 0
        assert c["vliw.backend_interp"] == len(pattern)
        # and the lowering rejects it for both kernels
        linear = region().schedule.linear
        trace = _compile_trace(MACHINE, linear, SmarqAdapter)[0]
        ir = lower_trace(linear, trace, SmarqAdapter)
        adapter = SmarqAdapter(64)
        assert backends_mod.compile_batch(ir, adapter, 64) is None
        assert backends_mod.compile_vec(ir, adapter, 64) is None


def _walk_to_fault(tier, size, r6, monkeypatch):
    """Run :func:`walking_store_region` from ``r1 = 0x100`` and ``r6``
    in batches on a ``size``-byte memory until an access faults; return
    the fault and everything the run leaves: registers, memory, and
    simulator and hardware stats."""
    monkeypatch.setenv("SMARQ_REPLAY_BACKEND", tier)
    tracer = Tracer()
    sim = VliwSimulator(MACHINE, Memory(size), tracer=tracer)
    region = walking_store_region()
    registers = [0] * 64
    registers[1], registers[6] = 0x100, r6
    adapter = SmarqAdapter(64)
    with pytest.raises(MemoryFault) as fault:
        for _ in range(size // 8):
            sim.execute_region_batch(region, adapter, registers, 10**6)
    state = (str(fault.value), registers, sim.memory.to_bytes(),
             sim.stats, adapter.queue.stats)
    return state, tracer.counters


class _EveryWord(list):
    """A word list that reads 0 at every index: a memory as large as
    any address."""

    def __getitem__(self, index):
        return 0


class TestStoreLocalRollback:
    """A batch kernel keeps each store's old word in a local and returns
    only the broken iteration's pairs; the caller restores them newest
    first."""

    def test_word_stored_twice_rolls_back_to_its_value_before(
        self, monkeypatch
    ):
        """Both stores hit word ``0x100``. Aligned ``r6 = 0x300`` reads
        a nonzero word and the kernel side-exits after both; misaligned
        ``r6 = 0x2FF`` escapes the kernel after both, and the re-run
        side-exits. Either way the word gets back ``0xAB``, its value
        before the iteration, as on ``interp``."""
        clean = {"r1": 0x100, "r5": 0x100, "r2": 0x11, "r4": 0x22,
                 "r6": 0x308}
        pattern = [clean] * _REPLAY_THRESHOLD + [
            dict(clean, r6=0x300), clean, dict(clean, r6=0x2FF),
        ]
        c, sources, runs = _against_interp(double_store_region, pattern,
                                           monkeypatch)
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.batch_trims", 0) == 1
        assert [run[0].status for run in runs[_REPLAY_THRESHOLD:]] == [
            "side_exit", "commit", "side_exit"
        ]
        for run in runs[_REPLAY_THRESHOLD:]:
            word = run[2][0x100:0x108]
            assert word == (0xAB if run[0].status == "side_exit" else 0x22
                            ).to_bytes(8, "little")
        # both stores run before the load's guard and the side exit
        src = sources[0]
        assert src.index("s = 2") < src.index("if r6 & _G") < src.index(
            "if r7 != r0:"
        )

    def test_later_iteration_escaping_before_its_store_keeps_earlier(
        self, monkeypatch
    ):
        """Five iterations commit their stores inside one kernel call,
        and the sixth's load is past the end of memory: it escapes
        before its store, rolls back nothing, and the re-run raises the
        dispatch loop's fault. Memory holds all five stores."""
        size = MEMORY_BYTES
        got, counters = _walk_to_fault("batch", size, size - 40,
                                       monkeypatch)
        want, _ = _walk_to_fault("interp", size, size - 40, monkeypatch)
        assert got == want
        assert counters.get("vliw.batch_iterations", 0) == 5
        assert counters.get("vliw.batch_trims", 0) == 1
        memory = got[2]
        assert [
            int.from_bytes(memory[0x100 + 8 * i:0x108 + 8 * i], "little")
            for i in range(6)
        ] == [size - 40 + 8 * i for i in range(5)] + [0]


class TestWordListBound:
    """The word list's end is the kernels' upper bound, and a group's
    mask test covers everything below 0 and from ``2**30`` up."""

    @pytest.mark.parametrize("tier", ["batch", "vec"])
    def test_partial_last_word_escapes_and_faults_as_interp(
        self, tier, monkeypatch
    ):
        """A memory of ``8k + 4`` bytes has a last word of which only 4
        bytes exist, so the word list ends 4 bytes past the memory. A
        kernel called on it escapes at once: the walk faults at the
        access to that word, as on ``interp``."""
        size = MEMORY_BYTES + 4
        got, counters = _walk_to_fault(tier, size, MEMORY_BYTES - 40,
                                       monkeypatch)
        want, _ = _walk_to_fault("interp", size, MEMORY_BYTES - 40,
                                 monkeypatch)
        assert got == want
        assert "0x1000" in got[0]
        assert counters.get("vliw.batch_iterations", 0) == 0
        assert counters.get("vliw.batch_trims", 0) + counters.get(
            "vliw.vec_fallbacks", 0
        ) >= 1

    def test_base_of_2_to_the_30_or_more_escapes(self, monkeypatch):
        """On a word list that holds every address, the kernel reads a
        base just below ``2**30`` and escapes at the mask test from
        ``2**30`` on, before its store. On guest memory, a raw product
        base of ``2**64 + 0x100`` (wrapped, ``0x100``) escapes too, and
        the re-run equals ``interp``'s."""
        linear = product_base_region().schedule.linear
        trace = _compile_trace(MACHINE, linear, SmarqAdapter)[0]
        fn = backends_mod.compile_batch(
            lower_trace(linear, trace, SmarqAdapter), SmarqAdapter(64), 64
        )
        words = _EveryWord([0] * (MEMORY_BYTES >> 3))
        for base in ((1 << 30) - 8, 1 << 30, (1 << 30) + 8, 1 << 62):
            escapes = base >= 1 << 30
            registers = [0] * 64
            registers[1], registers[6], registers[8] = 0x100, base, 1
            iters, undo, _idx, kind, _pay = fn(
                registers, words, MEMORY_BYTES, SmarqAdapter(64), 1
            )
            assert (kind == backends_mod.BATCH_TRIM) == escapes, base
            assert iters == 0 and (undo == ()) == escapes, base

        clean = {"r1": 0x200, "r6": 0x300, "r8": 1}
        pattern = [clean] * _REPLAY_THRESHOLD + [
            dict(clean, r6=0x100, r8=(1 << 56) + 1), clean,
        ]
        c, _sources, runs = _against_interp(product_base_region, pattern,
                                            monkeypatch)
        assert c.get("vliw.batch_trims", 0) == 1
        assert runs[-2][2][0x200:0x208] == (0xAB).to_bytes(8, "little")


def _batch_sources(monkeypatch):
    """Run every golden cell from an empty translation cache (so no
    kernel is compiled yet), returning the source of each batch kernel
    generated."""
    sources = []
    real_compile = compile

    def recording(src, filename, mode, *args, **kwargs):
        if filename == "<vliw-replay-batch>":
            sources.append(src)
        return real_compile(src, filename, mode, *args, **kwargs)

    monkeypatch.setattr(backends_mod, "compile", recording, raising=False)
    for bench, scheme, scale in GOLDEN_CELLS:
        DbtSystem(
            make_benchmark(bench, scale=scale),
            scheme,
            profiler_config=ProfilerConfig(
                hot_threshold=GOLDEN_HOT_THRESHOLD
            ),
        ).run()
    return sources


def _is_chunk(node):
    """A committed-state snapshot chunk's name, ``prev<c>``."""
    return (
        isinstance(node, ast.Name)
        and node.id.startswith("prev")
        and node.id[4:].isdigit()
    )


def _restores(tree):
    """Statements assigning a committed-state snapshot chunk (or one of
    its items) back."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Subscript):
                value = value.value
            if _is_chunk(value):
                out.append(node)
    return out


def _snapshots(tree):
    """The back-edge site's snapshot chunks, ``prev<c> = (rA, rB, ...)``:
    a batch kernel takes them exactly when its body writes a guest
    register."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(_is_chunk(t) for t in node.targets)
    ]


def _slot_writes(tree):
    """Assignments to guest register slots, ``regs[k] = ...`` or
    ``regs[a], regs[b], ... = ...`` with constant slots (the wrap loop's
    ``regs[_k]`` normalizes slots already written)."""
    def slot(node):
        return (
            isinstance(node, ast.Subscript)
            and isinstance(node.value, ast.Name)
            and node.value.id == "regs"
            and isinstance(node.slice, ast.Constant)
        )

    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Assign)
        and any(
            slot(t) or isinstance(t, ast.Tuple) and all(map(slot, t.elts))
            for t in node.targets
        )
    ]


class TestOneEpilogue:
    def test_golden_batch_kernels_write_back_once(self, monkeypatch):
        """A full batch, a side exit and a guard escape leave through
        one epilogue: the committed state is restored and written back
        by one statement per snapshot chunk, and a chunk holds at most
        30 registers, the most CPython builds a tuple of in one step."""
        sources = _batch_sources(monkeypatch)
        assert sources, "the golden cells compiled no batch kernel"
        writers = chunked = 0
        for src in sources:
            tree = ast.parse(src)
            chunks = _snapshots(tree)
            assert len(_restores(tree)) == len(chunks), src
            assert len(_slot_writes(tree)) == len(chunks), src
            for node in chunks:
                assert 1 <= len(node.value.elts) <= 30, src
            writers += bool(chunks)
            chunked += len(chunks) > 1
        assert writers > 0
        assert chunked > 0
