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
* an out-of-bounds access anywhere in its group escapes at the group's
  guard, and the re-run raises the ``interp`` tier's fault;
* a trace with a sub-word or unaligned access is rejected by both
  kernels, and the run equals ``interp``;
* every batch kernel generated on the golden cells has at most one
  ``= prev`` restore statement and at most one assignment to the guest
  register slots — exactly one of each when it writes a guest register.
"""

import ast

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.sim.replay_backends as backends_mod
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import Opcode, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
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
    monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
    backends_mod.reset_artifact_cache()
    yield
    backends_mod.reset_artifact_cache()


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


def _translate(insts):
    block = Superblock(entry_pc=0, instructions=list(insts))
    return OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=True)
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
        but not a segment, so the load's guard checks only its own
        displacement: the kernel takes the side exit instead of
        trimming. A guard spanning both segments would escape on every
        run."""
        pattern = [{"r3": 1, "r5": 0x300}] * (_REPLAY_THRESHOLD + 3)
        c, _sources, runs = _against_interp(two_segment_region, pattern,
                                            monkeypatch)
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.backend_batch", 0) == 4
        assert c.get("vliw.batch_trims", 0) == 0
        assert {run[0].status for run in runs} == {"side_exit"}

    @pytest.mark.parametrize("disps,r5", [((0, 1024), 0xC00), ((8, -8), 0)])
    def test_fault_in_a_group_escapes_at_its_guard(
        self, disps, r5, monkeypatch
    ):
        """The group's one guard covers its largest and its smallest
        displacement: at the faulting ``r5`` one load of the group is in
        bounds and the other is not (past the end, or below address 0),
        so the kernel escapes at the group's first access and the
        dispatch loop's re-run raises the ``interp`` tier's fault."""
        def region():
            return _translate(
                [load(2, 5, disp=disps[0]), load(4, 5, disp=disps[1]),
                 branch(Opcode.BR, 0)]
            )

        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(MEMORY_BYTES), tracer=tracer)
        translated = region()
        for _ in range(_REPLAY_THRESHOLD):
            _run(translated, sim, r5=0x300)
        with pytest.raises(MemoryFault) as got:
            _run(translated, sim, r5=r5)
        assert tracer.counters.get("vliw.batch_compiles", 0) == 1
        assert tracer.counters.get("vliw.batch_trims", 0) == 1

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
        # the trace runs the py tier from the threshold on
        assert c.get("vliw.replay_compiles", 0) == 1
        assert c.get("vliw.backend_py", 0) == 3
        # and the lowering rejects it for both kernels
        linear = region().schedule.linear
        trace = _compile_trace(MACHINE, linear, SmarqAdapter)[0]
        ir = lower_trace(linear, trace, SmarqAdapter)
        adapter = SmarqAdapter(64)
        assert backends_mod.compile_batch(ir, adapter, 64) is None
        assert backends_mod.compile_vec(ir, adapter, 64) is None


def _batch_sources(monkeypatch):
    """Run every golden cell from an empty artifact cache, returning the
    source of each batch kernel generated."""
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


def _restores(tree):
    """Statements assigning the committed-state snapshot (or one of its
    items) back."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign):
            value = node.value
            if isinstance(value, ast.Subscript):
                value = value.value
            if isinstance(value, ast.Name) and value.id == "prev":
                out.append(node)
    return out


def _writes_guest_register(tree):
    """A batch kernel snapshots ``prev`` at its back-edge site exactly
    when its body writes a guest register."""
    return any(
        isinstance(node, ast.Assign)
        and any(
            isinstance(t, ast.Name) and t.id == "prev" for t in node.targets
        )
        for node in ast.walk(tree)
    )


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
        by one statement per kernel."""
        sources = _batch_sources(monkeypatch)
        assert sources, "the golden cells compiled no batch kernel"
        writers = 0
        for src in sources:
            tree = ast.parse(src)
            restores = len(_restores(tree))
            slot_writes = len(_slot_writes(tree))
            if _writes_guest_register(tree):
                writers += 1
                assert restores == 1, src
                assert slot_writes == 1, src
            else:
                assert restores == 0, src
                assert slot_writes == 0, src
        assert writers > 0
