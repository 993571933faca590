"""Kernel-shape tests: the replay kernels stay small without changing
what escapes.

The batch and vec kernels (:mod:`repro.sim.replay_backends`) keep their
rare paths out of line: a long overlap sweep runs after a bloom probe
hit as :func:`~repro.sim.replay_backends._overlaps` calls, and a batch
kernel restores its committed state in one shared abort epilogue. These
tests pin:

* ``_overlaps`` decides exactly what the inline pairwise chain decides,
  at the boundaries that matter: spans that touch, overlap by one byte,
  or nest;
* a check that really overlaps an earlier set passes the bloom probe,
  trims the kernel, and the re-run execution equals the ``interp``
  oracle's, hardware stats included;
* every batch kernel generated on the golden cells has at most one
  ``= prev`` restore statement — exactly one when it writes a guest
  register.
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
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.replay_backends import _overlaps
from repro.sim.schemes import SmarqAdapter
from repro.sim.vliw import _REPLAY_THRESHOLD, VliwSimulator
from repro.workloads import make_benchmark

from tests.test_golden_reports import GOLDEN_CELLS, GOLDEN_HOT_THRESHOLD

MACHINE = MachineModel()


@pytest.fixture(autouse=True)
def _fresh_artifacts():
    backends_mod.reset_artifact_cache()
    yield
    backends_mod.reset_artifact_cache()


def _inline_chain(a, size, psize, addrs):
    """The pairwise test a kernel emits inline for a short sweep."""
    return any(p < a + size and a < p + psize for p in addrs)


@st.composite
def _span_near(draw, a, size):
    """An earlier access's start that touches, overlaps by one byte,
    nests with, or lands anywhere near ``[a, a + size)``."""
    psize = draw(st.integers(1, 8))
    relation = draw(st.sampled_from(
        ("touch_below", "touch_above", "one_below", "one_above",
         "nest", "near")
    ))
    if relation == "touch_below":
        p = a - psize
    elif relation == "touch_above":
        p = a + size
    elif relation == "one_below":
        p = a - psize + 1
    elif relation == "one_above":
        p = a + size - 1
    elif relation == "nest":
        # the smaller span sits anywhere inside the larger one
        lo, hi = sorted((0, size - psize))
        p = a + draw(st.integers(lo, hi))
    else:
        p = a + draw(st.integers(-16, 16))
    return psize, p


@st.composite
def _sweeps(draw):
    a = draw(st.integers(0, (1 << 64) - 9))
    size = draw(st.integers(1, 8))
    spans = draw(st.lists(_span_near(a, size), max_size=8))
    return a, size, spans


class TestOverlapsHelper:
    @settings(max_examples=400, deadline=None)
    @given(sweep=_sweeps())
    def test_matches_inline_pairwise_chain(self, sweep):
        a, size, spans = sweep
        by_size = {}
        for psize, p in spans:
            by_size.setdefault(psize, []).append(p)
        for psize, addrs in by_size.items():
            assert _overlaps(a, size, psize, tuple(addrs)) == _inline_chain(
                a, size, psize, addrs
            )
        # the kernel joins one call per distinct pair size with ``or``
        out_of_line = any(
            _overlaps(a, size, psize, tuple(addrs))
            for psize, addrs in by_size.items()
        )
        inline = any(
            p < a + size and a < p + psize for psize, p in spans
        )
        assert out_of_line == inline


def _translate(insts):
    block = Superblock(entry_pc=0, instructions=list(insts))
    return OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=True)
    ).optimize(block)


def bloom_region():
    """A store whose value waits on a load, then five loads from
    distinct base registers that speculation hoists above it: the
    store's check sweeps five earlier sets, so the kernel guards it with
    the bloom probe. ``r3 == 0x100`` makes the first hoisted load
    really overlap the store."""
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


def _run(region, sim, r3):
    memory = Memory(4096)
    memory.write(0x100, 0xAB, 8)
    memory.write(0x300, 0xCD, 8)
    registers = [0] * 64
    registers[3] = r3
    sim.memory = memory
    adapter = SmarqAdapter(64)
    outcome = sim.execute_region(region, adapter, registers)
    return (
        outcome, registers, memory.read_bytes(0, 4096),
        adapter.queue.stats,
    )


class TestBloomHitTrims:
    def test_real_overlap_after_probe_hit_trims_and_matches_interp(
        self, monkeypatch
    ):
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        calls = []
        real = backends_mod._overlaps

        def recording(a, size, psize, addrs):
            hit = real(a, size, psize, addrs)
            calls.append((len(addrs), hit))
            return hit

        # kernels bind the helper from the module when they compile
        monkeypatch.setattr(backends_mod, "_overlaps", recording)
        region = bloom_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        # dispatch-loop runs below the threshold, a clean kernel run at
        # it, then colliding and clean kernel runs
        pattern = [0x300] * _REPLAY_THRESHOLD + [0x100, 0x300, 0x100]
        runs = [_run(region, sim, r3) for r3 in pattern]

        c = tracer.counters
        assert c.get("vliw.batch_compiles", 0) == 1
        assert c.get("vliw.batch_trims", 0) == 2
        assert c.get("vliw.replay_compiles", 0) == 0
        # the helper runs only behind a passed probe (a sweep shorter
        # than _BLOOM_SWEEP_MIN stays inline): the clean kernel runs
        # never called it, and each colliding run swept all five sets
        # and found the overlap
        assert calls == [(5, True), (5, True)]
        assert [run[0].status for run in runs] == (
            ["commit"] * _REPLAY_THRESHOLD + ["alias", "commit", "alias"]
        )

        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", "interp")
        oracle = VliwSimulator(MACHINE, Memory(4096))
        oracle_region = bloom_region()
        expected = [_run(oracle_region, oracle, r3) for r3 in pattern]
        assert runs == expected
        assert sim.stats == oracle.stats


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


class TestOneAbortEpilogue:
    def test_golden_batch_kernels_restore_once(self, monkeypatch):
        monkeypatch.delenv("SMARQ_REPLAY_BACKEND", raising=False)
        sources = _batch_sources(monkeypatch)
        assert sources, "the golden cells compiled no batch kernel"
        writers = 0
        for src in sources:
            tree = ast.parse(src)
            restores = len(_restores(tree))
            if _writes_guest_register(tree):
                writers += 1
                assert restores == 1, src
            else:
                assert restores == 0, src
        assert writers > 0
