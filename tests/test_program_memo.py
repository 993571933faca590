"""One shared, immutable build per program (``make_benchmark``'s memo).

* the SPECFP and certifier benchmarks are built once per ``(name,
  scale)`` in a process and the build is shared; fuzz names are rebuilt
  on every call;
* the memo stays within its constant bound;
* a built :class:`GuestProgram` cannot be changed: its fields and maps
  reject assignment, and a cold sweep of every figure scheme over shared
  builds leaves every instruction field, map and the entry pc as built.
"""

import dataclasses

import pytest

import repro.workloads.specfp as specfp
from repro.engine.cache import NullCache
from repro.engine.core import ExecutionEngine
from repro.eval.fig15 import SCHEMES
from repro.eval.fig16 import NO_STORE_REORDER_KEY
from repro.eval.suite import SuiteConfig, SuiteRunner
from repro.frontend.program import GuestProgram
from repro.ir.instruction import Opcode, branch, movi
from repro.workloads import make_benchmark


@pytest.fixture(autouse=True)
def empty_memo():
    specfp.reset_program_memo()
    yield
    specfp.reset_program_memo()


class TestSharedBuilds:
    def test_same_name_and_scale_share_one_build(self):
        art = make_benchmark("art", scale=0.05)
        assert make_benchmark("art", scale=0.05) is art
        assert make_benchmark("art", scale=0.1) is not art
        assert make_benchmark("pwalk", scale=0.05) is not art

    def test_fuzz_names_are_rebuilt(self):
        first = make_benchmark("fuzz:3")
        again = make_benchmark("fuzz:3")
        assert again is not first
        assert again.instructions[0] is not first.instructions[0]
        assert len(specfp._PROGRAMS) == 0

    def test_unknown_name_is_not_memoized(self):
        with pytest.raises(ValueError):
            make_benchmark("nope", scale=0.05)
        assert len(specfp._PROGRAMS) == 0


class TestBound:
    def test_lru_evicts_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr(specfp, "_PROGRAM_ENTRIES", 2)
        builds = {
            scale: make_benchmark("art", scale) for scale in (0.05, 0.06, 0.07)
        }
        assert len(specfp._PROGRAMS) == 2
        assert make_benchmark("art", 0.07) is builds[0.07]
        # the oldest went first
        assert make_benchmark("art", 0.05) is not builds[0.05]
        assert len(specfp._PROGRAMS) == 2
        assert make_benchmark("art", 0.07) is builds[0.07]


def _snapshot(program):
    return (
        [dict(vars(inst)) for inst in program.instructions],
        dict(program.region_map),
        dict(program.initial_registers),
        dict(program.register_regions),
        dict(program.alias_hints),
        program.entry_pc,
        program.block_heads(),
    )


class TestImmutable:
    def test_fields_and_maps_reject_assignment(self):
        program = GuestProgram(
            name="t",
            instructions=[movi(1, 0x100), branch(Opcode.EXIT, 0)],
            region_map={"buf": (0x100, 0x40)},
            initial_registers={1: 7},
            register_regions={1: "buf"},
        )
        assert isinstance(program.instructions, tuple)
        for name, value in (
            ("entry_pc", 1), ("instructions", ()), ("region_map", {}),
            ("name", "u"),
        ):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(program, name, value)
        for mapping in (
            program.region_map, program.initial_registers,
            program.register_regions, program.alias_hints,
        ):
            with pytest.raises(TypeError):
                mapping[1] = 0

    def test_figure_sweep_leaves_shared_programs_as_built(self):
        """Every figure scheme over memoized ``art`` and ``pwalk``, run
        serially in one process, sharing each build."""
        names = ("art", "pwalk")
        built = {name: make_benchmark(name, scale=0.05) for name in names}
        before = {name: _snapshot(p) for name, p in built.items()}
        runner = SuiteRunner(
            SuiteConfig(benchmarks=list(names), scale=0.05),
            ExecutionEngine(cache=NullCache()),
        )
        runner.prefetch(("none",) + tuple(SCHEMES) + (NO_STORE_REORDER_KEY,))
        for name, program in built.items():
            assert make_benchmark(name, scale=0.05) is program
            assert _snapshot(program) == before[name], name
