"""Warm-up memo contracts (``repro.sim.dbt``'s prefix memo).

A program's interpreted warm-up — everything before its first
``runtime.install`` — is recorded once per process and restored by every
later run with the same inputs. That is pure performance machinery, so:

* a restored run's report and final architectural state equal those of
  a run from an empty memo, under every scheme and on the edge cases
  (alias profiling, a step budget spent before the first install, a
  program that never gets hot, a hot head whose region is formed but
  not installed);
* changing any input the warm-up reads is a miss, never a stale hit;
* the memo stays within its constant bound.
"""

from typing import NamedTuple

import pytest

import repro.sim.dbt as dbt
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.frontend.program import GuestProgram
from repro.frontend.region import RegionFormationConfig
from repro.ir.instruction import Instruction, Opcode, binop, branch, load, movi, store
from repro.sim.dbt import DbtSystem, reset_prefix_memo
from repro.sim.runtime import RuntimeConfig
from repro.sim.schemes import SCHEME_NAMES
from repro.workloads import make_benchmark

#: head of the ALU-only warm-up loop in :func:`_two_loops`
_ALU_HEAD = 3


@pytest.fixture(autouse=True)
def empty_memo():
    reset_prefix_memo()
    yield
    reset_prefix_memo()


class Outcome(NamedTuple):
    report: dict
    registers: list
    memory: bytes
    hits: int
    misses: int
    system: DbtSystem


def _two_loops(trips: int = 40, value: int = 7, base: int = 0x100):
    """An ALU-only loop (hot, but formed without memory ops, so never
    installed) followed by a load/add/store loop over ``buf``."""
    insts = [
        movi(2, 0),
        movi(3, trips),
        movi(5, value),
        Instruction(Opcode.ADD, dest=2, srcs=(2,), imm=1),  # pc 3: head
        branch(Opcode.BLT, _ALU_HEAD, srcs=(2, 3)),
        movi(2, 0),
        load(4, 1),  # pc 6: head of the memory loop
        binop(Opcode.ADD, 4, 4, 5),
        store(1, 4),
        store(1, 2, disp=8),
        Instruction(Opcode.ADD, dest=2, srcs=(2,), imm=1),
        branch(Opcode.BLT, 6, srcs=(2, 3)),
        branch(Opcode.EXIT, 0),
    ]
    return GuestProgram(
        name="two-loops",
        instructions=insts,
        region_map={"buf": (0x100, 0x100)},
        initial_registers={1: base},
    )


def _art():
    return make_benchmark("art", scale=0.05)


def _run(
    make_program=_two_loops,
    scheme="smarq",
    hot_threshold=10,
    max_guest_steps=5_000_000,
    **kwargs,
) -> Outcome:
    tracer = Tracer()
    system = DbtSystem(
        make_program(),
        scheme,
        profiler_config=kwargs.pop(
            "profiler_config", ProfilerConfig(hot_threshold=hot_threshold)
        ),
        tracer=tracer,
        **kwargs,
    )
    report = system.run(max_guest_steps=max_guest_steps)
    return Outcome(
        report.to_dict(),
        list(system.interpreter.registers),
        bytes(system.memory.buffer),
        tracer.counters.get("dbt.prefix_hits", 0),
        tracer.counters.get("dbt.prefix_misses", 0),
        system,
    )


def _state(outcome: Outcome):
    return outcome.report, outcome.registers, outcome.memory


class TestRestoredRunIsIdentical:
    @pytest.mark.parametrize("scheme", SCHEME_NAMES)
    def test_every_scheme_matches_an_empty_memo_run(self, scheme):
        """The warm-up is recorded under a *different* scheme, as in a
        figure sweep, and restored under this one."""
        scratch = _run(_art, scheme, hot_threshold=20)
        assert (scratch.hits, scratch.misses) == (0, 1)

        reset_prefix_memo()
        _run(_art, "itanium" if scheme != "itanium" else "none",
             hot_threshold=20)
        restored = _run(_art, scheme, hot_threshold=20)
        assert (restored.hits, restored.misses) == (1, 0)
        assert _state(restored) == _state(scratch)

    # name -> (program, DbtSystem/run kwargs, later run restores?)
    EDGE_CASES = {
        "alias-profiling": (
            _art, dict(hot_threshold=20, alias_profiling=True), True
        ),
        "budget-spent-before-install": (
            _two_loops, dict(max_guest_steps=60), False
        ),
        "budget-spent-after-install": (
            _two_loops, dict(max_guest_steps=200), True
        ),
        "exits-before-any-head-is-hot": (
            _two_loops, dict(hot_threshold=1000), False
        ),
        "first-hot-head-formed-not-installed": (_two_loops, {}, True),
    }

    @pytest.mark.parametrize("case", sorted(EDGE_CASES))
    def test_edge_case(self, case):
        make_program, kwargs, restores = self.EDGE_CASES[case]
        scratch = _run(make_program, **kwargs)
        again = _run(make_program, **kwargs)
        assert _state(again) == _state(scratch)
        if restores:
            assert (again.hits, again.misses) == (1, 0)
        else:
            # nothing was installed, so nothing was recorded
            assert (again.hits, again.misses) == (0, 1)
            assert len(dbt._PREFIXES) == 0
            assert scratch.report["translations"] == 0

    @pytest.mark.parametrize("alias_profiling", [False, True])
    def test_front_end_state_at_first_install_is_identical(
        self, alias_profiling
    ):
        """What the first ``runtime.install`` sees — memory, registers,
        interpreter, profiles, formed heads, runtime counters — is the
        same whether the warm-up was interpreted or restored."""
        def state_at_first_install():
            system = DbtSystem(
                _art(), "smarq",
                profiler_config=ProfilerConfig(hot_threshold=20),
                alias_profiling=alias_profiling,
            )
            seen = []
            install = system.runtime.install

            def recording_install(region):
                if not seen:
                    interp, profiler = system.interpreter, system.profiler
                    ap = system.alias_profiler
                    seen.append((
                        bytes(system.memory.buffer), list(interp.registers),
                        interp.pc, vars(interp.stats).copy(),
                        dict(profiler.block_counts),
                        dict(profiler.edge_counts), profiler._last_pc,
                        set(system._formed), vars(system.runtime.stats).copy(),
                        None if ap is None else (
                            [vars(a) for a in ap._window],
                            dict(ap.alias_events), dict(ap.executions),
                        ),
                    ))
                install(region)

            system.runtime.install = recording_install
            system.run()
            return seen[0]

        scratch = state_at_first_install()
        restored = state_at_first_install()
        assert len(dbt._PREFIXES) == 1
        assert restored == scratch

    def test_formed_but_uninstalled_head_stays_formed(self):
        scratch = _run()
        restored = _run()
        assert restored.hits == 1
        for outcome in (scratch, restored):
            assert _ALU_HEAD in outcome.system._formed
            assert _ALU_HEAD not in outcome.report["regions"]
            assert outcome.report["translations"] >= 1


def _with_imm(program):
    program.instructions[2].imm += 1  # movi r5: the value the loop adds
    return program


def _with_register(program):
    program.initial_registers[1] += 0x40  # the loop's base pointer
    return program


def _with_entry(program):
    program.entry_pc = 1  # skips ``movi r2, 0``: one step less
    return program


def _with_layout(program):
    # same memory size, two regions instead of one
    program.region_map = {"buf": (0x100, 0x80), "tail": (0x180, 0x80)}
    return program


class TestKeySensitivity:
    # name -> _run kwargs that change exactly one input of the warm-up
    VARIANTS = {
        "hot-threshold": dict(hot_threshold=11),
        "cold-threshold": dict(
            profiler_config=ProfilerConfig(hot_threshold=10, cold_threshold=9)
        ),
        "max-instructions": dict(
            region_config=RegionFormationConfig(max_instructions=3)
        ),
        "memory-slack": dict(memory_slack=8192),
        "interp-cycles": dict(
            runtime_config=RuntimeConfig(interp_cycles_per_instruction=21)
        ),
        "instruction-immediate": dict(
            make_program=lambda: _with_imm(_two_loops())
        ),
        "initial-register": dict(
            make_program=lambda: _with_register(_two_loops())
        ),
        "entry-pc": dict(make_program=lambda: _with_entry(_two_loops())),
        "data-layout": dict(make_program=lambda: _with_layout(_two_loops())),
        "alias-profiling": dict(alias_profiling=True),
        "step-budget": dict(max_guest_steps=60),
    }

    @pytest.mark.parametrize("variant", sorted(VARIANTS))
    def test_changed_input_misses(self, variant):
        kwargs = self.VARIANTS[variant]
        assert _run().misses == 1  # records the unchanged warm-up
        assert _run().hits == 1

        changed = _run(**kwargs)
        assert (changed.hits, changed.misses) == (0, 1)
        reset_prefix_memo()
        assert _state(changed) == _state(_run(**kwargs))


class TestBound:
    def test_lru_evicts_beyond_the_bound(self, monkeypatch):
        monkeypatch.setattr(dbt, "_PREFIX_ENTRIES", 2)
        for threshold in (10, 11, 12):
            assert _run(hot_threshold=threshold).misses == 1
        assert len(dbt._PREFIXES) == 2
        assert _run(hot_threshold=12).hits == 1
        assert _run(hot_threshold=10).misses == 1  # the oldest went first
        assert len(dbt._PREFIXES) == 2
