"""Timing-plan tests: the planned path is a memoization, not a model.

The VLIW simulator splits region execution into functional replay plus a
timing plan that keeps one outcome per exit (see :mod:`repro.sim.vliw`).
These tests pin the contract:

* re-executing a region along a seen exit is a plan *hit* — the
  scoreboard loop must not run again;
* one exit yields one shared, frozen outcome on every replay tier, and
  distinct control-flow exits get distinct outcomes; an alias exit hands
  each execution a copy of its template carrying the faulting pair;
* outcomes are field-identical to the interpreted scoreboard loop, for
  commits, side exits, guest exits, fall-through and alias aborts, on
  every replay tier (the dispatch loop, ``py``, ``vec`` and ``batch``);
* ``SMARQ_NO_TIMING_PLANS=1`` disables the machinery entirely;
* every shipped adapter lowers each golden instruction statically, and
  the base adapter class provides no lowering or config key by default.
"""

import dataclasses

import pytest

import repro.sim.vliw as vliw_mod
from repro.engine.instrumentation import Tracer
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.sched.machine import MachineModel
from repro.sim.memory import Memory
from repro.sim.replay_ir import X_ALIAS, X_BR, X_EXIT, X_FALL, X_SIDE
from repro.sim.schemes import (
    EfficeonAdapter,
    HardwareAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
)
from repro.sim.vliw import VliwSimulator

from tests.test_golden_reports import GOLDEN_CELLS, run_cell

MACHINE = MachineModel()


def translate(insts, speculate=True):
    block = Superblock(entry_pc=0, instructions=list(insts))
    pipeline = OptimizationPipeline(
        MACHINE, OptimizerConfig(speculate=speculate)
    )
    return pipeline.optimize(block)


def side_exit_region():
    """Commits when r3 == 0, takes the side exit otherwise."""
    return translate(
        [
            movi(1, 0x100),
            movi(2, 9),
            store(1, 2),
            branch(Opcode.BNE, 7, srcs=(3, 0)),
            binop(Opcode.ADD, 4, 2, 2),
            branch(Opcode.BR, 0),
        ]
    )


def alias_region():
    """Speculation may hoist ``load r2, [r3]`` above the store; r3 ==
    0x100 then collides at runtime (same shape as tests/test_vliw.py)."""
    return translate(
        [
            movi(1, 0x100),
            load(9, 8),
            store(1, 9),
            load(2, 3),
            branch(Opcode.BR, 0),
        ]
    )


def exit_region():
    """Leaves by the guest ``exit`` instruction with exit code 3."""
    return translate(
        [
            movi(1, 0x100),
            load(2, 1),
            binop(Opcode.ADD, 4, 2, 2),
            store(1, 4),
            branch(Opcode.EXIT, 3),
        ]
    )


def fall_through_region():
    """Has no terminating branch: it falls off the end of its trace."""
    return translate(
        [
            movi(1, 0x100),
            load(2, 1),
            binop(Opcode.ADD, 4, 2, 2),
            store(1, 4),
        ]
    )


# one region and r3 value per exit kind a trace can leave by
EXIT_CASES = {
    "commit": (side_exit_region, 0, X_BR),
    "side_exit": (side_exit_region, 1, X_SIDE),
    "exit": (exit_region, 0, X_EXIT),
    "fall_through": (fall_through_region, 0, X_FALL),
    "alias": (alias_region, 0x100, X_ALIAS),
}

BACKENDS = ["interp", "py", "vec", "batch"]


def run_once(region, r3=0, adapter=None, tracer=None, sim=None):
    memory = Memory(4096)
    memory.write(0x100, 0xAB, 8)
    registers = [0] * 64
    registers[3] = r3
    sim = sim or VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
    sim.memory = memory
    adapter = adapter or SmarqAdapter(64)
    outcome = sim.execute_region(region, adapter, registers)
    return outcome, registers, memory, sim


class TestPlanMemoization:
    def test_second_execution_hits(self):
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        run_once(region, r3=0, sim=sim)
        assert tracer.counters.get("vliw.plan_misses") == 1
        assert tracer.counters.get("vliw.plan_compiles") == 1
        assert tracer.counters.get("vliw.plan_hits", 0) == 0

        first = run_once(region, r3=0, sim=sim)[0]
        assert tracer.counters.get("vliw.plan_hits") == 1
        # hits never recompile the cumulative plan
        assert tracer.counters.get("vliw.plan_compiles") == 1
        second = run_once(region, r3=0, sim=sim)[0]
        assert first is second

class TestOneOutcomePerExit:
    """A plan keeps one outcome per ``(exit index, exit kind)``, shared
    by every execution and every replay tier that leaves there."""

    def test_kernel_returns_the_dispatch_loops_outcome(self, monkeypatch):
        monkeypatch.setattr(vliw_mod, "_REPLAY_THRESHOLD", 2)
        for r3 in (0, 1):  # the commit exit, then the side exit
            region = side_exit_region()
            sim = VliwSimulator(MACHINE, Memory(4096))
            loop = run_once(region, r3=r3, sim=sim)[0]  # dispatch loop
            kernel = run_once(region, r3=r3, sim=sim)[0]  # batch kernel
            assert region._vliw_trace[6].tier == "batch"
            assert kernel is loop

    @pytest.mark.parametrize("case", list(EXIT_CASES))
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_every_tier_repeats_one_object(self, monkeypatch, backend, case):
        """Each tier, each exit kind: every execution equals the
        interpreted scoreboard's, the plan keeps one outcome for the
        exit, and a clean exit hands every execution that one object
        (an alias exit, an equal copy of it)."""
        make_region, r3, kind = EXIT_CASES[case]
        monkeypatch.setenv("SMARQ_REPLAY_BACKEND", backend)
        region = make_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        oracle = VliwSimulator(MACHINE, Memory(4096))
        oracle._plans_enabled = False
        outcomes = []
        for _ in range(3):
            planned = run_once(region, r3=r3, sim=sim)
            interpreted = run_once(region, r3=r3, sim=oracle)
            assert planned[0] == interpreted[0]
            assert planned[1] == interpreted[1]
            assert planned[2].to_bytes() == interpreted[2].to_bytes()
            outcomes.append(planned[0])
        assert sim.stats == oracle.stats
        plan = region._vliw_trace[6]
        exits = plan.exits
        assert [k for _idx, k in exits] == [kind]
        first, second, third = outcomes
        if kind == X_ALIAS:
            assert first == second == third
            assert first is not second and second is not third
        else:
            assert first is second is third
            assert first is exits[next(iter(exits))]
            # the forced tier ran every execution (an alias may escape
            # a kernel and re-run on the dispatch loop); a forced batch
            # compiles vec for a trace without a back-edge
            tier = plan.tier or "interp"
            assert tier == backend or (backend, tier) == ("batch", "vec")
            assert tracer.counters.get(f"vliw.backend_{tier}") == 3

    def test_distinct_exits_distinct_outcomes(self):
        region = side_exit_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        commit = run_once(region, r3=0, sim=sim)[0]
        side = run_once(region, r3=1, sim=sim)[0]
        assert commit.status == "commit"
        assert side.status == "side_exit"
        exits = region._vliw_trace[6].exits
        assert sorted(kind for _idx, kind in exits) == [X_SIDE, X_BR]
        assert [id(out) for out in exits.values()] == [id(commit), id(side)]
        assert commit.cycles != side.cycles  # the rollback penalty

    def test_alias_exit_copies_its_template_with_the_pair(self):
        region = alias_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        first, second = (
            run_once(region, r3=0x100, sim=sim)[0] for _ in range(2)
        )
        (template,) = [
            out for (_idx, kind), out in region._vliw_trace[6].exits.items()
            if kind == X_ALIAS
        ]
        assert template.alias_setter is None
        assert template.alias_checker is None
        for out in (first, second):
            assert out.status == "alias"
            assert out is not template
            assert out.alias_setter is not None
            assert out.alias_checker is not None
            assert out.cycles == template.cycles
            assert out.instructions_executed == template.instructions_executed
        assert first == second and first is not second

    def test_outcomes_are_frozen(self):
        outcome = run_once(side_exit_region(), r3=0)[0]
        with pytest.raises(dataclasses.FrozenInstanceError):
            outcome.cycles = 0


class TestPlannedMatchesInterpreted:
    """Planned and interpreted outcomes must be field-identical."""

    def assert_equivalent(self, region, r3, adapter_factory, tracer=None):
        planned_sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert planned_sim._plans_enabled
        interp_sim = VliwSimulator(MACHINE, Memory(4096))
        interp_sim._plans_enabled = False
        planned = run_once(region, r3=r3, adapter=adapter_factory(), sim=planned_sim)
        interpreted = run_once(
            region, r3=r3, adapter=adapter_factory(), sim=interp_sim
        )
        assert planned[0] == interpreted[0]  # RegionOutcome dataclass eq
        assert planned[1] == interpreted[1]  # guest registers
        assert planned[2].to_bytes() == interpreted[2].to_bytes()
        assert planned[3].stats == interp_sim.stats

    @pytest.mark.parametrize("r3", [0, 1])
    def test_side_exit_region(self, r3):
        region = side_exit_region()
        self.assert_equivalent(region, r3, lambda: SmarqAdapter(64))

    @pytest.mark.parametrize(
        "adapter_factory",
        [
            lambda: SmarqAdapter(64),
            lambda: ItaniumAdapter(),
            lambda: EfficeonAdapter(),
            NullAdapter,
        ],
    )
    def test_alias_region_all_schemes(self, adapter_factory):
        region = alias_region()
        self.assert_equivalent(region, 0x100, adapter_factory)
        self.assert_equivalent(region, 0x300, adapter_factory)

    def test_replay_codegen_tier(self, monkeypatch):
        """Past the threshold the trace's compiled kernel takes over, and
        an execution that escapes it re-runs on the dispatch loop (the
        ``interp`` oracle), with no ``py`` code generated; effects and
        plan bookkeeping must not change."""
        monkeypatch.setattr(vliw_mod, "_REPLAY_THRESHOLD", 2)
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        baseline = run_once(region, r3=0, sim=sim)[0]  # dispatch loop
        compiled = run_once(region, r3=0, sim=sim)[0]  # the kernel
        assert tracer.counters.get("vliw.backend_interp") == 1
        assert tracer.counters.get("vliw.backend_batch") == 1
        assert baseline == compiled
        assert region._vliw_trace[6].tier == "batch"
        # the alias path: dispatch loop, a clean kernel run, then a
        # colliding one that escapes and re-runs on the dispatch loop;
        # each run's effects equal the interpreted scoreboard's
        alias = alias_region()
        tracer = Tracer()
        c = tracer.counters
        for r3, escapes in ((0x100, 0), (0x300, 0), (0x100, 1)):
            interp = c.get("vliw.backend_interp", 0)
            trims = c.get("vliw.batch_trims", 0)
            self.assert_equivalent(
                alias, r3, lambda: SmarqAdapter(64), tracer
            )
            assert c.get("vliw.batch_trims", 0) == trims + escapes
            if escapes:
                assert c.get("vliw.backend_interp", 0) == interp + 1
        plan = alias._vliw_trace[6]
        assert plan.tier == "batch"
        assert plan.replay_fn is None
        assert c.get("vliw.backend_interp", 0) == 2
        assert c.get("vliw.replay_compiles", 0) == 0


class TestKillSwitch:
    def test_env_var_disables_plans(self, monkeypatch):
        monkeypatch.setenv("SMARQ_NO_TIMING_PLANS", "1")
        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        assert not sim._plans_enabled
        outcome = run_once(region, r3=0, sim=sim)[0]
        assert outcome.status == "commit"
        assert tracer.counters.get("vliw.plan_hits", 0) == 0
        assert tracer.counters.get("vliw.plan_misses", 0) == 0
        assert tracer.counters.get("vliw.plan_compiles", 0) == 0


class TestAdapterContract:
    """The planned path and every replay tier assume each adapter lowers
    statically (see :class:`~repro.sim.schemes.HardwareAdapter`)."""

    def test_shipped_adapters_lower_every_golden_instruction(
        self, monkeypatch
    ):
        """Each shipped adapter's three ``lower_*_event`` hooks return a
        tuple of event tuples for every instruction of the golden cells'
        translated linear streams."""
        linears = []
        real_optimize = OptimizationPipeline.optimize

        def recording_optimize(self, original):
            region = real_optimize(self, original)
            linears.append(region.schedule.linear)
            return region

        monkeypatch.setattr(
            OptimizationPipeline, "optimize", recording_optimize
        )
        for cell in GOLDEN_CELLS:
            run_cell(*cell)
        insts = [inst for linear in linears for inst in linear]
        assert {Opcode.LD, Opcode.ST, Opcode.ROTATE} <= {
            inst.opcode for inst in insts
        }
        for adapter_cls in (
            NullAdapter, SmarqAdapter, ItaniumAdapter, EfficeonAdapter
        ):
            for hook in (
                adapter_cls.lower_mem_event,
                adapter_cls.lower_rotate_event,
                adapter_cls.lower_amov_event,
            ):
                for inst in insts:
                    events = hook(inst)
                    assert type(events) is tuple, (hook, inst)
                    assert all(type(ev) is tuple for ev in events)

    def test_base_adapter_promises_nothing(self):
        """A subclass must implement the lowering hooks and the config
        key; the base class answers neither with a default."""
        inst = load(2, 3)
        for hook in (
            HardwareAdapter.lower_mem_event,
            HardwareAdapter.lower_rotate_event,
            HardwareAdapter.lower_amov_event,
        ):
            with pytest.raises(NotImplementedError):
                hook(inst)
        with pytest.raises(NotImplementedError):
            HardwareAdapter().replay_config_key()
