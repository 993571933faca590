"""Timing-plan tests: the planned path is a memoization, not a model.

The VLIW simulator splits region execution into functional replay plus a
path-keyed timing plan (see :mod:`repro.sim.vliw`). These tests pin the
contract:

* re-executing a region along a seen path is a plan *hit* — the
  scoreboard loop must not run again;
* distinct control-flow exits (and distinct adapter event streams) get
  distinct signatures, each with its own memoized cycle count;
* outcomes are field-identical to the interpreted scoreboard loop, for
  commits, side exits and alias aborts, on both replay tiers (generic
  dispatch and the generated straight-line function);
* ``SMARQ_NO_TIMING_PLANS=1`` disables the machinery entirely;
* re-translation invalidates the cached trace + plans.
"""

import pytest

import repro.sim.vliw as vliw_mod
from repro.engine.instrumentation import Tracer
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.sched.machine import MachineModel
from repro.sim.memory import Memory
from repro.sim.schemes import (
    EfficeonAdapter,
    ItaniumAdapter,
    NullAdapter,
    SmarqAdapter,
)
from repro.sim.vliw import VliwSimulator, invalidate_timing_plans

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
        assert first == second

    def test_distinct_exits_distinct_signatures(self):
        region = side_exit_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        commit = run_once(region, r3=0, sim=sim)[0]
        side = run_once(region, r3=1, sim=sim)[0]
        assert commit.status == "commit"
        assert side.status == "side_exit"
        plan = region._vliw_trace[6]
        exits = {(idx, kind) for idx, kind, _events in plan.signatures}
        assert len(plan.signatures) == 2
        assert len(exits) == 2

    def test_invalidation_drops_cached_plans(self):
        region = side_exit_region()
        sim = VliwSimulator(MACHINE, Memory(4096))
        run_once(region, r3=0, sim=sim)
        assert region._vliw_trace is not None
        assert invalidate_timing_plans(region) is True
        assert region._vliw_trace is None
        # idempotent: nothing left to drop
        assert invalidate_timing_plans(region) is False
        # the next execution recompiles from scratch and still works
        outcome = run_once(region, r3=0, sim=sim)[0]
        assert outcome.status == "commit"


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
        assert planned[2].read_bytes(0, 4096) == interpreted[2].read_bytes(
            0, 4096
        )
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

    def test_non_transparent_adapter_uses_interpreter(self):
        class OpaqueAdapter(NullAdapter):
            timing_transparent = False

        region = side_exit_region()
        tracer = Tracer()
        sim = VliwSimulator(MACHINE, Memory(4096), tracer=tracer)
        outcome = run_once(region, r3=0, adapter=OpaqueAdapter(), sim=sim)[0]
        assert outcome.status == "commit"
        assert tracer.counters.get("vliw.plan_misses", 0) == 0


class TestEventFingerprints:
    """The adapter fingerprint is the replay signature's event stream."""

    def test_all_shipped_adapters_are_transparent(self):
        for adapter in (
            NullAdapter(),
            SmarqAdapter(64),
            ItaniumAdapter(),
            EfficeonAdapter(),
        ):
            assert adapter.timing_transparent

    def test_smarq_fingerprint_tracks_region_events(self):
        adapter = SmarqAdapter(64)
        adapter.on_region_enter(region=None)
        clean = adapter.event_fingerprint()
        adapter.queue.check_then_set_range(0, 0x10, 8, False, 0)
        dirty = adapter.event_fingerprint()
        assert dirty != clean
        # re-entering a region re-baselines the delta
        adapter.on_region_enter(region=None)
        assert adapter.event_fingerprint() == clean

    def test_fingerprint_excludes_data_dependent_comparisons(self):
        """Two executions that differ only in how many live entries a
        check scanned must produce the same fingerprint."""
        a = SmarqAdapter(64)
        a.on_region_enter(region=None)
        a.queue.check_then_set_range(0, 0x10, 8, False, 0)
        a.queue.check_then_set_range(1, 0x20, 8, False, 1)

        b = SmarqAdapter(64)
        b.on_region_enter(region=None)
        b.queue.check_then_set_range(0, 0x110, 8, False, 0)
        b.queue.check_then_set_range(1, 0x120, 8, False, 1)
        assert a.event_fingerprint() == b.event_fingerprint()
