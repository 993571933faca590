"""System tests: the end-to-end DBT loop.

The central property: for every benchmark and every scheme, the DBT system
produces exactly the architectural state pure interpretation produces —
speculation, rollback, and re-optimization are invisible to the guest.
"""

import pytest

from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.workloads import SPECFP_BENCHMARKS, make_benchmark

PROFILER = ProfilerConfig(hot_threshold=15)
SCALE = 0.05  # small but past the hot threshold


def reference_state(bench):
    prog = make_benchmark(bench, scale=SCALE)
    mem = Memory(prog.memory_size() + 4096)
    interp = Interpreter(prog, mem)
    interp.run(max_steps=10_000_000)
    return interp.registers, mem.to_bytes()


def dbt_state(bench, scheme):
    prog = make_benchmark(bench, scale=SCALE)
    system = DbtSystem(prog, scheme, profiler_config=PROFILER)
    report = system.run()
    return system.interpreter.registers, system.memory.to_bytes(), report


class TestFunctionalEquivalence:
    @pytest.mark.parametrize("bench", ["swim", "ammp", "mesa", "art", "equake"])
    @pytest.mark.parametrize("scheme", ["none", "smarq", "smarq16", "itanium"])
    def test_state_matches_interpreter(self, bench, scheme):
        ref_regs, ref_mem = reference_state(bench)
        regs, mem, report = dbt_state(bench, scheme)
        assert regs == ref_regs
        assert mem == ref_mem
        assert report.translations >= 1


class TestDbtBehaviour:
    def test_translations_installed(self):
        _, _, report = dbt_state("swim", "smarq")
        assert report.translations >= 1
        assert report.region_commits > 0

    def test_speculation_beats_baseline(self):
        prog_a = make_benchmark("swim", scale=0.1)
        prog_b = make_benchmark("swim", scale=0.1)
        base = DbtSystem(prog_a, "none", profiler_config=PROFILER).run()
        spec = DbtSystem(prog_b, "smarq", profiler_config=PROFILER).run()
        assert spec.total_cycles < base.total_cycles

    def test_smarq16_throttles_ammp(self):
        prog = make_benchmark("ammp", scale=0.05)
        report = DbtSystem(prog, "smarq16", profiler_config=PROFILER).run()
        ws = max(s.working_set for s in report.region_stats.values())
        assert ws <= 16

    def test_itanium_false_positives_on_ammp(self):
        _, _, report = dbt_state("ammp", "itanium")
        assert report.false_positive_exceptions > 0

    def test_smarq_has_no_false_positives(self):
        for bench in ("ammp", "equake", "mesa"):
            _, _, report = dbt_state(bench, "smarq")
            assert report.false_positive_exceptions == 0

    def test_collision_benchmark_recovers(self):
        """ammp's pointer-table collisions cause genuine aliases; the
        runtime must re-optimize and still finish correctly."""
        ref_regs, ref_mem = reference_state("ammp")
        regs, mem, report = dbt_state("ammp", "smarq")
        assert regs == ref_regs and mem == ref_mem

    def test_region_snapshots_populated(self):
        _, _, report = dbt_state("swim", "smarq")
        snap = next(iter(report.region_stats.values()))
        assert snap.memory_ops > 0
        assert snap.working_set >= 1
        assert snap.working_set_lower_bound <= snap.working_set

    def test_report_fractions(self):
        _, _, report = dbt_state("swim", "smarq")
        assert 0 < report.optimization_fraction < 0.5
        assert report.scheduling_fraction <= report.optimization_fraction

    def test_exit_code_propagated(self):
        prog = make_benchmark("swim", scale=SCALE)
        report = DbtSystem(prog, "smarq", profiler_config=PROFILER).run()
        assert report.exit_code == 0


class TestSchemes:
    def test_unknown_scheme_rejected(self):
        from repro.sim.schemes import make_scheme

        with pytest.raises(ValueError):
            make_scheme("bogus")

    def test_scheme_register_counts(self):
        from repro.sim.schemes import make_scheme

        assert make_scheme("smarq").machine.alias_registers == 64
        assert make_scheme("smarq16").machine.alias_registers == 16

    def test_itanium_policy(self):
        from repro.sim.schemes import make_scheme

        scheme = make_scheme("itanium")
        assert not scheme.optimizer_config.allow_store_reorder
        assert scheme.optimizer_config.speculation_policy == "loads_only"
        assert not scheme.optimizer_config.enable_store_elimination

    def test_none_policy(self):
        from repro.sim.schemes import make_scheme

        assert not make_scheme("none").optimizer_config.speculate
