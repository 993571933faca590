"""Suite-wide smoke: every benchmark under every scheme, briefly.

Short runs (small scale, low hot threshold) that still cross the
translation threshold, asserting the core system invariants for every
(benchmark, scheme) cell: correct exit, at least one translation, and no
false positives under the precise schemes.
"""

import pytest

from repro.frontend.profiler import ProfilerConfig
from repro.sim.dbt import DbtSystem
from repro.workloads import SPECFP_BENCHMARKS, make_benchmark

PROFILER = ProfilerConfig(hot_threshold=10)
SCALE = 0.03

PRECISE_SCHEMES = ("smarq", "smarq16", "efficeon", "plainorder")


@pytest.mark.parametrize("bench", SPECFP_BENCHMARKS)
def test_benchmark_translates_and_finishes(bench):
    program = make_benchmark(bench, scale=SCALE)
    report = DbtSystem(program, "smarq", profiler_config=PROFILER).run()
    assert report.exit_code == 0
    assert report.translations >= 1
    assert report.region_commits > 0
    assert report.total_cycles > 0


@pytest.mark.parametrize("scheme", PRECISE_SCHEMES)
def test_precise_schemes_have_no_false_positives(scheme):
    for bench in ("ammp", "mesa", "equake"):
        program = make_benchmark(bench, scale=SCALE)
        report = DbtSystem(program, scheme, profiler_config=PROFILER).run()
        assert report.false_positive_exceptions == 0, (bench, scheme)


@pytest.mark.parametrize("bench", ["wupwise", "galgel", "facerec", "lucas",
                                   "fma3d", "apsi", "mgrid", "applu"])
def test_remaining_benchmarks_equivalent_under_smarq(bench):
    from repro.frontend.interpreter import Interpreter
    from repro.sim.memory import Memory

    program = make_benchmark(bench, scale=SCALE)
    memory = Memory(program.memory_size() + 4096)
    ref = Interpreter(program, memory)
    ref.run(max_steps=10_000_000)

    program2 = make_benchmark(bench, scale=SCALE)
    system = DbtSystem(program2, "smarq", profiler_config=PROFILER)
    system.run()
    assert system.interpreter.registers == ref.registers
    assert system.memory.to_bytes() == memory.to_bytes()


def test_all_schemes_agree_on_guest_instruction_count():
    """The guest work is scheme-independent (same program, same inputs)."""
    counts = set()
    for scheme in ("none", "smarq", "itanium"):
        program = make_benchmark("art", scale=SCALE)
        report = DbtSystem(program, scheme, profiler_config=PROFILER).run()
        # interpreted instruction counts differ (different abort patterns),
        # but the committed guest work must finish: exit code 0 everywhere
        assert report.exit_code == 0
        counts.add(report.exit_code)
    assert counts == {0}
