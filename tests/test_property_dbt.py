"""System-level property test: DBT equivalence on randomized workloads.

Hypothesis draws workload *traits* (pattern mixes, array shapes, collision
rates), builds the guest program, and checks that every alias-detection
scheme produces architectural state identical to pure interpretation —
through speculation, elimination, unrolling, rollback, and
re-optimization. This is the whole system's correctness contract run over
a randomized corpus.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.frontend.interpreter import Interpreter
from repro.frontend.profiler import ProfilerConfig
from repro.opt.pipeline import OptimizerConfig
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.schemes import Scheme, SmarqAdapter, make_scheme
from repro.workloads.synthetic import WorkloadTraits, build_from_traits

traits_strategy = st.builds(
    WorkloadTraits,
    name=st.just("prop"),
    iterations=st.integers(40, 90),
    phases=st.integers(1, 2),
    streams=st.integers(0, 4),
    known_streams=st.integers(0, 2),
    rmws=st.integers(0, 3),
    indirect_loads=st.integers(0, 2),
    indirect_stores=st.integers(0, 2),
    redundant_loads=st.integers(0, 2),
    dead_stores=st.integers(0, 2),
    slow_stores=st.integers(0, 2),
    slow_store_followers=st.integers(1, 3),
    chained_forwardings=st.integers(0, 1),
    fp_chain=st.integers(1, 3),
    known_arrays=st.integers(1, 2),
    unknown_arrays=st.integers(1, 3),
    collision_period=st.sampled_from([0, 7, 13]),
)

PROFILER = ProfilerConfig(hot_threshold=12)


def reference(program_traits):
    program = build_from_traits(program_traits)
    memory = Memory(program.memory_size() + 4096)
    interp = Interpreter(program, memory)
    interp.run(max_steps=5_000_000)
    return interp.registers, memory.to_bytes()


def under_scheme(program_traits, scheme):
    program = build_from_traits(program_traits)
    system = DbtSystem(program, scheme, profiler_config=PROFILER)
    system.run()
    return (
        system.interpreter.registers,
        system.memory.to_bytes(),
    )


class TestDbtEquivalenceProperty:
    @settings(max_examples=25)
    @given(traits=traits_strategy)
    def test_all_schemes_match_interpreter(self, traits):
        ref = reference(traits)
        for scheme in ("smarq", "smarq16", "itanium", "efficeon"):
            got = under_scheme(traits, scheme)
            assert got == ref, f"state diverged under {scheme}"

    @settings(max_examples=15)
    @given(traits=traits_strategy, factor=st.sampled_from([2, 3]))
    def test_unrolled_smarq_matches_interpreter(self, traits, factor):
        ref = reference(traits)
        base = make_scheme("smarq")
        scheme = Scheme(
            f"smarq-u{factor}",
            base.machine,
            OptimizerConfig(speculate=True, unroll_factor=factor),
            lambda: SmarqAdapter(base.machine.alias_registers),
        )
        got = under_scheme(traits, scheme)
        assert got == ref
