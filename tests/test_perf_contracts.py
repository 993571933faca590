"""Perf-contract tests: algorithmic invariants instead of timing.

Wall-clock benchmarks (``bench/``) drift with the machine; these tests
pin the *shape* of the hot paths with exact counters, so a complexity
regression (a cache that stops hitting, a queue scan that goes
quadratic, an allocator that re-heapifies) fails deterministically:

1. a warm report cache serves every job without a single ``DbtSystem.run``
   (the Tracer's ``dbt.runs`` counter stays at zero);
2. the alias-register queue performs at most ``live`` comparisons per
   check — the sorted-order index must never degrade to rescanning dead
   or earlier-order entries;
3. the integrated allocator's base-tracking heap does O(1) amortized work
   per memory operation: each op is pushed at most once, and pops never
   exceed pushes;
4. hot regions are served by memoized timing plans — re-executions along
   a seen path are plan *hits*, and disabling the machinery with
   ``SMARQ_NO_TIMING_PLANS=1`` changes nothing observable in the report;
5. every region execution lands on exactly one replay backend tier
   (``vliw.backend_interp``/``py``/``vec``/``batch`` partition
   ``vliw.regions_executed``), and the serve daemon's ``stats`` payload
   summarizes the same counters in its ``translate``/``plans``/
   ``backends`` sections;
6. a hot trace compiles one kernel: a cold run generates at most one
   batch-or-vec kernel per promoted trace, and ``py`` code only for
   traces that escaped a kernel or that no kernel could lower;
7. importing the CLI pulls in no numpy (process start-up stays lean);
8. a program's interpreted warm-up runs once per process: a cold sweep
   of the figure schemes records it on each program's first cell
   (``dbt.prefix_misses``) and restores it in every other
   (``dbt.prefix_hits``), and a restored cell compiles no interpreter
   handler for code that only ran during the warm-up;
9. a translation miss builds and pickles only what is read: a cold run
   of two schemes over one program constructs no ``DdgEdge`` (the DDG
   and the scheduler work on position tuples, and the second scheme
   adopts the first one's memoized DDG), and no full-tier blob pickles
   the allocator, its dependence set or the alias analysis.
"""

import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.smarq.allocator as allocator_mod
from repro.engine.cache import ReportCache
from repro.engine.core import ExecutionEngine
from repro.engine.instrumentation import Tracer
from repro.engine.jobs import JobSpec
from repro.frontend.profiler import ProfilerConfig
from repro.opt.translation_cache import STAGES
from repro.sim.dbt import DbtSystem
from repro.workloads import make_benchmark

from tests.test_differential_alloc import integrated_allocation
from tests.test_property_smarq import program_body

SPEC = JobSpec(benchmark="art", scheme_key="smarq", scale=0.05)


class TestWarmCacheRunsNothing:
    def test_second_engine_serves_fully_from_cache(self, tmp_path):
        cold = Tracer()
        ExecutionEngine(cache=ReportCache(tmp_path), tracer=cold).run([SPEC])
        assert cold.counters.get("dbt.runs", 0) >= 1
        assert cold.counters.get("engine.cache_misses") == 1

        warm = Tracer()
        reports = ExecutionEngine(
            cache=ReportCache(tmp_path), tracer=warm
        ).run([SPEC])
        assert len(reports) == 1
        assert warm.counters.get("engine.cache_hits") == 1
        assert warm.counters.get("engine.cache_misses", 0) == 0
        assert warm.counters.get("dbt.runs", 0) == 0


class TestQueueComparisonBound:
    def test_comparisons_bounded_by_checks_times_live(self):
        """Every check compares at most the entries live at-or-after its
        own order; ``max_live`` upper-bounds that for all checks."""
        program = make_benchmark("art", scale=0.05)
        system = DbtSystem(
            program, "smarq", profiler_config=ProfilerConfig(hot_threshold=20)
        )
        system.run()
        stats = system.runtime._adapter.queue.stats
        total_checks = stats.checks + stats.exceptions
        assert stats.sets > 0, "workload never exercised the queue"
        assert total_checks > 0
        assert stats.max_live <= system.runtime._adapter.queue.num_registers
        assert stats.comparisons <= total_checks * stats.max_live


class TestAllocatorHeapIsLinear:
    @settings(max_examples=50, deadline=None)
    @given(body=program_body)
    def test_heap_traffic_linear_in_memory_ops(self, body):
        # Patched by hand (not the monkeypatch fixture) so each generated
        # example gets fresh counters under hypothesis.
        pushes = []
        pops = []
        real_push = allocator_mod.heappush
        real_pop = allocator_mod.heappop

        def counting_push(heap, item):
            pushes.append(item)
            real_push(heap, item)

        def counting_pop(heap):
            pops.append(heap[0])
            return real_pop(heap)

        allocator_mod.heappush = counting_push
        allocator_mod.heappop = counting_pop
        try:
            allocator, _result, _deps, _machine = integrated_allocation(body)
        finally:
            allocator_mod.heappush = real_push
            allocator_mod.heappop = real_pop
        mem_ops = allocator.stats.memory_ops
        # One push per op that ever becomes pending, plus one per AMOV
        # pseudo-op; never a re-heapify of the whole structure.
        budget = mem_ops + allocator.stats.amovs_inserted
        assert len(pushes) <= budget
        assert len(pops) <= len(pushes)


def _run_cell(benchmark="art", scheme="smarq", scale=0.05):
    tracer = Tracer()
    program = make_benchmark(benchmark, scale=scale)
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=20),
        tracer=tracer,
    )
    return system.run(), tracer


def _count_codegen(monkeypatch) -> Counter:
    """Count replay codegen calls per backend (``compile_py`` /
    ``compile_vec`` / ``compile_batch``, plus ``<name>_rejected`` for
    calls whose lowering refused the trace) and trace lowerings
    (``lower``: one per promoted trace artifact) for the test's
    duration."""
    import repro.sim.replay_backends as backends
    import repro.sim.vliw as vliw_mod

    calls: Counter = Counter()

    def counting(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            out = fn(*args, **kwargs)
            if out is None:
                calls[f"{name}_rejected"] += 1
            return out

        return wrapper

    for name in ("compile_py", "compile_vec", "compile_batch"):
        monkeypatch.setattr(
            backends, name, counting(name, getattr(backends, name))
        )
    monkeypatch.setattr(
        vliw_mod, "_lower_trace", counting("lower", vliw_mod._lower_trace)
    )
    return calls


class TestOneKernelPerTrace:
    CELLS = [
        (benchmark, scheme)
        for benchmark in ("ammp", "pwalk", "art")
        for scheme in ("smarq", "itanium")
    ]

    def test_cold_run_compiles_one_kernel_per_promoted_trace(
        self, monkeypatch
    ):
        """A cold run (empty artifact cache) over several cells: each
        promoted trace — one IR lowering — compiles at most one kernel,
        batch or vec, and ``py`` code is generated only for traces that
        escaped a kernel or that no kernel could lower. A promotion
        ladder that generates py, vec and batch code for every hot trace
        fails both bounds."""
        from repro.sim.replay_backends import reset_artifact_cache

        codegen = _count_codegen(monkeypatch)
        reset_artifact_cache()
        tracer = Tracer()
        for benchmark, scheme in self.CELLS:
            program = make_benchmark(benchmark, scale=0.2)
            DbtSystem(program, scheme, tracer=tracer).run()
        c = tracer.counters
        promoted = codegen["lower"]
        assert promoted > 0
        kernels = c.get("vliw.batch_compiles", 0) + c.get(
            "vliw.vec_compiles", 0
        )
        assert 0 < kernels <= promoted
        escapes = c.get("vliw.vec_fallbacks", 0) + c.get(
            "vliw.batch_trims", 0
        )
        unlowerable = (
            codegen["compile_vec_rejected"]
            + codegen["compile_batch_rejected"]
        )
        assert codegen["compile_py"] <= escapes + unlowerable
        # the kernel ran the hot loops
        assert c.get("vliw.backend_batch", 0) + c.get(
            "vliw.backend_vec", 0
        ) > c.get("vliw.backend_py", 0)


class TestPrefixSharing:
    BENCHMARKS = ("art", "swim")

    def test_scheme_sweep_interprets_each_warm_up_once(self):
        """2 benchmarks x the 6 scheme keys the figures sweep (the fig16
        variant included), serially in one process: one recorded
        warm-up per benchmark, restored by its other 5 cells. A
        restored cell never executes the set-up code that only runs
        before the first install, so it compiles no handler for it."""
        from repro.engine.cache import NullCache
        from repro.eval.fig15 import SCHEMES
        from repro.eval.fig16 import NO_STORE_REORDER_KEY, register_variant
        from repro.eval.suite import SuiteConfig, SuiteRunner
        from repro.sim.dbt import reset_prefix_memo

        reset_prefix_memo()
        engine = ExecutionEngine(cache=NullCache())
        runner = SuiteRunner(
            SuiteConfig(benchmarks=list(self.BENCHMARKS), scale=0.05),
            engine,
        )
        register_variant(runner)
        keys = ("none",) + tuple(SCHEMES) + (NO_STORE_REORDER_KEY,)
        assert len(keys) == 6
        runner.prefetch(keys)
        c = engine.tracer.counters
        assert c.get("dbt.prefix_misses", 0) == len(self.BENCHMARKS)
        assert c.get("dbt.prefix_hits", 0) == len(self.BENCHMARKS) * 5

        def first_benchmark_cell():
            return DbtSystem(
                make_benchmark(self.BENCHMARKS[0], scale=0.05), "smarq",
                profiler_config=ProfilerConfig(hot_threshold=20),
            )

        restored = first_benchmark_cell()
        restored.run()

        # from an empty memo, find the pcs interpreted only before the
        # first install
        reset_prefix_memo()
        scratch = first_benchmark_cell()
        installed = []
        before, after = set(), set()
        install, observe = scratch.runtime.install, scratch.profiler.observe

        def recording_install(region):
            installed.append(region.entry_pc)
            install(region)

        def recording_observe(pc):
            (after if installed else before).add(pc)
            observe(pc)

        scratch.runtime.install = recording_install
        scratch.interpreter.trace_hook = recording_observe
        scratch.run()
        preamble = before - after
        assert preamble, "the workload has no set-up code"
        handlers = restored.interpreter._handlers
        assert [pc for pc in sorted(preamble) if handlers[pc] is not None] == []


class TestTranslationKeepsWhatIsRead:
    def test_cold_translation_builds_no_edges_and_pickles_no_allocator(
        self, monkeypatch
    ):
        import repro.sched.ddg as ddg_mod
        from repro.opt.translation_cache import (
            get_translation_cache,
            reset_translation_cache,
        )

        edges = []
        real_edge = ddg_mod.DdgEdge

        def counting_edge(*args, **kwargs):
            edges.append(args)
            return real_edge(*args, **kwargs)

        monkeypatch.setattr(ddg_mod, "DdgEdge", counting_edge)
        reset_translation_cache()
        tracer = Tracer()
        for scheme in ("smarq", "smarq16"):
            DbtSystem(
                make_benchmark("art", scale=0.05),
                scheme,
                profiler_config=ProfilerConfig(hot_threshold=20),
                tracer=tracer,
            ).run()
        payloads = list(get_translation_cache()._full.values())
        reset_translation_cache()

        assert tracer.counters.get("translate.ddg_hits", 0) >= 1
        assert edges == []
        assert payloads
        for name in (b"SmarqAllocator", b"DependenceSet", b"AliasAnalysis"):
            assert [p for p in payloads if name in p] == [], name


class TestStartupImports:
    def test_cli_import_pulls_in_no_numpy(self):
        """Nothing on the CLI's import path may import numpy: every
        process would pay its import time and memory at start-up."""
        src = Path(__file__).resolve().parent.parent / "src"
        out = subprocess.run(
            [
                sys.executable, "-c",
                "import repro.cli, sys; print('numpy' in sys.modules)",
            ],
            capture_output=True, text=True, check=True, timeout=120,
            env={**os.environ, "PYTHONPATH": str(src)},
        )
        assert out.stdout.strip() == "False"


class TestTimingPlansAreMemoized:
    def test_hot_workload_hits_plans(self):
        """A hot region re-executes thousands of times along few paths:
        the plan cache must serve almost every execution as a hit."""
        _report, tracer = _run_cell()
        hits = tracer.counters.get("vliw.plan_hits", 0)
        misses = tracer.counters.get("vliw.plan_misses", 0)
        executed = tracer.counters.get("vliw.regions_executed", 0)
        assert executed > 0, "workload never executed a translated region"
        assert hits >= 1
        # every planned execution is exactly one lookup
        assert hits + misses == executed
        # distinct signatures (misses) stay far below executions
        assert misses < executed / 2

    def test_kill_switch_report_is_identical(self, monkeypatch):
        """``SMARQ_NO_TIMING_PLANS=1`` must be purely a perf toggle: the
        fully interpreted scoreboard loop yields a field-identical
        report and fires no plan machinery."""
        baseline, _ = _run_cell()
        monkeypatch.setenv("SMARQ_NO_TIMING_PLANS", "1")
        interpreted, tracer = _run_cell()
        assert tracer.counters.get("vliw.plan_hits", 0) == 0
        assert tracer.counters.get("vliw.plan_misses", 0) == 0
        assert interpreted == baseline  # DbtReport dataclass equality


class TestBackendTiersPartitionExecutions:
    def test_every_region_execution_is_counted_on_one_tier(self):
        """The four backend counters must account for every region
        entry: unplanned scoreboard runs and forced-interp dispatch are
        ``interp``, generated straight-line runs are ``py``, kernel runs
        are ``vec`` (a vec fallback re-runs and counts as ``py``), and
        batched back-edge iterations are ``batch`` (one count per
        iteration — each is a full region execution)."""
        _report, tracer = _run_cell()
        c = tracer.counters
        executed = c.get("vliw.regions_executed", 0)
        tiers = (
            c.get("vliw.backend_interp", 0)
            + c.get("vliw.backend_py", 0)
            + c.get("vliw.backend_vec", 0)
            + c.get("vliw.backend_batch", 0)
        )
        assert executed > 0
        assert tiers == executed
        # a hot cell must actually reach the vectorized tiers
        assert (
            c.get("vliw.backend_vec", 0) + c.get("vliw.backend_batch", 0)
        ) > 0


class TestServeWarmState:
    """The daemon's warm-state contracts, observed via the stats endpoint."""

    BATCH = [
        JobSpec(benchmark=b, scheme_key=s, scale=0.05)
        for b in ("art", "swim")
        for s in ("smarq", "none")
    ]

    def test_repeat_batch_is_all_memo_hits(self):
        from repro.serve import ServeClient, ServeConfig, running_server

        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                first = client.submit(self.BATCH)
                assert first.failed == 0
                assert all(r.via == "run" for r in first.results)
                second = client.submit(self.BATCH)
                assert second.failed == 0
                assert all(r.via == "memo" for r in second.results)
                assert all(r.from_cache for r in second.results)
                stats = client.stats()
        assert stats["memo"]["hits"] == len(self.BATCH)
        # the memo served the repeat; the engine never saw it
        assert stats["engine"]["jobs"] == len(self.BATCH)

    def test_repeat_batch_recompiles_nothing(self, monkeypatch):
        """With the memo *and* report cache disabled, the repeat batch
        re-executes through the engine — and the warm process-wide tiers
        must absorb all of it: zero new translation-cache misses, zero
        new kernel or ``py`` codegen, every promoted plan adopting its
        kernel from the artifact cache."""
        from repro.serve import ServeClient, ServeConfig, running_server

        codegen = _count_codegen(monkeypatch)
        with running_server(
            ServeConfig(cache=False, memo_limit=0)
        ) as server:
            with ServeClient(server.address) as client:
                assert client.submit(self.BATCH).failed == 0
                cold = client.stats()["counters"]
                cold_codegen = sum(codegen.values())
                assert client.submit(self.BATCH).failed == 0
                warm = client.stats()["counters"]

        assert warm["dbt.runs"] == 2 * len(self.BATCH)
        for counter in (
            "translate.cache_misses", "vliw.vec_compiles",
            "vliw.batch_compiles",
        ):
            assert warm.get(counter, 0) == cold.get(counter, 0), counter
        assert sum(codegen.values()) == cold_codegen
        # the repeat batch really was served by those warm tiers: each
        # promoted plan adopted its already-compiled kernel
        assert warm.get("vliw.replay_cache_hits", 0) > cold.get(
            "vliw.replay_cache_hits", 0
        )
        assert (
            warm["translate.cache_hits"] > cold["translate.cache_hits"]
        )

    def test_stats_sections_summarize_the_counters(self):
        """The ``translate``/``plans``/``backends`` stats sections are
        derived from the raw ``counters``: the backend tiers partition
        every region execution, and each hit count is its counter."""
        from repro.opt.translation_cache import reset_translation_cache
        from repro.serve import ServeClient, ServeConfig, running_server

        # the smarq-cert cell consults the certify stage memo only on a
        # full-tier miss, which earlier tests may have warmed
        reset_translation_cache()
        batch = self.BATCH + [
            JobSpec(benchmark="pwalk", scheme_key="smarq-cert", scale=0.05)
        ]
        with running_server(
            ServeConfig(cache=False, memo_limit=0)
        ) as server:
            with ServeClient(server.address) as client:
                # the repeat re-executes, so every hit counter is live
                for _ in range(2):
                    assert client.submit(batch).failed == 0
                stats = client.stats()

        counters = stats["counters"]
        backends = stats["backends"]
        assert (
            backends["interp"] + backends["py"] + backends["vec"]
            + backends["batch"]
            == counters["vliw.regions_executed"]
        )
        assert 0.0 < backends["vec_share"] + backends["batch_share"] <= 1.0
        assert stats["translate"]["hits"] == counters["translate.cache_hits"]
        assert stats["plans"]["hits"] == counters["vliw.plan_hits"]
        assert stats["translate"]["hits"] > 0 and stats["plans"]["hits"] > 0
        # every stage memo is summarized, certify (smarq-cert) included
        for stage in STAGES:
            for outcome in ("hits", "misses"):
                name = f"{stage}_{outcome}"
                assert stats["translate"][name] == counters.get(
                    f"translate.{name}", 0
                ), name
        assert stats["translate"]["certify_misses"] > 0

    def test_concurrent_duplicates_coalesce_to_one_simulation(self):
        import threading

        from repro.serve import ServeClient, ServeConfig, running_server

        # Slow enough (~1s) that the second submission lands while the
        # first is still in flight.
        spec = JobSpec(benchmark="art", scheme_key="smarq", scale=0.4)
        with running_server(ServeConfig(cache=False)) as server:
            outcomes = {}

            def submit(name):
                with ServeClient(server.address) as client:
                    outcomes[name] = client.submit([spec])

            threads = [
                threading.Thread(target=submit, args=(n,))
                for n in ("a", "b")
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            with ServeClient(server.address) as client:
                stats = client.stats()

        reports = [
            outcomes[n].results[0].report.to_dict() for n in ("a", "b")
        ]
        assert reports[0] == reports[1]
        # one submission simulated; the other attached to it in flight
        # (or, worst case under scheduler delay, hit the memo)
        assert stats["counters"]["dbt.runs"] == 1
        assert stats["jobs"]["dedup_hits"] + stats["memo"]["hits"] == 1
