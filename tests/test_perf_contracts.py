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
   batch-or-vec kernel per promoted trace, and no ``py`` code (only a
   forced ``py`` tier runs it; an execution that escapes a kernel, and
   a trace no kernel can lower, run on the dispatch loop);
7. importing the CLI pulls in no numpy (process start-up stays lean);
8. a program's interpreted warm-up runs once per process: a cold sweep
   of the figure schemes records it on each program's first cell
   (``dbt.prefix_misses``) and restores it in every other
   (``dbt.prefix_hits``), and a restored cell compiles no interpreter
   handler for code that only ran during the warm-up;
9. a translation miss builds and pickles only what is read: a cold run
   of two schemes over one program constructs no ``DdgEdge`` (the DDG
   and the scheduler work on position tuples), and no full-tier blob
   pickles the allocator, its dependence set or the alias analysis;
10. a cold sweep pays per program, not per job: one build per program,
    no ``Dependence`` constructed on a ``deps`` memo hit, load
    elimination classifies only must-alias candidates, and a finished
    job is freed by reference counting;
11. replay kernels stay lean: over item 6's cold cells, the generated
    replay source is at most half of what it was before the kernels
    moved their rare paths out of line, and no larger than the word
    kernels made it (``compile()`` time tracks AST nodes, not bytes, so
    both are pinned), a kernel escape generates no ``py`` code, and
    every kernel indexes memory as words: no byte accessor, bloom filter
    or masked address, and one mask test per access group; a batch
    iteration logs no undo entry and builds no display of more than 30
    items;
12. a run makes no reference cycles, so it runs with automatic cyclic
    collection paused: from empty caches, the golden cells under every
    replay backend, and cells whose alias exception replaces a
    translation after its kernel compiled, leave ``gc.garbage`` empty
    under ``gc.DEBUG_SAVEALL`` once a translation-cache reset has
    dropped every compiled kernel; and ``DbtSystem.run`` leaves the
    collector enabled or disabled as it found it, also when the run
    raises;
13. translation caches hold digests, not region content: after the
    golden cells run from empty caches, every key of the translation
    cache's tiers (the full tier, whose digests also key the replay
    artifacts, and ``deps``, its only stage tier) is a 16-byte
    ``bytes``, and no ``translate.ddg_*`` counter is counted (there is
    no DDG memo).
"""

import ast
import gc
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings

import repro.sim.replay_backends as backends
import repro.smarq.allocator as allocator_mod
from repro import knobs
from repro.engine.cache import ReportCache
from repro.engine.core import ExecutionEngine
from repro.engine.instrumentation import Tracer
from repro.engine.jobs import JobSpec
from repro.frontend.profiler import ProfilerConfig
from repro.sim.dbt import DbtSystem
from repro.workloads import make_benchmark

from tests.test_differential_alloc import integrated_allocation
from tests.test_golden_reports import (
    GOLDEN_CELLS,
    GOLDEN_HOT_THRESHOLD,
    reset_process_caches,
    run_cell,
)
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


#: item 6's cold cells
KERNEL_CELLS = [
    (benchmark, scheme)
    for benchmark in ("ammp", "pwalk", "art")
    for scheme in ("smarq", "itanium")
]


@pytest.fixture(scope="module")
def cold_kernel_run():
    """One cold run (empty translation cache, so no kernel compiled yet)
    over :data:`KERNEL_CELLS` at scale 0.2: the tracer counters, the
    codegen calls of :func:`_count_codegen`, each generated replay
    source (``compile`` rebound in ``repro.sim.replay_backends``), and
    each compiled kernel as its ``(ir, source)`` pair."""
    import repro.sim.replay_backends as backends
    from repro.opt.translation_cache import reset_translation_cache

    sources = []
    kernels = []
    real_compile = compile

    def recording_compile(src, filename, mode, *args, **kwargs):
        sources.append(src)
        return real_compile(src, filename, mode, *args, **kwargs)

    def pairing(fn):
        def wrapper(ir, *args):
            before = len(sources)
            out = fn(ir, *args)
            if out is not None:
                kernels.append((ir, sources[before]))
            return out

        return wrapper

    with pytest.MonkeyPatch.context() as mp:
        codegen = _count_codegen(mp)
        mp.setattr(backends, "compile", recording_compile, raising=False)
        for name in ("compile_vec", "compile_batch"):
            mp.setattr(backends, name, pairing(getattr(backends, name)))
        reset_translation_cache()
        tracer = Tracer()
        try:
            for benchmark, scheme in KERNEL_CELLS:
                program = make_benchmark(benchmark, scale=0.2)
                DbtSystem(program, scheme, tracer=tracer).run()
        finally:
            reset_translation_cache()
    return {
        "counters": tracer.counters,
        "codegen": codegen,
        "sources": sources,
        "kernels": kernels,
    }


class TestOneKernelPerTrace:
    def test_cold_run_compiles_one_kernel_per_promoted_trace(
        self, cold_kernel_run
    ):
        """A cold run (empty translation cache) over several cells: each
        promoted trace — one IR lowering — compiles at most one kernel,
        batch or vec, and no ``py`` code is generated outside a forced
        ``py`` tier. A promotion ladder that generates py, vec and batch
        code for every hot trace fails both bounds, and so does adopting
        ``py`` for a trace no kernel can lower, for a demoted kernel or
        for a kernel's one-off escape."""
        c = cold_kernel_run["counters"]
        codegen = cold_kernel_run["codegen"]
        promoted = codegen["lower"]
        assert promoted > 0
        kernels = c.get("vliw.batch_compiles", 0) + c.get(
            "vliw.vec_compiles", 0
        )
        assert 0 < kernels <= promoted
        assert codegen["compile_py"] == 0
        assert c.get("vliw.replay_compiles", 0) == 0
        # the kernel ran the hot loops
        assert c.get("vliw.backend_batch", 0) + c.get(
            "vliw.backend_vec", 0
        ) > c.get("vliw.backend_py", 0)


#: replay source generated over item 6's cold cells before the kernels
#: moved their rare paths out of line: 10 compiles (8 batch, 2 ``py``)
PRIOR_SOURCE_BYTES = 260_104
PRIOR_SOURCE_NODES = 102_827
#: AST nodes of the same cells' word kernels (8 batch compiles), with
#: alias checks grouped by base, one epilogue for every way out, one
#: mask test per access group and no undo log in a batch iteration
#: (33,526 when each check rebuilt a tuple of word indexes; 31,020 with
#: three-comparison guards and an undo entry per store)
WORD_SOURCE_NODES = 29_971

#: the most items CPython 3.11 builds a display of in one step
DISPLAY_LIMIT = 30


def _guards(tree):
    """A kernel's group guards: ``if <lowest address> & _G: ...``."""
    return [
        node for node in ast.walk(tree)
        if isinstance(node, ast.If)
        and isinstance(node.test, ast.BinOp)
        and isinstance(node.test.op, ast.BitAnd)
        and isinstance(node.test.right, ast.Name)
        and node.test.right.id == "_G"
    ]


def _loop_displays(tree):
    """Tuple, list and set displays built inside a kernel's iteration
    loop that hold a non-constant item (the compiler folds the rest)."""
    return [
        node
        for loop in ast.walk(tree) if isinstance(loop, ast.While)
        for node in ast.walk(loop)
        if isinstance(node, (ast.Tuple, ast.List, ast.Set))
        and not isinstance(getattr(node, "ctx", None), ast.Store)
        and not all(isinstance(e, ast.Constant) for e in node.elts)
    ]


class TestLeanKernels:
    def test_generated_source_is_at_most_half(self, cold_kernel_run):
        """``compile()`` time tracks AST nodes, not bytes: pin both. The
        out-of-line sweeps, the one abort epilogue and the dropped
        ``py`` compiles each carry part of the cut."""
        sources = cold_kernel_run["sources"]
        assert sources
        size = sum(len(src) for src in sources)
        nodes = sum(
            sum(1 for _ in ast.walk(ast.parse(src))) for src in sources
        )
        assert size <= PRIOR_SOURCE_BYTES // 2, size
        assert nodes <= PRIOR_SOURCE_NODES // 2, nodes
        assert nodes <= WORD_SOURCE_NODES, nodes

    def test_escapes_compile_no_py(self, cold_kernel_run):
        """The run does escape its kernels, and each escape re-runs on
        the dispatch loop instead of generating ``py`` code."""
        c = cold_kernel_run["counters"]
        assert c.get("vliw.batch_trims", 0) >= 1
        assert cold_kernel_run["codegen"]["compile_py"] == 0
        assert c.get("vliw.replay_compiles", 0) == 0

    def test_kernels_index_words_behind_one_guard_per_group(
        self, cold_kernel_run
    ):
        """No byte accessor, bloom filter or masked address is left in
        a kernel: every memory subscript is a word index, and each
        group of accesses (one base register version within one
        segment) has exactly one guard."""
        import repro.sim.replay_backends as backends

        kernels = cold_kernel_run["kernels"]
        assert kernels
        for ir, src in kernels:
            for gone in ("u64(", "p64(", "_bf", "_overlaps", "mlim",
                         "= msize -"):
                assert gone not in src, gone
            tree = ast.parse(src)
            _group_of, lows = backends._access_groups(ir)
            assert len(_guards(tree)) == len(lows), src
            subscripts = [
                node for node in ast.walk(tree)
                if isinstance(node, ast.Subscript)
                and isinstance(node.value, ast.Name)
                and node.value.id == "W"
            ]
            assert subscripts, src
            for node in subscripts:
                assert not any(
                    isinstance(n, ast.BinOp) and isinstance(n.op, ast.BitAnd)
                    for n in ast.walk(node.slice)
                ), src

    def test_batch_iterations_log_nothing_and_build_small_displays(
        self, cold_kernel_run
    ):
        """Only the iteration in flight can roll back, so a batch
        kernel keeps each store's old word in a local and logs nothing
        per iteration, and no display its loop builds holds more items
        than CPython builds in one step."""
        batch = [
            src for _ir, src in cold_kernel_run["kernels"]
            if src.startswith("def _replay_batch(")
        ]
        assert batch
        chunked = 0
        for src in batch:
            for gone in ("undo_log", "undo_append", "mark = len"):
                assert gone not in src, gone
            tree = ast.parse(src)
            for node in _loop_displays(tree):
                assert len(node.elts) <= DISPLAY_LIMIT, src
            chunked += "prev1 = (" in src
        # the cells write more guest registers per iteration than one
        # display holds, so their snapshots do split
        assert chunked >= 1


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
        from repro.eval.fig16 import NO_STORE_REORDER_KEY
        from repro.eval.suite import SuiteConfig, SuiteRunner
        from repro.sim.dbt import reset_prefix_memo

        reset_prefix_memo()
        engine = ExecutionEngine(cache=NullCache())
        runner = SuiteRunner(
            SuiteConfig(benchmarks=list(self.BENCHMARKS), scale=0.05),
            engine,
        )
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

        assert edges == []
        assert payloads
        for name in (b"SmarqAllocator", b"DependenceSet", b"AliasAnalysis"):
            assert [p for p in payloads if name in p] == [], name


class TestTranslationKeysAreDigests:
    def test_golden_cells_key_every_tier_by_a_16_byte_digest(self):
        from repro.opt.translation_cache import get_translation_cache

        reset_process_caches()
        tracer = Tracer()
        try:
            for bench, scheme, scale in GOLDEN_CELLS:
                DbtSystem(
                    make_benchmark(bench, scale=scale),
                    scheme,
                    profiler_config=ProfilerConfig(
                        hot_threshold=GOLDEN_HOT_THRESHOLD
                    ),
                    tracer=tracer,
                ).run()
            cache = get_translation_cache()
            tiers = {"full": list(cache._full)}
            tiers.update(
                (name, list(tier)) for name, tier in cache._stages.items()
            )
        finally:
            reset_process_caches()

        assert set(tiers) == {"full", "deps"}
        for name, keys in tiers.items():
            assert keys, name
            assert {(type(key), len(key)) for key in keys} == {(bytes, 16)}, (
                name
            )
        assert [
            name for name in tracer.counters
            if name.startswith("translate.ddg_")
        ] == []


class TestPerProgramNotPerJob:
    BENCHMARKS = ("art", "swim")

    def test_scheme_sweep_builds_each_program_once(self, monkeypatch):
        """Item 8's cold serial sweep (2 benchmarks x 6 scheme keys)
        builds 2 programs, not one per job."""
        import repro.workloads.specfp as specfp
        from repro.engine.cache import NullCache
        from repro.eval.fig15 import SCHEMES
        from repro.eval.fig16 import NO_STORE_REORDER_KEY
        from repro.eval.suite import SuiteConfig, SuiteRunner

        builds = []
        real_build = specfp.build_from_traits

        def counting_build(traits):
            builds.append(traits.name)
            return real_build(traits)

        monkeypatch.setattr(specfp, "build_from_traits", counting_build)
        specfp.reset_program_memo()
        engine = ExecutionEngine(cache=NullCache())
        runner = SuiteRunner(
            SuiteConfig(benchmarks=list(self.BENCHMARKS), scale=0.05),
            engine,
        )
        keys = ("none",) + tuple(SCHEMES) + (NO_STORE_REORDER_KEY,)
        runner.prefetch(keys)
        assert engine.tracer.counters.get("dbt.runs", 0) == 2 * len(keys)
        assert sorted(builds) == sorted(self.BENCHMARKS)

    @staticmethod
    def _cold_two_scheme_run(monkeypatch):
        """A cold ``art`` run under smarq, then smarq16, counting
        ``Dependence`` constructions and, per run, the ``classify`` calls
        made inside ``LoadElimination.run``."""
        import repro.analysis.dependence as dependence_mod
        from repro.analysis.aliasinfo import AliasAnalysis
        from repro.opt.load_elim import LoadElimination
        from repro.opt.translation_cache import reset_translation_cache

        made = []
        real_dependence = dependence_mod.Dependence

        def counting_dependence(*args, **kwargs):
            made.append(args)
            return real_dependence(*args, **kwargs)

        monkeypatch.setattr(dependence_mod, "Dependence", counting_dependence)
        inside = []
        classified = []
        real_classify = AliasAnalysis.classify
        real_run = LoadElimination.run

        def counting_classify(self, a, b):
            if inside:
                classified[-1].append((a.uid, b.uid))
            return real_classify(self, a, b)

        def tracking_run(self, block, analysis):
            inside.append(block)
            try:
                return real_run(self, block, analysis)
            finally:
                inside.pop()

        monkeypatch.setattr(AliasAnalysis, "classify", counting_classify)
        monkeypatch.setattr(LoadElimination, "run", tracking_run)
        reset_translation_cache()
        tracer = Tracer()
        try:
            for scheme in ("smarq", "smarq16"):
                classified.append([])
                DbtSystem(
                    make_benchmark("art", scale=0.05),
                    scheme,
                    profiler_config=ProfilerConfig(hot_threshold=20),
                    tracer=tracer,
                ).run()
        finally:
            reset_translation_cache()
        return tracer.counters, made, classified

    def test_cold_run_constructs_no_dependence(self, monkeypatch):
        counters, made, _ = self._cold_two_scheme_run(monkeypatch)
        assert counters.get("translate.deps_hits", 0) >= 1
        assert counters.get("translate.deps_misses", 0) >= 1
        assert made == []

    def test_load_elimination_classifies_only_must_candidates(
        self, monkeypatch
    ):
        """Each run's translation runs its own load elimination over
        art's 13 loads. A load with no earlier access of its must key
        makes no ``classify`` call; the 10 that remain check the stores
        between a source and its load. The backward scan this replaced
        made 63."""
        _, _, classified = self._cold_two_scheme_run(monkeypatch)
        assert [len(calls) for calls in classified] == [10, 10]

    def test_finished_job_is_freed_by_reference_counting(self, monkeypatch):
        """With the collector off, a job's interpreter and guest memory
        die the moment ``execute_job`` returns: no handler closure holds
        the interpreter, so nothing waits for a gen-2 collection."""
        import gc
        import weakref

        import repro.sim.dbt as dbt_mod
        from repro.engine.jobs import execute_job

        refs = []

        class Recording(DbtSystem):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                refs.append(weakref.ref(self.interpreter))
                refs.append(weakref.ref(self.memory))

        monkeypatch.setattr(dbt_mod, "DbtSystem", Recording)
        gc.collect()
        gc.disable()
        try:
            result = execute_job(SPEC)
            alive = [ref() is not None for ref in refs]
        finally:
            gc.enable()
        assert result.report.total_cycles > 0
        assert len(refs) == 2
        assert alive == [False, False]


#: cells in which an alias exception replaces a translation whose kernel
#: had already compiled, so the run drops that translation and its plan
DROPPED_KERNEL_CELLS = [("ammp", "smarq", 0.05), ("ammp", "itanium", 0.05)]

#: every replay backend, the default (``auto``) first
BACKENDS = next(
    knob.values for knob in knobs.KNOBS if knob.name == knobs.REPLAY_BACKEND
)


class TestRunsMakeNoCycles:
    @pytest.mark.parametrize("backend", BACKENDS)
    def test_runs_leave_no_cyclic_garbage(self, backend):
        """Everything a run drops is freed by reference counting: with
        the collector saving what it finds instead of freeing it, a
        sweep of cells from empty caches leaves ``gc.garbage`` empty,
        also once resetting the translation cache has dropped the
        kernels its entries held. A kernel left in its own globals, or
        an alias exception kept with its traceback, would each leave a
        cycle here."""
        from repro.opt.translation_cache import get_translation_cache

        reset_process_caches()
        gc.collect()
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            with knobs.overridden(knobs.REPLAY_BACKEND, backend), \
                    knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"):
                for cell in GOLDEN_CELLS + DROPPED_KERNEL_CELLS:
                    run_cell(*cell)
            compiled = sum(
                art.batch_fn is not None or art.vec_fn is not None
                or art.py_fn is not None
                for _, artifacts in get_translation_cache()._full.values()
                for art in artifacts.values()
            )
            reset_process_caches()  # drops every artifact with its entry
            gc.collect()
            garbage = [type(obj).__name__ for obj in gc.garbage]
        finally:
            gc.set_debug(0)
            gc.garbage.clear()
            reset_process_caches()
        if backend != "interp":
            assert compiled > 0, "no reset dropped a compiled kernel"
        assert garbage == []

    @pytest.mark.parametrize("raises", [False, True])
    @pytest.mark.parametrize("enabled", [True, False])
    def test_run_restores_the_collector_state(
        self, monkeypatch, enabled, raises
    ):
        """The collector is paused inside the run and left as the caller
        had it: enabled or disabled, whether or not the run raises."""
        inside = []
        run = DbtSystem._run

        def observing(system, max_guest_steps):
            inside.append(gc.isenabled())
            if raises:
                raise RuntimeError("guest fault")
            return run(system, max_guest_steps)

        monkeypatch.setattr(DbtSystem, "_run", observing)
        system = DbtSystem(make_benchmark("art", scale=0.05), "smarq")
        if enabled:
            gc.enable()
        else:
            gc.disable()
        try:
            if raises:
                with pytest.raises(RuntimeError, match="guest fault"):
                    system.run()
            else:
                assert system.run().total_cycles > 0
            after = gc.isenabled()
        finally:
            gc.enable()
        assert inside == [False]
        assert after is enabled


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
        # first executions at an exit (misses) stay far below executions
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
        are ``vec`` (a kernel escape re-runs and counts as ``interp``), and
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
        kernel from its translation-cache entry."""
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

    def test_stats_counters_account_for_every_execution(self):
        """The daemon's ``stats`` carry its engine's raw ``counters``:
        the four backend tiers partition every region execution, every
        planned execution is one plan hit or miss, and a repeat batch
        hits the translation cache, which ``--stats`` over ``--serve``
        reports from these counters with its hit rate and the bytes its
        full tier stored, in the line local ``--stats`` prints for the
        same counters."""
        from repro.serve import ServeClient, ServeConfig, running_server
        from repro.serve.client import RemoteEngine

        # the first batch then translates, and stores, every region
        reset_process_caches()
        with running_server(
            ServeConfig(cache=False, memo_limit=0)
        ) as server:
            with ServeClient(server.address) as client:
                # the repeat re-executes, so every hit counter is live
                for _ in range(2):
                    assert client.submit(self.BATCH).failed == 0
                stats = client.stats()
                rendered = RemoteEngine(client).render_stats()

        counters = stats["counters"]
        executed = counters["vliw.regions_executed"]
        tiers = [
            counters.get(f"vliw.backend_{tier}", 0)
            for tier in ("interp", "py", "vec", "batch")
        ]
        assert sum(tiers) == executed
        assert 0 < tiers[2] + tiers[3] <= executed
        assert (
            counters["vliw.plan_hits"] + counters["vliw.plan_misses"]
            == executed
        )
        hits = counters["translate.cache_hits"]
        misses = counters.get("translate.cache_misses", 0)
        stored = counters["translate.cache_store_bytes"]
        assert hits > 0 and stored > 0
        line = (
            f"translation cache     : {hits} hits / {misses} misses "
            f"({hits / (hits + misses):.0%} hit), {stored / 1024:.0f} KB "
            f"stored"
        )
        assert line in rendered.splitlines()
        local = ExecutionEngine()
        local.stats.counters = counters
        assert line in local.render_stats().splitlines()

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
