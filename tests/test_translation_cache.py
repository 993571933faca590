"""Translation-cache contracts.

The content-keyed region translation cache and its stage memos are pure
performance machinery: every observable output must be byte-identical
with the cache warm, cold, or disabled. These tests lock that down, plus
the cache's own behavioral contracts — fingerprint sensitivity (a hit
must never be served across differing config, hints, or instruction
content), the incremental re-optimization guarantee (an alias-exception
re-translation reuses the DDG but never stale scheduling constraints),
the ``SMARQ_NO_TRANSLATION_CACHE=1`` kill switch, and the persistent
tier's corrupt-entry and older-format fallbacks.
"""

import pytest

from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import load, store
from repro.ir.superblock import Superblock
from repro.opt import translation_cache
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.opt.translation_cache import (
    TranslationCache,
    get_translation_cache,
    region_content_key,
    reset_translation_cache,
)
from repro.sched.machine import MachineModel
from repro.sim.dbt import DbtSystem
from repro.workloads import make_benchmark

ALL_SCHEMES = ("smarq", "smarq16", "itanium", "efficeon", "plainorder", "none")


@pytest.fixture(autouse=True)
def fresh_cache():
    """Every test starts and ends with an empty process-wide cache."""
    reset_translation_cache()
    yield
    reset_translation_cache()


def _run_cell(scheme, benchmark="art", scale=0.05):
    tracer = Tracer()
    program = make_benchmark(benchmark, scale=scale)
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=20),
        tracer=tracer,
    )
    return system.run(), tracer


def _spec_block():
    """A region whose trailing load is profitably hoisted above a
    may-alias store: ``store [r5]`` waits three cycles for its source
    load, while ``load r2, [r6]`` is ready immediately."""
    block = Superblock(entry_pc=7, name="p")
    block.append(load(9, 8))
    block.append(store(5, 9))
    block.append(load(2, 6))
    block.append(load(3, 6, disp=16))
    return block


def _fingerprint(region):
    """Observable identity of a translation (schedule + annotations)."""
    return (
        region.schedule.length_cycles,
        tuple(
            (
                i.opcode.name,
                i.mem_index,
                i.p_bit,
                i.c_bit,
                i.ar_offset,
                i.ar_mask,
                i.rotate_by,
            )
            for i in region.schedule.linear
        ),
    )


class TestByteIdentity:
    @pytest.mark.parametrize("scheme", ALL_SCHEMES)
    def test_cached_run_report_identical(self, scheme, monkeypatch):
        """Cold cache, warm cache, and disabled cache must produce the
        same DbtReport, field for field."""
        cold, cold_tracer = _run_cell(scheme)
        warm, warm_tracer = _run_cell(scheme)
        assert warm_tracer.counters.get("translate.cache_hits", 0) >= 1
        assert warm == cold  # DbtReport dataclass equality

        monkeypatch.setenv("SMARQ_NO_TRANSLATION_CACHE", "1")
        off, _ = _run_cell(scheme)
        assert off == cold

    def test_cross_scheme_stage_memo_hits(self):
        """A second scheme over the same guest misses the full tier but
        reuses every scheme-independent stage product."""
        _run_cell("smarq")
        _report, tracer = _run_cell("smarq16")
        assert tracer.counters.get("translate.cache_hits", 0) == 0
        for stage in ("elim", "deps", "ddg", "prep"):
            assert tracer.counters.get(f"translate.{stage}_hits", 0) >= 1


class TestFingerprintSensitivity:
    def test_same_content_same_config_hits_across_pipelines(self):
        tracer = Tracer()
        OptimizationPipeline(MachineModel(), tracer=tracer).optimize(
            _spec_block()
        )
        OptimizationPipeline(MachineModel(), tracer=tracer).optimize(
            _spec_block()
        )
        assert tracer.counters.get("translate.cache_hits", 0) == 1
        assert tracer.counters.get("translate.cache_misses", 0) == 1

    def test_config_change_misses(self):
        tracer = Tracer()
        OptimizationPipeline(MachineModel(), tracer=tracer).optimize(
            _spec_block()
        )
        OptimizationPipeline(
            MachineModel(),
            OptimizerConfig(alias_rate_threshold=0.5),
            tracer=tracer,
        ).optimize(_spec_block())
        assert tracer.counters.get("translate.cache_hits", 0) == 0
        assert tracer.counters.get("translate.cache_misses", 0) == 2

    def test_content_change_misses(self):
        tracer = Tracer()
        pipeline = OptimizationPipeline(MachineModel(), tracer=tracer)
        pipeline.optimize(_spec_block())
        other = _spec_block()
        other.instructions[-1].disp = 24
        pipeline.optimize(other)
        assert tracer.counters.get("translate.cache_hits", 0) == 0
        assert tracer.counters.get("translate.cache_misses", 0) == 2

    def test_hint_change_misses(self):
        tracer = Tracer()
        pipeline = OptimizationPipeline(MachineModel(), tracer=tracer)
        pipeline.optimize(_spec_block())
        pipeline.record_alias(7, 1, 2)
        pipeline.optimize(_spec_block())
        assert tracer.counters.get("translate.cache_hits", 0) == 0
        assert tracer.counters.get("translate.cache_misses", 0) == 2

    def test_content_key_ignores_uids(self):
        a, b = _spec_block(), _spec_block()
        assert [i.uid for i in a] != [i.uid for i in b]
        assert region_content_key(a) == region_content_key(b)


class TestIncrementalReoptimization:
    def test_reopt_reuses_ddg_not_stale_constraints(self):
        """After an alias exception the re-translation must hit the
        ``deps``/``ddg`` memos (classification ignores hints) while
        recomputing constraints and scheduling — the newly pinned pair
        may no longer be reordered."""
        tracer = Tracer()
        pipeline = OptimizationPipeline(MachineModel(), tracer=tracer)
        block = _spec_block()

        first = pipeline.optimize(block)
        st = next(i for i in first.block.memory_ops() if i.is_store)
        ld = next(
            i for i in first.block.memory_ops() if i.mem_index == 2
        )
        cycles = first.schedule.cycle_of
        assert cycles[ld.uid] < cycles[st.uid], (
            "test premise: the load speculates above the store"
        )

        second = pipeline.reoptimize(block, st.mem_index, ld.mem_index)

        # The DDG (and base dependences) were reused, not rebuilt...
        assert tracer.counters.get("translate.ddg_hits", 0) >= 1
        assert tracer.counters.get("translate.deps_hits", 0) >= 1
        # ...but constraints/scheduling were recomputed with the new
        # must-alias hint: the pinned pair stays in program order.
        assert tracer.counters.get("translate.prep_hits", 0) == 0
        st2 = next(i for i in second.block.memory_ops() if i.is_store)
        ld2 = next(
            i for i in second.block.memory_ops() if i.mem_index == 2
        )
        cycles2 = second.schedule.cycle_of
        assert cycles2[st2.uid] < cycles2[ld2.uid]


class TestKillSwitch:
    def test_kill_switch_disables_every_tier(self, monkeypatch):
        baseline, _ = _run_cell("smarq")
        reset_translation_cache()
        monkeypatch.setenv("SMARQ_NO_TRANSLATION_CACHE", "1")
        off, tracer = _run_cell("smarq")
        assert off == baseline
        translate_counters = {
            k: v
            for k, v in tracer.counters.items()
            if k.startswith("translate.")
        }
        assert translate_counters == {}
        assert not TranslationCache.enabled()


class TestPersistentTier:
    @pytest.fixture(autouse=True)
    def persist_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        monkeypatch.setenv("SMARQ_TRANSLATION_CACHE_PERSIST", "1")
        self.root = tmp_path

    def test_round_trip_across_processes(self):
        """A fresh in-process cache (simulating a new process) serves
        the translation from disk, identically."""
        tracer = Tracer()
        pipeline = OptimizationPipeline(MachineModel(), tracer=tracer)
        first = pipeline.optimize(_spec_block())
        assert tracer.counters.get("translate.persist_stores", 0) >= 1
        stored = list((self.root / "translations").glob("*.pkl"))
        assert stored

        reset_translation_cache()
        tracer2 = Tracer()
        second = OptimizationPipeline(
            MachineModel(), tracer=tracer2
        ).optimize(_spec_block())
        assert tracer2.counters.get("translate.persist_hits", 0) == 1
        assert tracer2.counters.get("translate.cache_hits", 0) == 1
        assert _fingerprint(second) == _fingerprint(first)

    def test_corrupt_entry_degrades_to_miss(self):
        pipeline = OptimizationPipeline(MachineModel())
        first = pipeline.optimize(_spec_block())
        entries = list((self.root / "translations").glob("*.pkl"))
        assert entries
        for path in entries:
            path.write_bytes(b"not a pickle")

        reset_translation_cache()
        tracer = Tracer()
        second = OptimizationPipeline(
            MachineModel(), tracer=tracer
        ).optimize(_spec_block())
        assert tracer.counters.get("translate.persist_hits", 0) == 0
        assert tracer.counters.get("translate.persist_misses", 0) >= 1
        assert _fingerprint(second) == _fingerprint(first)
        # the corrupt entry was dropped, then re-stored by the fresh
        # translation
        for path in entries:
            assert (
                not path.exists() or path.read_bytes() != b"not a pickle"
            )

    def test_older_format_blob_misses(self, monkeypatch):
        """Blobs persisted under another translation format are never
        loaded (a blob of an older class shape would fail at install or
        report time): the run misses the persistent tier and reports
        exactly what a cold run does."""
        import repro.opt.pipeline as pipeline_mod

        monkeypatch.delenv("SMARQ_TRANSLATION_CACHE_PERSIST")
        cold, _ = _run_cell("smarq")

        current = pipeline_mod.TRANSLATION_FORMAT
        monkeypatch.setenv("SMARQ_TRANSLATION_CACHE_PERSIST", "1")
        monkeypatch.setattr(pipeline_mod, "TRANSLATION_FORMAT", current - 1)
        reset_translation_cache()
        _report, older = _run_cell("smarq")
        assert older.counters.get("translate.persist_stores", 0) >= 1

        monkeypatch.setattr(pipeline_mod, "TRANSLATION_FORMAT", current)
        reset_translation_cache()
        report, tracer = _run_cell("smarq")
        assert tracer.counters.get("translate.persist_hits", 0) == 0
        assert tracer.counters.get("translate.persist_misses", 0) >= 1
        assert report == cold

    def test_unwritable_root_is_nonfatal(self, monkeypatch):
        # A plain file where the cache directory should be: every mkdir
        # under it fails with OSError.
        blocker = self.root / "blocker"
        blocker.write_text("in the way")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(blocker))
        # optimizing must neither raise nor store
        tracer = Tracer()
        OptimizationPipeline(MachineModel(), tracer=tracer).optimize(
            _spec_block()
        )
        assert tracer.counters.get("translate.persist_stores", 0) == 0


class TestLruBound:
    def test_full_tier_respects_max_entries(self, monkeypatch):
        monkeypatch.setattr(translation_cache, "_DEFAULT_ENTRIES", 2)
        reset_translation_cache()
        pipeline = OptimizationPipeline(MachineModel())
        for pc in (7, 8, 9, 10):
            block = _spec_block()
            block.entry_pc = pc
            pipeline.optimize(block)
        cache = get_translation_cache()
        assert len(cache._full) == 2
