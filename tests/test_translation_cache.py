"""Translation-cache contracts.

The content-keyed region translation cache and its stage memos are pure
performance machinery: every observable output must be byte-identical
with the cache warm, cold, or disabled. These tests lock that down, plus
the cache's own behavioral contracts — fingerprint sensitivity (a hit
must never be served across differing config, hints, or instruction
content), digest keys (equal keys digest equal whatever objects they
share, and every input that can change a report changes its key), the
incremental re-optimization guarantee (an alias-exception
re-translation reuses the base dependences but never stale scheduling
constraints), and the ``SMARQ_NO_TRANSLATION_CACHE=1`` kill switch.
"""

import contextlib
import dataclasses
import itertools
import json
import pickle

import pytest

import repro.opt.pipeline as pipeline_mod
from repro import knobs
from repro.engine.instrumentation import Tracer
from repro.frontend.profiler import ProfilerConfig
from repro.ir.instruction import load, movi, store
from repro.ir.superblock import Superblock
from repro.opt import translation_cache
from repro.opt.pipeline import OptimizationPipeline, OptimizerConfig
from repro.opt.translation_cache import (
    TranslationCache,
    get_translation_cache,
    key_digest,
    region_content_key,
    reset_translation_cache,
)
from repro.sched.machine import MachineModel
from repro.sim.dbt import DbtSystem
from repro.sim.memory import Memory
from repro.sim.schemes import NullAdapter, make_scheme
from repro.sim.vliw import _REPLAY_THRESHOLD, VliwSimulator
from repro.workloads import make_benchmark

from tests.test_golden_reports import (
    GOLDEN_HOT_THRESHOLD,
    GOLDEN_SCALE,
    golden_path,
    reset_process_caches,
    run_cell,
)

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
        reuses the scheme-independent base dependences."""
        _run_cell("smarq")
        _report, tracer = _run_cell("smarq16")
        assert tracer.counters.get("translate.cache_hits", 0) == 0
        assert tracer.counters.get("translate.deps_hits", 0) >= 1


class TestStageTiers:
    def test_stage_tiers_hold_only_shared_tuples(self):
        """After a cold two-scheme run the cache holds exactly the
        ``deps`` stage tier, filled, and every stage value is a shared
        tuple, never a pickle blob cloned per hit."""
        _run_cell("smarq")
        _run_cell("smarq16")
        stages = get_translation_cache()._stages
        assert tuple(stages) == translation_cache.STAGES == ("deps",)
        for tier in stages.values():
            assert tier
            for value in tier.values():
                assert type(value) is tuple


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
    def test_reopt_reuses_deps_not_stale_constraints(self):
        """After an alias exception the re-translation must hit the
        ``deps`` memo (classification ignores hints) while recomputing
        constraints, the DDG and scheduling — the newly pinned pair may
        no longer be reordered."""
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

        # The base dependences were reused, not recomputed...
        assert tracer.counters.get("translate.deps_hits", 0) >= 1
        # ...but constraints/scheduling were recomputed with the new
        # must-alias hint: the pinned pair stays in program order.
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


class TestLruBound:
    def test_full_tier_respects_max_entries(self, monkeypatch):
        """The full tier keeps ``_DEFAULT_ENTRIES`` translations, and an
        evicted entry takes its replay artifacts with it: while the
        entry lives, a hit adopts the kernel its miss compiled; once it
        is evicted, a new region of its key compiles the kernel again."""
        monkeypatch.setattr(translation_cache, "_DEFAULT_ENTRIES", 2)
        monkeypatch.delenv(knobs.REPLAY_BACKEND, raising=False)
        reset_translation_cache()
        pipeline = OptimizationPipeline(MachineModel())
        tracer = Tracer()
        sim = VliwSimulator(MachineModel(), Memory(4096), tracer=tracer)
        c = tracer.counters

        def translate(pc):
            block = _spec_block()
            block.entry_pc = pc
            return pipeline.optimize(block)

        def kernels_after_promoting(pc):
            region = translate(pc)
            for _ in range(_REPLAY_THRESHOLD):
                sim.execute_region(region, NullAdapter(), [0] * 64)
            assert region._vliw_trace[6].tier == "batch"
            return c.get("vliw.batch_compiles", 0)

        with knobs.overridden(knobs.NO_TRANSLATION_CACHE, "0"):
            assert kernels_after_promoting(7) == 1
            assert kernels_after_promoting(7) == 1
            assert c["vliw.replay_cache_hits"] == 1
            for pc in (8, 9, 10):
                translate(pc)
            cache = get_translation_cache()
            assert len(cache._full) == 2
            assert kernels_after_promoting(7) == 2
        assert c["vliw.replay_cache_hits"] == 1


# ----------------------------------------------------------------------
# Digest keys

#: golden cells whose one translation the key-coverage tests flip; the
#: smarq-cert cell's full key carries the certify component
KEY_CELLS = (
    ("art", "smarq", GOLDEN_SCALE),
    ("pwalk", "smarq-cert", GOLDEN_SCALE),
)

#: the values each string field of OptimizerConfig may take
CONFIG_CHOICES = {
    "speculation_policy": ("full", "loads_only"),
    "load_elim_sources": ("any", "loads"),
    "allocator": ("smarq", "bitmask", "plainorder"),
}

#: the data layout of :func:`_layout_block`
LAYOUT = dict(
    region_map={"a": (4096, 1024), "b": (6144, 1024), "c": (8192, 1024)},
    register_regions={5: "a", 6: "b"},
)


def _layout_block():
    """A region whose addresses all resolve through :data:`LAYOUT`: r5
    and r6 point into regions ``a`` and ``b``, r7 is set to an address
    in ``c``, so no two of its accesses may alias."""
    block = Superblock(entry_pc=11, name="layout")
    block.append(movi(7, 8200))
    block.append(store(5, 9))
    block.append(load(2, 6))
    block.append(load(3, 7))
    block.append(store(6, 3, disp=8))
    return block


def _unshared(tree):
    """An equal copy of a key tree in which no string of two or more
    characters and no non-empty tuple is an object of ``tree`` or
    appears twice."""
    if isinstance(tree, tuple):
        return tuple([_unshared(item) for item in tree])
    if isinstance(tree, str):
        return "".join(list(tree))
    return tree


def _flipped(name, value):
    """Another valid value of OptimizerConfig field ``name``."""
    if name in CONFIG_CHOICES:
        return next(v for v in CONFIG_CHOICES[name] if v != value)
    if isinstance(value, bool):
        return not value
    if isinstance(value, (int, float)):
        return value * 2 if value else 1
    raise AssertionError(f"no flip for OptimizerConfig.{name} = {value!r}")


def _profile_flips(block):
    """Each optimizer config field, each alias hint and each speculation
    ban a translation of ``block`` could see, flipped one at a time."""
    mem = [inst.mem_index for inst in block.memory_ops()]
    return (
        [("config", f.name) for f in dataclasses.fields(OptimizerConfig)]
        + [("hint", pair) for pair in itertools.combinations(mem, 2)]
        + [("ban", index) for index in mem]
    )


def _flipped_machine(machine, name):
    """``machine`` with field ``name`` flipped: a number doubled, the
    name suffixed, every slot count doubled or every latency one cycle
    longer."""
    value = getattr(machine, name)
    if isinstance(value, str):
        value += "-flipped"
    elif isinstance(value, int):
        value = value * 2 if value else 1
    elif name == "slots":
        value = {unit: 2 * count for unit, count in value.items()}
    elif name == "latencies":
        value = {op: lat + 1 for op, (_, lat) in machine.op_table.items()}
    else:
        raise AssertionError(f"no flip for MachineModel.{name} = {value!r}")
    return dataclasses.replace(machine, **{name: value})


#: each MachineModel field, flipped by :func:`_flipped_machine`
MACHINE_FLIPS = [
    ("machine", f.name) for f in dataclasses.fields(MachineModel)
]


def _apply(flip, pipeline, pc):
    """Apply a config, hint or ban flip to ``pipeline`` for the region
    at ``pc``; a knob flip applies through :func:`_under`, and a machine
    flip where the pipeline is built."""
    kind, arg = flip
    if kind == "config":
        value = _flipped(arg, getattr(pipeline.config, arg))
        pipeline.config = dataclasses.replace(pipeline.config, **{arg: value})
    elif kind == "hint":
        pipeline.seed_hints(pc, {arg: 1.0})
    elif kind == "ban":
        pipeline._no_speculate.setdefault(pc, set()).add(arg)


def _under(flip):
    """The environment a flip needs: a knob flip holds its knob at "1"."""
    if flip is not None and flip[0] == "knob":
        return knobs.overridden(flip[1], "1")
    return contextlib.nullcontext()


def _translation_of(cell, monkeypatch):
    """The pipeline and the original block of the cell's first (in the
    golden cells, only) translation."""
    seen = []
    optimize = OptimizationPipeline.optimize

    def recording(pipeline, original):
        seen.append((pipeline, original.copy()))
        return optimize(pipeline, original)

    with monkeypatch.context() as patch:
        patch.setattr(OptimizationPipeline, "optimize", recording)
        run_cell(*cell)
    pipeline, block = seen[0]
    pc = block.entry_pc
    assert not pipeline.hints_for(pc) and pc not in pipeline._no_speculate
    return pipeline, block


def _translate(pipeline, block, flip=None, **layout):
    """Translate ``block`` on a twin of ``pipeline`` with ``flip`` applied
    (``layout`` replaces its region map or register regions), from an
    empty translation cache."""
    reset_translation_cache()
    machine = pipeline.machine
    if flip is not None and flip[0] == "machine":
        machine = _flipped_machine(machine, flip[1])
    twin = OptimizationPipeline(
        machine,
        dataclasses.replace(pipeline.config),
        layout.get("region_map", pipeline.region_map),
        layout.get("register_regions", pipeline.register_regions),
    )
    if flip is not None:
        _apply(flip, twin, block.entry_pc)
    with _under(flip):
        return twin.optimize(block.copy())


def _full_digest(pipeline, block, flip=None):
    """The full-tier digest that :func:`_translate` keys ``block``'s
    translation by: what the twin's ``_full_key`` returned."""
    digests = []
    full_key = OptimizationPipeline._full_key

    def recording(twin, *parts):
        digests.append(full_key(twin, *parts))
        return digests[-1]

    with pytest.MonkeyPatch.context() as patch, knobs.overridden(
        knobs.NO_TRANSLATION_CACHE, "0"
    ):
        patch.setattr(OptimizationPipeline, "_full_key", recording)
        _translate(pipeline, block, flip)
    (digest,) = digests
    return digest


def _report_under(cell, flip, pc):
    """The cell's canonical report with ``flip`` applied to its pipeline,
    translated afresh from empty process-wide caches."""
    bench, scheme, scale = cell
    if flip[0] == "machine":
        scheme = make_scheme(scheme)
        scheme = dataclasses.replace(
            scheme, machine=_flipped_machine(scheme.machine, flip[1])
        )
    reset_process_caches()
    try:
        system = DbtSystem(
            make_benchmark(bench, scale=scale),
            scheme,
            profiler_config=ProfilerConfig(hot_threshold=GOLDEN_HOT_THRESHOLD),
        )
        _apply(flip, system.pipeline, pc)
        with _under(flip), knobs.overridden(knobs.NO_TRANSLATION_CACHE, "1"):
            report = system.run()
    finally:
        reset_process_caches()
    return json.dumps(report.to_dict(), sort_keys=True, indent=2) + "\n"


class TestDigestKeys:
    def test_equal_keys_from_unshared_objects_digest_equal(self):
        """Equal keys digest equal whichever of their strings and tuples
        are shared objects; the default pickler would write a shared
        one's second occurrence as a back reference."""
        pipeline = OptimizationPipeline(MachineModel())
        content = region_content_key(_spec_block())
        hints = tuple(sorted({(1, 2): 1.0, (0, 3): 0.5}.items()))
        shared = (content, hints, (1, 3))
        unshared = _unshared(shared)
        assert unshared == shared
        # premise: the opcode names of the content are shared objects
        assert pickle.dumps(unshared) != pickle.dumps(shared)

        full = pipeline._full_key(*shared)
        assert type(full) is bytes and len(full) == 16
        assert pipeline._full_key(*unshared) == full
        assert pipeline._deps_key(unshared[0]) == pipeline._deps_key(content)

    @pytest.mark.parametrize("cell", KEY_CELLS, ids=lambda cell: cell[1])
    def test_full_key_covers_every_input_that_changes_a_report(
        self, cell, monkeypatch
    ):
        """Flipping any optimizer config field, alias hint, speculation
        ban or machine model field of a golden cell's translation (and
        ``SMARQ_NO_CERTIFY`` under smarq-cert) changes its full-tier
        digest, unless the cell's report under the flip is its golden
        report byte for byte. The digest also keys the translation's
        replay kernels."""
        pipeline, block = _translation_of(cell, monkeypatch)
        flips = _profile_flips(block) + MACHINE_FLIPS
        if pipeline.config.certify:
            flips.append(("knob", knobs.NO_CERTIFY))
        golden = golden_path(*cell).read_text(encoding="utf-8")
        base = _full_digest(pipeline, block)
        assert type(base) is bytes and len(base) == 16
        for flip in flips:
            if _full_digest(pipeline, block, flip) == base:
                assert _report_under(cell, flip, block.entry_pc) == golden, (
                    flip
                )

    @pytest.mark.parametrize(
        "cell", KEY_CELLS + (None,),
        ids=lambda cell: cell[1] if cell else "layout",
    )
    def test_deps_key_covers_every_input_of_the_dependences(
        self, cell, monkeypatch
    ):
        """Flipping any input of the ``deps`` key — an entry of the
        region map or of the register regions, or a memory op's address
        — changes its digest, unless the dependences it keys are equal.
        The key leaves out the config, hints and bans, which
        classification does not read; their flips must leave the
        dependences of an unchanged block equal. The golden translations
        address memory through computed pointers, so the ``layout``
        region, whose every address resolves through the data layout,
        is the one whose dependences the layout flips change."""
        if cell is None:
            pipeline = OptimizationPipeline(MachineModel(), **LAYOUT)
            block = _layout_block()
        else:
            pipeline, block = _translation_of(cell, monkeypatch)

        def deps_entry(flip=None, source=block, **layout):
            _translate(pipeline, source, flip, **layout)
            (entry,) = get_translation_cache()._stages["deps"].items()
            return entry

        def drop(mapping, name):
            return {k: v for k, v in mapping.items() if k != name}

        base = deps_entry()
        entries = [deps_entry(flip) for flip in _profile_flips(block)]
        entries += [
            deps_entry(region_map=drop(pipeline.region_map, name))
            for name in pipeline.region_map
        ]
        entries += [
            deps_entry(register_regions=drop(pipeline.register_regions, reg))
            for reg in pipeline.register_regions
        ]
        for position, inst in enumerate(block):
            if inst.is_mem:
                moved = block.copy()
                moved.instructions[position].disp += 8
                entries.append(deps_entry(source=moved))
        for key, deps in entries:
            assert type(key) is bytes and len(key) == 16
            if key == base[0]:
                assert deps == base[1]

    def test_no_key_component_is_an_unordered_collection(self, monkeypatch):
        """Every key the pipeline digests is a tree of tuples over
        scalars: no set, frozenset or dict (whose iteration order could
        split equal keys) and no list."""
        keys = []

        def recording(key):
            keys.append(key)
            return key_digest(key)

        monkeypatch.setattr(pipeline_mod, "key_digest", recording)
        for cell in KEY_CELLS + (("equake", "itanium", GOLDEN_SCALE),):
            run_cell(*cell)
        full = [key for key in keys if key[0] == "full"]
        assert {key[0] for key in keys} == {"full", "deps"}
        # premise: some key carries hints, bans and the certify component
        assert any(key[5] and key[6] for key in full)
        assert any(len(key) == 8 for key in full)
        for key in keys:
            stack = [key]
            while stack:
                node = stack.pop()
                if type(node) is tuple:
                    stack.extend(node)
                else:
                    assert isinstance(node, (str, int, float, type(None))), (
                        type(node), key[0],
                    )
