"""The positional optimizer front half against the forms it replaced.

* :meth:`AliasAnalysis.must_key` is exact: two memory operations share a
  key iff :meth:`AliasAnalysis.classify` says MUST;
* load elimination, which finds its forwarding source through the must
  key, equals :class:`ReferenceLoadElimination` — the backward classify
  scan it replaced, kept here as an oracle — under both ``sources``
  policies and ``require_safe``: the rewritten block, the extended
  dependences in order, the pinned ops and the pairs;
* the allocators' per-destination source table built from the ``deps``
  memo's position triples plus the elimination passes' extended pairs
  equals what a :class:`DependenceSet` of :class:`Dependence` objects
  gives, order and duplicates included.

Each check runs on every block the pipeline builds over the golden cells
(with ``SMARQ_NO_TRANSLATION_CACHE=1`` every block is built fresh), on a
few hand-written blocks and on hypothesis programs.
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.aliasinfo import AliasAnalysis, AliasClass
from repro.analysis.dependence import (
    DependenceSet,
    DependenceSources,
    compute_dependences,
    dependence_views,
    extended_deps_for_load_elimination,
    extended_views,
)
from repro.ir.instruction import Instruction, Opcode, load, mov, movi, store
from repro.ir.superblock import Superblock
from repro.opt.load_elim import LoadElimination, LoadEliminationResult
from repro.opt.store_elim import StoreElimination
from repro.opt.translation_cache import region_content_key

from tests.test_property_smarq import alu_op, program_body

#: every (sources, require_safe) policy the optimizer configures
POLICIES = [
    (sources, require_safe)
    for sources in ("any", "loads")
    for require_safe in (False, True)
]


class ReferenceLoadElimination(LoadElimination):
    """Load elimination as it was before the must key: each load scans
    the surviving memory ops backward, classifying every pair, until the
    nearest MUST source."""

    def run(self, block, analysis):
        result = LoadEliminationResult()
        new_instructions = []
        mem_ops = []
        for inst in block.instructions:
            replaced = None
            if (
                inst.is_load
                and self._under_cap(result)
                and not analysis.speculation_banned(inst)
            ):
                candidate = self._scan(
                    inst, mem_ops, analysis, new_instructions
                )
                if candidate is not None:
                    source, between = candidate
                    ext = extended_deps_for_load_elimination(
                        source, inst, between, analysis
                    )
                    usable = not (self.require_safe and ext)
                    if (
                        usable
                        and self.sources == "loads"
                        and not source.is_load
                    ):
                        usable = False
                    if usable:
                        # a load reads a stored word back unsigned
                        replaced = (
                            mov(inst.dest, source.dest)
                            if source.is_load
                            else mov(inst.dest, source.srcs[0], (1 << 64) - 1)
                        )
                        replaced.speculative = True
                        replaced.guest_pc = inst.guest_pc
                        result.extended.extend(ext)
                        result.pinned.append(source)
                        result.pairs.append((source, inst))
                        result.eliminated += 1
            if replaced is not None:
                new_instructions.append(replaced)
            else:
                new_instructions.append(inst)
                if inst.is_mem:
                    mem_ops.append(inst)
        block.instructions = new_instructions
        return result

    def _scan(self, load, mem_ops, analysis, emitted):
        between = []
        for source in reversed(mem_ops):
            klass = analysis.classify(source, load)
            if klass is AliasClass.MUST and source.size == load.size:
                if source.is_store and source.size != 8:
                    return None
                if analysis.speculation_banned(source):
                    return None
                if self._value_register_live(source, emitted):
                    if self._speculation_profitable(
                        source, between, analysis
                    ):
                        return (source, list(reversed(between)))
                return None
            if source.is_store and klass is AliasClass.MUST:
                return None
            between.append(source)
        return None


def analysis_like(block, analysis):
    """An analysis of ``block`` with ``analysis``'s layout and profile."""
    return AliasAnalysis(
        block,
        analysis._region_map,
        analysis._alias_hints,
        initial_regions=analysis._initial_regions,
        no_speculate=analysis._no_speculate,
    )


def assert_must_key_exact(block, analysis):
    ops = [inst for inst in block if inst.is_mem]
    for i, a in enumerate(ops):
        for b in ops[i + 1:]:
            same_key = analysis.must_key(a) == analysis.must_key(b)
            must = analysis.classify(a, b) is AliasClass.MUST
            assert same_key == must, (a, b)


def outcome(block, before, result):
    """An elimination's effect, identity-free: the rewritten block's
    content, and every instruction the result names as its position in
    the block before elimination."""
    where = {inst.uid: pos for pos, inst in enumerate(before)}
    return (
        result.eliminated,
        region_content_key(block),
        [(where[s.uid], where[d.uid]) for s, d in result.extended],
        [where[inst.uid] for inst in result.pinned],
        [(where[s.uid], where[z.uid]) for s, z in result.pairs],
    )


def assert_load_elim_matches_reference(block, analysis, max_eliminations):
    """Both implementations on copies of ``block``, under every policy."""
    for sources, require_safe in POLICIES:
        outcomes = []
        for cls in (ReferenceLoadElimination, LoadElimination):
            copy = block.copy()
            before = list(copy)
            result = cls(
                max_eliminations=max_eliminations,
                require_safe=require_safe,
                sources=sources,
            ).run(copy, analysis_like(copy, analysis))
            outcomes.append(outcome(copy, before, result))
        assert outcomes[0] == outcomes[1], (sources, require_safe)


def incoming_sources(table, block):
    return {
        inst.uid: [src.uid for src in table.sources_of(inst)]
        for inst in block
    }


def assert_sources_match_dependence_set(block, triples, *extended):
    """The table from triples equals the per-destination incoming lists
    of a DependenceSet of Dependence objects (base, then each extended
    list in turn)."""
    deps = DependenceSet(dependence_views(block, triples))
    for pairs in extended:
        for dep in extended_views(pairs):
            deps.add(dep)
    table = DependenceSources.from_positions(block, triples, *extended)
    expected = {
        inst.uid: [dep.src.uid for dep in deps.incoming(inst)]
        for inst in block
    }
    assert incoming_sources(table, block) == expected
    assert incoming_sources(DependenceSources.of(deps), block) == expected
    assert table.extended_ends == {
        inst.uid for dep in deps if dep.extended
        for inst in (dep.src, dep.dst)
    }


class TestPipelineBlocks:
    def test_every_block_the_pipeline_builds_on_the_golden_cells(
        self, monkeypatch
    ):
        import repro.opt.pipeline as pipeline_mod
        from repro.frontend.profiler import ProfilerConfig
        from repro.opt.translation_cache import reset_translation_cache
        from repro.sim.dbt import DbtSystem
        from repro.workloads import make_benchmark
        from tests.test_golden_reports import (
            GOLDEN_BENCHMARKS,
            GOLDEN_CELLS,
            GOLDEN_HOT_THRESHOLD,
        )

        analyses, eliminations, tables = [], [], []

        class CheckedAnalysis(AliasAnalysis):
            def __init__(self, block, *args, **kwargs):
                super().__init__(block, *args, **kwargs)
                assert_must_key_exact(block, self)
                analyses.append(len(block))

        class CheckedLoadElimination(LoadElimination):
            def run(self, block, analysis):
                assert_load_elim_matches_reference(
                    block, analysis, self.max_eliminations
                )
                result = super().run(block, analysis)
                eliminations.append(result.eliminated)
                return result

        class CheckedSources(DependenceSources):
            @classmethod
            def from_positions(cls, block, triples, *extended):
                assert_sources_match_dependence_set(
                    block, triples, *extended
                )
                tables.append(sum(map(len, extended)))
                return DependenceSources.from_positions(
                    block, triples, *extended
                )

        monkeypatch.setattr(pipeline_mod, "AliasAnalysis", CheckedAnalysis)
        monkeypatch.setattr(
            pipeline_mod, "LoadElimination", CheckedLoadElimination
        )
        monkeypatch.setattr(pipeline_mod, "DependenceSources", CheckedSources)
        reset_translation_cache()
        try:
            for bench, scheme, scale in GOLDEN_CELLS:
                DbtSystem(
                    make_benchmark(bench, scale=scale),
                    scheme,
                    profiler_config=ProfilerConfig(
                        hot_threshold=GOLDEN_HOT_THRESHOLD
                    ),
                ).run()
        finally:
            reset_translation_cache()
        assert len(eliminations) >= len(GOLDEN_BENCHMARKS)
        assert sum(eliminations) > 0
        assert len(analyses) > len(eliminations)
        assert tables and max(tables) > 0  # extended pairs were merged


# Few pointer registers and displacements, two sizes, redefined pointer
# registers (new versions) and region addresses (resolved accesses): same-
# key chains, same-start different-size pairs and both key forms are
# frequent.
def _mem(is_load, reg, base, disp, size):
    if is_load:
        return load(reg, base, disp=disp, size=size)
    return store(base, reg, disp=disp, size=size)


dense_mem_op = st.builds(
    _mem,
    st.booleans(),
    st.integers(20, 35),
    st.integers(1, 3),
    st.sampled_from([0, 4, 8]),
    st.sampled_from([4, 8]),
)
base_op = st.one_of(
    st.builds(
        movi,
        dest=st.integers(1, 3),
        imm=st.sampled_from([0x1000, 0x1008, 0x2000, 7]),
    ),
    st.builds(
        lambda reg, delta: Instruction(
            Opcode.ADD, dest=reg, srcs=(reg,), imm=delta
        ),
        st.integers(1, 3),
        st.sampled_from([0, 8]),
    ),
)
# Weighted by hand: one_of would flatten alu_op's and base_op's branches
# and outnumber the memory ops.
dense_body = st.lists(
    st.sampled_from([dense_mem_op] * 6 + [alu_op, base_op]).flatmap(
        lambda strategy: strategy
    ),
    min_size=6,
    max_size=30,
)

REGION_MAP = {"a": (0x1000, 0x100), "b": (0x2000, 0x100)}


def hypothesis_analysis(block, profiled):
    """Known regions for two pointer registers; with ``profiled``, alias
    hints over neighbouring ops and one banned op, so every refusal
    branch of the search is taken."""
    hints, banned = {}, set()
    if profiled:
        mem = [inst.mem_index for inst in block if inst.is_mem]
        hints = {
            (a, b): rate
            for a, b, rate in zip(mem, mem[1:], (0.5, 0.1) * len(mem))
        }
        banned = set(mem[3:4])
    return AliasAnalysis(
        block, REGION_MAP, hints,
        initial_regions={2: "a", 3: "b"}, no_speculate=banned,
    )


def _bump(reg):
    return Instruction(Opcode.ADD, dest=reg, srcs=(reg,), imm=0)


#: small blocks for the shapes the key must get right
CASES = {
    "store-between-same-key-loads": [
        load(20, 1), store(1, 21), load(22, 1),
    ],
    "same-start-other-size": [
        load(20, 1, size=8), store(1, 21, size=4), load(22, 1, size=8),
        load(23, 1, size=4),
    ],
    "redefined-base": [load(20, 1), _bump(1), load(21, 1), load(22, 1)],
    "resolved-through-two-bases": [
        movi(2, 0x1000), movi(3, 0x1000), load(20, 2), store(1, 21),
        load(22, 3), store(3, 23, disp=8), load(24, 2, disp=8),
        load(25, 3, size=4),
    ],
}


class TestCases:
    @pytest.mark.parametrize("profiled", [False, True])
    @pytest.mark.parametrize("case", sorted(CASES))
    def test_case(self, case, profiled):
        block = Superblock(instructions=[inst.copy() for inst in CASES[case]])
        analysis = hypothesis_analysis(block, profiled)
        assert_must_key_exact(block, analysis)
        assert_load_elim_matches_reference(block, analysis, None)


class TestHypothesisPrograms:
    @given(
        body=st.one_of(program_body, dense_body, dense_body),
        profiled=st.booleans(),
        cap=st.sampled_from([None, 1, 3]),
    )
    def test_must_key_load_elim_and_sources(self, body, profiled, cap):
        block = Superblock(instructions=[inst.copy() for inst in body])
        analysis = hypothesis_analysis(block, profiled)
        assert_must_key_exact(block, analysis)
        assert_load_elim_matches_reference(block, analysis, cap)

        le = LoadElimination(max_eliminations=cap).run(block, analysis)
        se = StoreElimination().run(
            block, analysis, pinned=le.protected_ops()
        )
        after = hypothesis_analysis(block, profiled)
        assert_must_key_exact(block, after)
        triples = compute_dependences(block, after, positional=True)
        assert dependence_views(block, triples) == compute_dependences(
            block, after
        )
        assert_sources_match_dependence_set(
            block, triples, le.extended, se.extended
        )
