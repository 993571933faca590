"""Unit tests for the data dependence graph.

Besides the per-rule unit tests, the positional graph is checked against
:class:`ReferenceDdg` — the per-edge builder it replaced, kept here as an
oracle — on every block the pipeline builds over the golden cells and on
hypothesis programs: equal edge tuples under both speculation policies x
store reordering, and equal scheduler tables whether the graph is built
fresh, adopted from its memo tuple, or rebuilt by the reference.
"""

import pytest
from hypothesis import given, strategies as st

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.dependence import (
    Dependence,
    DependenceSet,
    compute_dependences,
    dependence_views,
)
from repro.ir.instruction import Opcode, binop, branch, load, movi, store
from repro.ir.superblock import Superblock
from repro.opt.load_elim import LoadElimination
from repro.opt.store_elim import StoreElimination
from repro.sched.ddg import DataDependenceGraph, DdgEdge, EdgeKind
from repro.sched.list_scheduler import (
    ListScheduler,
    SchedulePrep,
    SchedulerConfig,
)
from repro.sched.machine import VLIW_DEFAULT

from tests.test_property_smarq import program_body


def build_ddg(insts, **kwargs):
    block = Superblock(instructions=list(insts))
    analysis = AliasAnalysis(block)
    deps = compute_dependences(block, analysis)
    return block, DataDependenceGraph(
        block, VLIW_DEFAULT, memory_dependences=deps, **kwargs
    )


def edges_of_kind(ddg, inst, kind, direction="succ"):
    edges = ddg.successors(inst) if direction == "succ" else ddg.predecessors(inst)
    return [e for e in edges if e.kind is kind]


class TestRegisterEdges:
    def test_flow_edge_with_producer_latency(self):
        block, ddg = build_ddg([load(1, 2), binop(Opcode.ADD, 3, 1, 1)])
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.FLOW)
        assert edge.dst is block[1]
        assert edge.latency == 3  # load latency

    def test_anti_edge_use_before_redef(self):
        block, ddg = build_ddg([binop(Opcode.ADD, 3, 1, 2), movi(1, 0)])
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.ANTI)
        assert edge.dst is block[1]
        assert edge.latency == 0

    def test_output_edge_between_defs(self):
        block, ddg = build_ddg([movi(1, 0), movi(1, 1)])
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.OUTPUT)
        assert edge.dst is block[1]

    def test_no_self_edges(self):
        block, ddg = build_ddg([binop(Opcode.ADD, 1, 1, 1)])
        assert ddg.successors(block[0]) == []


class TestControlEdges:
    def test_store_pinned_below_earlier_branch(self):
        insts = [branch(Opcode.BEQ, 9, srcs=(1, 2)), store(3, 4)]
        block, ddg = build_ddg(insts)
        assert edges_of_kind(ddg, block[0], EdgeKind.CONTROL)

    def test_load_free_to_hoist_above_branch(self):
        insts = [branch(Opcode.BEQ, 9, srcs=(1, 2)), load(3, 4)]
        block, ddg = build_ddg(insts)
        control = [
            e for e in ddg.predecessors(block[1]) if e.kind is EdgeKind.CONTROL
        ]
        assert control == []

    def test_final_branch_pins_everything(self):
        insts = [movi(1, 0), load(2, 3), branch(Opcode.BR, 0)]
        block, ddg = build_ddg(insts)
        for inst in block.instructions[:-1]:
            kinds = [e.kind for e in ddg.successors(inst)]
            assert EdgeKind.CONTROL in kinds

    def test_branches_stay_ordered(self):
        insts = [
            branch(Opcode.BEQ, 9, srcs=(1, 2)),
            branch(Opcode.BNE, 8, srcs=(3, 4)),
        ]
        block, ddg = build_ddg(insts)
        (edge,) = [
            e for e in ddg.successors(block[0])
            if e.kind is EdgeKind.CONTROL and e.dst is block[1]
        ]
        assert edge is not None


class TestMemoryEdges:
    def test_may_alias_edge_breakable(self):
        block, ddg = build_ddg([store(5, 1), load(2, 6)])
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.MEMORY)
        assert edge.speculative_breakable

    def test_must_alias_edge_unbreakable(self):
        block, ddg = build_ddg(
            [store(5, 1, disp=0, size=8), load(2, 5, disp=0, size=8)]
        )
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.MEMORY)
        assert not edge.speculative_breakable

    def test_store_reorder_disabled(self):
        block, ddg = build_ddg(
            [store(5, 1), store(6, 2)], allow_store_reorder=False
        )
        (edge,) = edges_of_kind(ddg, block[0], EdgeKind.MEMORY)
        assert not edge.speculative_breakable

    def test_loads_only_policy(self):
        # store->load breakable, load->store not, store->store not
        block, ddg = build_ddg(
            [store(5, 1), load(2, 6), store(7, 3)],
            speculation_policy="loads_only",
        )
        st1 = block.memory_ops()[0]
        for edge in edges_of_kind(ddg, st1, EdgeKind.MEMORY):
            assert edge.speculative_breakable == edge.dst.is_load

    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError):
            build_ddg([load(1, 2)], speculation_policy="bogus")

    def test_extended_deps_not_scheduling_edges(self):
        block = Superblock(instructions=[load(1, 5), store(6, 2)])
        analysis = AliasAnalysis(block)
        x, s = block.memory_ops()
        ext = Dependence(s, x, extended=True)
        ddg = DataDependenceGraph(block, VLIW_DEFAULT, memory_dependences=[ext])
        assert edges_of_kind(ddg, s, EdgeKind.MEMORY) == []


class TestGraphQueries:
    def test_critical_path_length(self):
        insts = [load(1, 2), binop(Opcode.ADD, 3, 1, 1), store(4, 3)]
        block, ddg = build_ddg(insts)
        # ld(3) -> add(1) -> st = 4 minimum
        assert ddg.critical_path_length() >= 4

    def test_edge_count(self):
        block, ddg = build_ddg([load(1, 2), binop(Opcode.ADD, 3, 1, 1)])
        assert ddg.edge_count() == 1


# ----------------------------------------------------------------------
# The positional graph against the per-edge builder it replaced
# ----------------------------------------------------------------------
class ReferenceDdg:
    """Test-only oracle: the per-edge DDG builder (one :class:`DdgEdge`
    per edge, uid-keyed adjacency) with the register, control and memory
    rules, the dedup rule and the insertion order the positional graph
    must reproduce."""

    def __init__(
        self,
        block,
        machine,
        memory_dependences=(),
        allow_store_reorder=True,
        speculation_policy="full",
    ):
        self.block = block
        self.succ = {inst.uid: [] for inst in block}
        self.pred = {inst.uid: [] for inst in block}
        self.edges = []
        self._best = {}
        self._register_edges(block, machine)
        self._control_edges(block)
        self._memory_edges(
            block, memory_dependences, allow_store_reorder, speculation_policy
        )

    def _add(self, edge):
        if edge.src is edge.dst:
            return
        key = (edge.src.uid, edge.dst.uid, edge.kind)
        best = self._best.get(key)
        if best is not None and edge.latency <= best:
            return
        self._best[key] = edge.latency
        self.succ[edge.src.uid].append(edge)
        self.pred[edge.dst.uid].append(edge)
        self.edges.append(edge)

    def _register_edges(self, block, machine):
        last_def, uses_since_def = {}, {}
        for inst in block:
            for reg in inst.uses():
                producer = last_def.get(reg)
                if producer is not None:
                    self._add(
                        DdgEdge(
                            producer, inst, EdgeKind.FLOW,
                            latency=machine.latency_of(producer),
                        )
                    )
                uses_since_def.setdefault(reg, []).append(inst)
            for reg in inst.defs():
                previous = last_def.get(reg)
                if previous is not None:
                    self._add(DdgEdge(previous, inst, EdgeKind.OUTPUT, 1))
                for user in uses_since_def.get(reg, ()):
                    self._add(DdgEdge(user, inst, EdgeKind.ANTI, 0))
                last_def[reg] = inst
                uses_since_def[reg] = []

    def _control_edges(self, block):
        instructions = list(block)
        branches = [i for i in instructions if i.is_branch]
        if not branches:
            return
        for bpos, b in enumerate(instructions):
            if not b.is_branch:
                continue
            for inst in instructions[bpos + 1:]:
                if inst.is_store:
                    self._add(DdgEdge(b, inst, EdgeKind.CONTROL, 0))
                if inst.is_branch and inst is not b:
                    self._add(DdgEdge(b, inst, EdgeKind.CONTROL, 0))
        final = instructions[-1]
        if final.is_branch:
            for inst in instructions[:-1]:
                self._add(DdgEdge(inst, final, EdgeKind.CONTROL, 0))

    def _memory_edges(self, block, deps, allow_store_reorder, policy):
        uids = {inst.uid for inst in block}
        for dep in deps:
            if dep.extended:
                continue
            if dep.src.uid not in uids or dep.dst.uid not in uids:
                continue
            breakable = not dep.must
            if (
                breakable
                and not allow_store_reorder
                and dep.src.is_store
                and dep.dst.is_store
            ):
                breakable = False
            if breakable and policy == "loads_only":
                breakable = dep.dst.is_load
            self._add(
                DdgEdge(
                    dep.src, dep.dst, EdgeKind.MEMORY,
                    latency=1 if dep.src.is_store or dep.dst.is_store else 0,
                    speculative_breakable=breakable,
                )
            )

    def critical_path_length(self):
        memo = {}
        for inst in reversed(list(self.block)):
            memo[inst.uid] = max(
                (e.latency + memo.get(e.dst.uid, 0) for e in self.succ[inst.uid]),
                default=0,
            )
        return max(memo.values(), default=0)

    def structural(self):
        positions = {inst.uid: idx for idx, inst in enumerate(self.block)}
        return tuple(
            (
                positions[e.src.uid], positions[e.dst.uid], e.kind.value,
                e.latency, e.speculative_breakable,
            )
            for e in self.edges
        )


def reference_prepare(ref, config, alias_analysis):
    """The readiness/priority tables computed from per-destination
    :class:`DdgEdge` lists, as the scheduler did before it read
    positions."""
    instructions = list(ref.block)
    n = len(instructions)
    pos = {inst.uid: i for i, inst in enumerate(instructions)}

    def honoured(edge):
        if edge.kind is not EdgeKind.MEMORY or not edge.speculative_breakable:
            return True
        if not config.speculate:
            return True
        if not config.allow_store_reorder and (
            edge.src.is_store and edge.dst.is_store
        ):
            return True
        if alias_analysis is not None:
            if alias_analysis.speculation_banned(
                edge.src
            ) or alias_analysis.speculation_banned(edge.dst):
                return True
            rate = alias_analysis.alias_rate(edge.src, edge.dst)
            if rate > config.alias_rate_threshold:
                return True
        return False

    hard, spec = [0] * n, [0] * n
    succ = [[] for _ in range(n)]
    for di, inst in enumerate(instructions):
        for edge in ref.pred[inst.uid]:
            h = honoured(edge)
            if h:
                hard[di] += 1
            else:
                spec[di] += 1
            succ[pos[edge.src.uid]].append((di, edge.latency, h))
    height = [0] * n
    for i in range(n - 1, -1, -1):
        height[i] = max(
            (lat + height[d] for d, lat, h in succ[i] if h), default=0
        )
    return SchedulePrep(
        hard_left=tuple(hard),
        spec_left=tuple(spec),
        succ_adj=tuple(tuple(entries) for entries in succ),
        height=tuple(height),
    )


POLICIES = [
    dict(speculation_policy=policy, allow_store_reorder=reorder)
    for policy in ("full", "loads_only")
    for reorder in (True, False)
]

SCHED_CONFIGS = [
    SchedulerConfig(),
    SchedulerConfig(allow_store_reorder=False),
    SchedulerConfig(speculate=False),
]


def profiled_analysis(block):
    """An alias analysis with hints and a ban, so every branch of the
    scheduler's honoured-edge predicate is taken on real blocks."""
    mem = [inst.mem_index for inst in block if inst.mem_index is not None]
    hints = {
        (a, b): rate
        for a, b, rate in zip(mem, mem[1:], (0.5, 0.1) * len(mem))
    }
    return AliasAnalysis(block, alias_hints=hints, no_speculate=set(mem[2:3]))


def assert_matches_reference(block, machine, deps):
    """Structural equality with the reference for every policy, and
    equal readiness tables from a fresh graph, an adopted memo tuple and
    the reference."""
    analysis = profiled_analysis(block)
    for policy in POLICIES:
        ref = ReferenceDdg(block, machine, deps, **policy)
        ddg = DataDependenceGraph(block, machine, deps, **policy)
        assert ddg.structural() == ref.structural(), policy
        adopted = DataDependenceGraph.from_structural(
            block, machine, ddg.structural(),
            speculation_policy=policy["speculation_policy"],
        )
        for config in SCHED_CONFIGS:
            scheduler = ListScheduler(machine, config)
            fresh = scheduler.prepare(ddg, alias_analysis=analysis)
            assert scheduler.prepare(adopted, alias_analysis=analysis) == fresh
            assert reference_prepare(ref, config, analysis) == fresh, (
                policy, config,
            )


class TestPositionalGraphMatchesReference:
    def test_every_block_the_pipeline_builds_on_the_golden_cells(
        self, monkeypatch
    ):
        """Every DDG the pipeline builds over the golden cells must equal
        the reference under both speculation policies x store
        reordering. Every translation that misses the full tier builds
        its graph, with the translation cache on or off."""
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

        built = []

        class Checked(DataDependenceGraph):
            def __init__(self, block, machine, memory_dependences=(), **kw):
                # the pipeline passes its positional triples; the
                # reference reads their Dependence views
                triples = kw["memory_triples"]
                views = dependence_views(block, triples)
                assert_matches_reference(block, machine, views)
                for policy in POLICIES:
                    assert DataDependenceGraph(
                        block, machine, memory_triples=triples, **policy
                    ).structural() == DataDependenceGraph(
                        block, machine, views, **policy
                    ).structural(), policy
                built.append(len(block))
                super().__init__(block, machine, memory_dependences, **kw)

        monkeypatch.setattr(pipeline_mod, "DataDependenceGraph", Checked)
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
        assert len(built) >= len(GOLDEN_BENCHMARKS)
        assert max(built) > 10

    @given(
        body=program_body,
        exits=st.lists(st.integers(0, 30), max_size=3),
        terminate=st.booleans(),
        eliminate=st.booleans(),
    )
    def test_hypothesis_programs(self, body, exits, terminate, eliminate):
        """Random straight-line bodies with side exits and an optional
        final branch (control edges), optionally through the
        eliminations (extended dependences, which add no edge)."""
        insts = [inst.copy() for inst in body]
        for at in sorted(exits, reverse=True):
            insts.insert(min(at, len(insts)), branch(Opcode.BEQ, 9, (20, 21)))
        if terminate:
            insts.append(branch(Opcode.BR, 0))
        block = Superblock(instructions=insts)
        analysis = AliasAnalysis(block)
        extended = []
        if eliminate:
            le = LoadElimination().run(block, analysis)
            se = StoreElimination().run(
                block, analysis, pinned=le.protected_ops()
            )
            extended = le.extended_deps + se.extended_deps
            analysis = AliasAnalysis(block)
        deps = DependenceSet(compute_dependences(block, analysis))
        for dep in extended:
            deps.add(dep)
        deps = list(deps)
        assert_matches_reference(block, VLIW_DEFAULT, deps)
        # the on-demand edge views are the reference's adjacency lists
        ref = ReferenceDdg(block, VLIW_DEFAULT, deps)
        ddg = DataDependenceGraph(block, VLIW_DEFAULT, deps)
        for inst in block:
            assert ddg.successors(inst) == ref.succ[inst.uid]
            assert ddg.predecessors(inst) == ref.pred[inst.uid]
        assert ddg.edge_count() == len(ref.edges)
        assert ddg.critical_path_length() == ref.critical_path_length()
