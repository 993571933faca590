"""Optimization pipeline driver.

Ties the passes together for one superblock region:

1. build alias analysis on the region (program order);
2. speculative load elimination, then speculative store elimination
   (forwarding sources from step 2 are pinned so step 3 cannot delete
   them) — each contributing extended dependences;
3. recompute alias analysis and base memory dependences on the transformed
   block, merge with the extended dependences;
4. schedule with the SMARQ allocator hooked in (speculative reordering
   happens here), or schedule conservatively for the no-alias-hardware
   baseline.

The pipeline also owns *re-optimization* (paper Figure 1): after an alias
exception the runtime calls :meth:`OptimizationPipeline.reoptimize` with
the faulting memory-operation pair; the pair is recorded as a must-alias
profile hint and the region is rebuilt from its original code, now
refusing to speculate on that pair.

Translation is memoized at two granularities (see
:mod:`repro.opt.translation_cache`): whole translations are served from a
content-keyed cache, and on a full-tier miss the stage products — the
post-elimination block (``elim``), base memory dependences (``deps``),
DDG structure (``ddg``) and scheduler priority tables (``prep``) — are
memoized with stage-precise keys. Because base dependence classification
ignores alias hints while eliminations and scheduling read them, a
re-optimization after an alias exception recomputes constraints and
allocation but reuses the DDG when the transformed block is unchanged.
The sub-phases are tracer-visible as ``optimize.constraints``,
``optimize.certify`` (when :attr:`OptimizerConfig.certify` is on — see
:mod:`repro.analysis.certify`), ``optimize.ddg``, ``optimize.schedule``
(with the allocator's share split out as ``optimize.alloc``) and
``optimize.cache``.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.certify import (
    Certificate,
    certify_enabled,
    certify_region,
    check_certificate,
    prover_token,
)
from repro.analysis.dependence import (
    Dependence,
    DependenceSet,
    compute_dependences,
)
from repro.ir.superblock import Superblock
from repro.opt.load_elim import LoadElimination, LoadEliminationResult
from repro.opt.store_elim import StoreElimination, StoreEliminationResult
from repro.opt.translation_cache import (
    TranslationCache,
    get_translation_cache,
    region_content_key,
)
from repro.sched.ddg import DataDependenceGraph
from repro.sched.list_scheduler import (
    AllocatorHook,
    ListScheduler,
    ScheduleResult,
    SchedulerConfig,
)
from repro.sched.machine import MachineModel
from repro.smarq.allocator import AllocationSummary, SmarqAllocator


def _digest(obj) -> str:
    """Stable hash of a config-like object tree (see ``canonical_config``)."""
    from repro.engine.jobs import canonical_config

    blob = json.dumps(canonical_config(obj), sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class OptimizerConfig:
    """What the optimizer is allowed to do."""

    speculate: bool = True
    allow_store_reorder: bool = True
    enable_load_elimination: bool = True
    enable_store_elimination: bool = True
    alias_rate_threshold: float = 0.25
    #: cap mandatory register pressure from eliminations, per block
    max_eliminations_per_block: int = 12
    #: "full" or "loads_only" (ALAT hardware can only hoist loads)
    speculation_policy: str = "full"
    #: "any" or "loads" — which access kinds may source load forwarding
    load_elim_sources: str = "any"
    #: "smarq" (ordered queue, Figure 13) or "bitmask" (Efficeon-style
    #: direct indexes + per-checker masks)
    allocator: str = "smarq"
    #: unroll loop regions this many times before optimizing (1 = off);
    #: the paper's "larger region / loop level" future-work direction
    unroll_factor: int = 1
    #: statically certify non-aliasing pairs and drop their constraints
    #: (see :mod:`repro.analysis.certify`; kill switch SMARQ_NO_CERTIFY)
    certify: bool = False


#: version of the pickled translation classes (:class:`OptimizedRegion`
#: and everything it holds), folded into every full-tier key so that a
#: persisted blob of an older shape misses instead of loading. Bump it
#: whenever one of those classes changes.
TRANSLATION_FORMAT = 2


@dataclass
class OptimizedRegion:
    """Everything the runtime needs to install a translated region.

    ``allocation`` summarizes whichever hook performed alias register
    allocation — a :class:`SmarqAllocator`, a
    :class:`~repro.smarq.bitmask_alloc.BitmaskAllocator`, a
    :class:`~repro.smarq.plain_order_alloc.PlainOrderAllocator` — taken
    once its schedule is final, or is None for non-speculative
    translations. The allocator itself, its dependence set and the alias
    analysis are not kept: nothing reads them after scheduling, and every
    full-tier cache entry would pickle them.
    """

    block: Superblock
    schedule: ScheduleResult
    allocation: Optional[AllocationSummary]
    load_elim: LoadEliminationResult
    store_elim: StoreEliminationResult
    config: OptimizerConfig
    #: checker-accepted alias certificate, when certification ran
    certificate: Optional[Certificate] = None

    @property
    def length_cycles(self) -> int:
        return self.schedule.length_cycles


class OptimizationPipeline:
    """Optimizes superblock regions; remembers per-region alias hints."""

    def __init__(
        self,
        machine: MachineModel,
        config: Optional[OptimizerConfig] = None,
        region_map: Optional[Mapping[str, Tuple[int, int]]] = None,
        register_regions: Optional[Mapping[int, str]] = None,
        tracer=None,
    ) -> None:
        from repro.engine.instrumentation import NULL_TRACER

        self.machine = machine
        self.config = config or OptimizerConfig()
        self.region_map = dict(region_map or {})
        self.register_regions = dict(register_regions or {})
        self.tracer = tracer if tracer is not None else NULL_TRACER
        #: per-entry-pc alias hints learned from alias exceptions
        self._hints: Dict[int, Dict[Tuple[int, int], float]] = {}
        #: per-entry-pc per-mem-index fault counts; two faults ban the op
        self._fault_counts: Dict[int, Dict[int, int]] = {}
        self._no_speculate: Dict[int, set] = {}
        self.reoptimizations = 0
        # Cache-key components that are fixed for this pipeline's lifetime
        # (the guest data layout was copied above); the optimizer config is
        # digested per field-value snapshot because tests mutate it between
        # optimizations (see _config_digest).
        self._config_digest_memo: Optional[Tuple[Tuple, str]] = None
        self._env_digest = _digest(
            {"region_map": self.region_map, "regs": self.register_regions}
        )
        self._latency_sig = tuple(
            sorted(
                (op.name, lat) for op, (_unit, lat) in machine.op_table.items()
            )
        )
        self._machine_digest = _digest(machine)

    # -- cache keys ----------------------------------------------------
    def _hint_keys(self, hints, banned) -> Tuple[Tuple, Tuple]:
        return tuple(sorted(hints.items())), tuple(sorted(banned))

    def _config_digest(self) -> str:
        """Digest of the current optimizer config.

        Memoized on the config's field-value snapshot: the sha256 over
        the canonical JSON dominates the per-call key cost on the hot
        translation path, while configs change rarely (tests mutate them
        between optimizations — hence value comparison, not identity).
        """
        c = self.config
        sig = tuple(
            getattr(c, name) for name in type(c).__dataclass_fields__
        )
        memo = self._config_digest_memo
        if memo is not None and memo[0] == sig:
            return memo[1]
        value = _digest(c)
        self._config_digest_memo = (sig, value)
        return value

    def _full_key(self, content, hints_key, banned_key) -> Tuple:
        key = (
            "full",
            TRANSLATION_FORMAT,
            self._machine_digest,
            self._env_digest,
            self._config_digest(),
            content,
            hints_key,
            banned_key,
        )
        if self.config.certify:
            # The kill switch and any mutant-prover override change what
            # the certify stage produces; fold both in so flipping either
            # cannot serve a translation built under the other. Schemes
            # with certification off keep their pre-certify keys.
            key += (("certify", certify_enabled(), prover_token()),)
        return key

    def _elim_key(self, content, hints_key, banned_key) -> Tuple:
        """Eliminations never read the machine model, the allocator choice,
        or the scheduling policy — leaving those out shares one elim memo
        across every scheme evaluating the same guest region."""
        c = self.config
        return (
            "elim",
            self._env_digest,
            (
                c.speculate,
                c.enable_load_elimination,
                c.enable_store_elimination,
                c.alias_rate_threshold,
                c.max_eliminations_per_block,
                c.load_elim_sources,
                c.unroll_factor,
            ),
            content,
            hints_key,
            banned_key,
        )

    def _deps_key(self, content2) -> Tuple:
        """Base dependence classification reads only addresses — alias
        hints and speculation bans are deliberately absent, which is what
        lets a post-exception re-optimization hit this tier."""
        return ("deps", self._env_digest, content2)

    def _ddg_key(self, content2, cert_sig=()) -> Tuple:
        c = self.config
        key = (
            "ddg",
            self._env_digest,
            self._latency_sig,
            c.allow_store_reorder,
            c.speculation_policy,
            content2,
        )
        if cert_sig:
            # Certified pairs were dropped before DDG construction; the
            # structure differs from the uncertified one. Appending only
            # when non-empty keeps zero-drop certification sharing the
            # plain DDG memo byte-for-byte.
            key += (("certified", cert_sig),)
        return key

    def _prep_key(self, content2, hints_key, banned_key, cert_sig=()) -> Tuple:
        c = self.config
        return (
            "prep",
            self._ddg_key(content2, cert_sig),
            c.speculate,
            c.alias_rate_threshold,
            hints_key,
            banned_key,
        )

    # ------------------------------------------------------------------
    def optimize(self, original: Superblock) -> OptimizedRegion:
        """Produce an optimized, scheduled, alias-annotated region copy."""
        hints = self._hints.get(original.entry_pc, {})
        banned = self._no_speculate.get(original.entry_pc, set())
        tracer = self.tracer

        # The full translation key doubles as the replay artifact key
        # (attached below as region._replay_key): it is computed even when
        # the translation cache is disabled so the simulator can share
        # lowered replay IR and compiled kernels across content-identical
        # regions (repro.sim.replay_backends).
        hints_key, banned_key = self._hint_keys(hints, banned)
        content = region_content_key(original)
        full_key = self._full_key(content, hints_key, banned_key)

        cache = get_translation_cache() if TranslationCache.enabled() else None
        if cache is not None:
            if tracer.active:
                with tracer.phase("optimize.cache"):
                    region = cache.get_translation(full_key, tracer)
            else:
                region = cache.get_translation(full_key, tracer)
            if region is not None:
                region._replay_key = full_key
                return region

        region = self._optimize_impl(original, content, hints, banned, cache)
        if cache is not None:
            # Stored before the key is attached: a hit re-attaches it, so
            # the blob need not carry the region's whole content again.
            if tracer.active:
                with tracer.phase("optimize.cache"):
                    cache.store_translation(full_key, region, tracer)
            else:
                cache.store_translation(full_key, region, tracer)
        region._replay_key = full_key
        return region

    def _optimize_impl(
        self, original: Superblock, content: Tuple, hints, banned, cache
    ) -> OptimizedRegion:
        config = self.config
        tracer = self.tracer
        if cache is not None:
            hints_key, banned_key = self._hint_keys(hints, banned)

        def make_analysis(b) -> AliasAnalysis:
            return AliasAnalysis(
                b,
                self.region_map,
                hints,
                initial_regions=self.register_regions,
                no_speculate=banned,
            )

        with tracer.phase("optimize.constraints"):
            cached_elim = None
            elim_key = None
            if cache is not None:
                elim_key = self._elim_key(content, hints_key, banned_key)
                cached_elim = cache.get_stage("elim", elim_key, tracer)
            if cached_elim is not None:
                block, load_result, store_result = cached_elim
            else:
                block = original.copy()

                if config.unroll_factor > 1:
                    from repro.opt.unroll import unroll_loop

                    unroll_loop(block, config.unroll_factor)

                analysis = make_analysis(block)
                elim_budget = config.max_eliminations_per_block

                # Without alias hardware, only check-free ("safe")
                # eliminations run.
                require_safe = not config.speculate

                load_result = LoadEliminationResult()
                if config.enable_load_elimination:
                    load_pass = LoadElimination(
                        alias_rate_threshold=config.alias_rate_threshold,
                        max_eliminations=elim_budget,
                        require_safe=require_safe,
                        sources=config.load_elim_sources,
                    )
                    load_result = load_pass.run(block, analysis)

                store_result = StoreEliminationResult()
                if config.enable_store_elimination:
                    store_pass = StoreElimination(
                        alias_rate_threshold=config.alias_rate_threshold,
                        max_eliminations=max(
                            0, elim_budget - load_result.eliminated
                        ),
                        require_safe=require_safe,
                    )
                    store_result = store_pass.run(
                        block, analysis, pinned=load_result.protected_ops()
                    )
                if cache is not None:
                    from repro.ir.instruction import uid_watermark

                    cache.put_stage_pickled(
                        "elim",
                        elim_key,
                        (block, load_result, store_result),
                        uid_watermark(),
                        tracer,
                    )

            # Rebuild analysis and base dependences on the transformed block.
            analysis = make_analysis(block)
            content2 = region_content_key(block) if cache is not None else None
            base_deps: Optional[List[Dependence]] = None
            if cache is not None:
                triples = cache.get_stage(
                    "deps", self._deps_key(content2), tracer
                )
                if triples is not None:
                    insts = list(block)
                    base_deps = [
                        Dependence(insts[i], insts[j], must=must)
                        for i, j, must in triples
                    ]
            if base_deps is None:
                base_deps = compute_dependences(block, analysis)
                if cache is not None:
                    positions = {
                        inst.uid: idx for idx, inst in enumerate(block)
                    }
                    cache.put_stage(
                        "deps",
                        self._deps_key(content2),
                        tuple(
                            (
                                positions[d.src.uid],
                                positions[d.dst.uid],
                                d.must,
                            )
                            for d in base_deps
                        ),
                        tracer,
                    )
        certificate: Optional[Certificate] = None
        cert_sig: Tuple = ()
        if config.certify and certify_enabled():
            with tracer.phase("optimize.certify"):
                cert = None
                if cache is not None:
                    # Keyed like deps plus the profile state the prover's
                    # refusal predicates read, plus the override token.
                    cert_key = (
                        "certify",
                        self._env_digest,
                        content2,
                        hints_key,
                        banned_key,
                        prover_token(),
                    )
                    cert = cache.get_stage("certify", cert_key, tracer)
                if cert is None:
                    cert = certify_region(
                        block,
                        base_deps,
                        region_map=self.region_map,
                        initial_regions=self.register_regions,
                        alias_hints=hints,
                        banned=banned,
                    )
                    if cache is not None:
                        cache.put_stage("certify", cert_key, cert, tracer)
                # The checker reruns even on cache hits: a certificate is
                # never trusted, only a (certificate, accepted) pair.
                problems = check_certificate(
                    cert,
                    block,
                    base_deps,
                    region_map=self.region_map,
                    initial_regions=self.register_regions,
                    alias_hints=hints,
                    banned=banned,
                )
                if problems:
                    # Fail safe: an unsound or stale certificate drops
                    # nothing; the region keeps its full constraint set.
                    tracer.count("certify.rejected")
                else:
                    certificate = cert
                    pairs = cert.certified_pairs()
                    if pairs:
                        positions = {
                            inst.uid: idx for idx, inst in enumerate(block)
                        }
                        kept = [
                            d
                            for d in base_deps
                            if (positions[d.src.uid], positions[d.dst.uid])
                            not in pairs
                        ]
                        tracer.count(
                            "certify.deps_dropped",
                            len(base_deps) - len(kept),
                        )
                        base_deps = kept
                        cert_sig = tuple(sorted(pairs))
                    tracer.count("certify.pairs_certified", len(pairs))

        deps = DependenceSet(base_deps)
        for dep in load_result.extended_deps:
            deps.add(dep)
        for dep in store_result.extended_deps:
            deps.add(dep)

        with tracer.phase("optimize.ddg"):
            ddg = None
            if cache is not None:
                structural = cache.get_stage(
                    "ddg", self._ddg_key(content2, cert_sig), tracer
                )
                if structural is not None:
                    ddg = DataDependenceGraph.from_structural(
                        block,
                        self.machine,
                        structural,
                        speculation_policy=config.speculation_policy,
                    )
            if ddg is None:
                ddg = DataDependenceGraph(
                    block,
                    self.machine,
                    memory_dependences=list(deps),
                    allow_store_reorder=config.allow_store_reorder,
                    speculation_policy=config.speculation_policy,
                )
                if cache is not None:
                    cache.put_stage(
                        "ddg",
                        self._ddg_key(content2, cert_sig),
                        ddg.structural(),
                        tracer,
                    )

        with tracer.phase("optimize.schedule"):
            sched_config = SchedulerConfig(
                speculate=config.speculate,
                alias_rate_threshold=config.alias_rate_threshold,
                allow_store_reorder=config.allow_store_reorder,
            )
            allocator = None
            hook: AllocatorHook
            if config.speculate and config.allocator == "smarq":
                allocator = SmarqAllocator(
                    self.machine, deps, list(block.instructions)
                )
                hook = allocator
            elif config.speculate and config.allocator == "plainorder":
                from repro.smarq.plain_order_alloc import PlainOrderAllocator

                allocator = PlainOrderAllocator(
                    self.machine, deps, list(block.instructions)
                )
                hook = allocator
            elif config.speculate and config.allocator == "bitmask":
                from repro.smarq.bitmask_alloc import BitmaskAllocator

                allocator = BitmaskAllocator(
                    self.machine,
                    deps,
                    list(block.instructions),
                    num_registers=min(15, self.machine.alias_registers),
                )
                hook = allocator
            elif config.speculate:
                raise ValueError(f"unknown allocator {config.allocator!r}")
            else:
                hook = AllocatorHook()
            scheduler = ListScheduler(
                self.machine, sched_config, hook, tracer=tracer
            )
            prep = None
            if cache is not None:
                prep_key = self._prep_key(
                    content2, hints_key, banned_key, cert_sig
                )
                prep = cache.get_stage("prep", prep_key, tracer)
            if prep is None:
                prep = scheduler.prepare(ddg, alias_analysis=analysis)
                if cache is not None:
                    cache.put_stage("prep", prep_key, prep, tracer)
            schedule = scheduler.schedule(
                ddg, alias_analysis=analysis, prep=prep
            )

        return OptimizedRegion(
            block=block,
            schedule=schedule,
            # after schedule(): AMOV rewiring of check pairs is final
            allocation=(
                AllocationSummary.of(allocator)
                if allocator is not None
                else None
            ),
            load_elim=load_result,
            store_elim=store_result,
            config=config,
            certificate=certificate,
        )

    # ------------------------------------------------------------------
    def record_alias(
        self,
        entry_pc: int,
        mem_index_a: Optional[int],
        mem_index_b: Optional[int],
        reordered: bool = True,
    ) -> None:
        """Learn that two memory operations of a region aliased at runtime.

        A fault on a *reordered* pair pins the pair (they will not be
        reordered again). A fault on a pair that was NOT reordered —
        possible only with imprecise hardware (ALAT false positives) —
        escalates immediately: pinning an in-order pair changes nothing,
        so the setter is banned from all speculation. Repeated faults on
        the same operation also escalate.
        """
        if mem_index_a is None or mem_index_b is None:
            return
        lo, hi = sorted((mem_index_a, mem_index_b))
        self._hints.setdefault(entry_pc, {})[(lo, hi)] = 1.0
        counts = self._fault_counts.setdefault(entry_pc, {})
        if not reordered:
            self._no_speculate.setdefault(entry_pc, set()).add(mem_index_a)
        for idx in (mem_index_a, mem_index_b):
            counts[idx] = counts.get(idx, 0) + 1
            if counts[idx] >= 2:
                self._no_speculate.setdefault(entry_pc, set()).add(idx)

    def reoptimize(
        self,
        original: Superblock,
        mem_index_a: Optional[int],
        mem_index_b: Optional[int],
    ) -> OptimizedRegion:
        """Conservative re-optimization after an alias exception."""
        self.record_alias(original.entry_pc, mem_index_a, mem_index_b)
        self.reoptimizations += 1
        return self.optimize(original)

    def seed_hints(
        self, entry_pc: int, hints: Mapping[Tuple[int, int], float]
    ) -> None:
        """Merge profile-derived alias hints for a region (never lowers an
        already-learned rate — exception-derived 1.0 hints win)."""
        bucket = self._hints.setdefault(entry_pc, {})
        for pair, rate in hints.items():
            bucket[pair] = max(bucket.get(pair, 0.0), rate)

    def hints_for(self, entry_pc: int) -> Dict[Tuple[int, int], float]:
        return dict(self._hints.get(entry_pc, {}))
