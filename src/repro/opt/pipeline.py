"""Optimization pipeline driver.

Ties the passes together for one superblock region:

1. build alias analysis on the region (program order);
2. speculative load elimination, then speculative store elimination
   (forwarding sources from step 2 are pinned so step 3 cannot delete
   them) — each contributing extended dependences;
3. recompute alias analysis and base memory dependences on the transformed
   block — kept as ``(src_position, dst_position, must)`` triples, which
   the DDG reads and from which, with the extended dependences, the
   allocators' per-destination source table is built;
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
content-keyed cache, whose entry also holds the replay kernels the
simulator compiles for the translation's clones, and on a full-tier miss
the one stage product that saves more than it costs — base memory
dependences (``deps``) — is memoized with a stage-precise key;
eliminations, the DDG and the scheduler's priority tables are recomputed
on every miss. Because base dependence classification ignores alias
hints while eliminations and scheduling read them, a re-optimization
after an alias exception recomputes constraints, the DDG and allocation
but reuses the base dependences when the transformed block is unchanged.
The sub-phases are tracer-visible as ``optimize.constraints``,
``optimize.certify`` (when :attr:`OptimizerConfig.certify` is on — see
:mod:`repro.analysis.certify`), ``optimize.ddg``, ``optimize.schedule``
(with the allocator's share split out as ``optimize.alloc``) and
``optimize.cache``.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional, Tuple

from repro.analysis.aliasinfo import AliasAnalysis
from repro.analysis.certify import (
    Certificate,
    certify_enabled,
    certify_region,
    check_certificate,
    prover_token,
)
from repro.analysis.dependence import (
    DependenceSources,
    DepTriple,
    compute_dependences,
    dependence_views,
)
from repro.ir.superblock import Superblock
from repro.opt.load_elim import LoadElimination, LoadEliminationResult
from repro.opt.store_elim import StoreElimination, StoreEliminationResult
from repro.opt.translation_cache import (
    TranslationCache,
    get_translation_cache,
    key_digest,
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


def canonical_config(obj):
    """JSON-serializable, deterministic form of a config object tree."""
    if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        return {
            f.name: canonical_config(getattr(obj, f.name))
            for f in dataclasses.fields(obj)
        }
    if isinstance(obj, enum.Enum):
        return obj.name
    if isinstance(obj, Mapping):
        items = {str(canonical_config(k)): canonical_config(v) for k, v in obj.items()}
        return dict(sorted(items.items()))
    if isinstance(obj, (list, tuple)):
        return [canonical_config(x) for x in obj]
    if isinstance(obj, (set, frozenset)):
        return sorted((canonical_config(x) for x in obj), key=str)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def _digest(obj) -> str:
    """Stable hash of a config-like object tree (see ``canonical_config``)."""
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
    #: (see :mod:`repro.analysis.certify`; kill switch in :mod:`repro.knobs`)
    certify: bool = False


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
        self._machine_digest = _digest(machine)

    # -- cache keys ----------------------------------------------------
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

    # Each key builder returns the :func:`key_digest` of a tuple of
    # scalars and tuples — never a set or dict, whose iteration order
    # could give equal keys different digests.
    def _full_key(self, content, hints_key, banned_key) -> bytes:
        """Every input of a whole translation: machine, data layout,
        optimizer config, the region's content, and its alias hints and
        speculation bans (sorted tuples)."""
        key = (
            "full",
            self._machine_digest,
            self._env_digest,
            self._config_digest(),
            content,
            hints_key,
            banned_key,
        )
        if self.config.certify:
            # The kill switch and any mutant-prover override change what
            # the certify pass produces; fold both in so flipping either
            # cannot serve a translation built under the other. Schemes
            # with certification off keep their pre-certify keys.
            key += (("certify", certify_enabled(), prover_token()),)
        return key_digest(key)

    def _deps_key(self, content2) -> bytes:
        """Base dependence classification reads only addresses — alias
        hints and speculation bans are deliberately absent, which is what
        lets a post-exception re-optimization hit this tier."""
        return key_digest(("deps", self._env_digest, content2))

    # ------------------------------------------------------------------
    def optimize(self, original: Superblock) -> OptimizedRegion:
        """Produce an optimized, scheduled, alias-annotated region copy."""
        hints = self._hints.get(original.entry_pc, {})
        banned = self._no_speculate.get(original.entry_pc, set())
        tracer = self.tracer

        if not TranslationCache.enabled():
            return self._optimize_impl(original, hints, banned, None)
        cache = get_translation_cache()
        full_key = self._full_key(
            region_content_key(original),
            tuple(sorted(hints.items())),
            tuple(sorted(banned)),
        )
        if tracer.active:
            with tracer.phase("optimize.cache"):
                region = cache.get_translation(full_key, tracer)
        else:
            region = cache.get_translation(full_key, tracer)
        if region is not None:
            return region

        region = self._optimize_impl(original, hints, banned, cache)
        if tracer.active:
            with tracer.phase("optimize.cache"):
                cache.store_translation(full_key, region, tracer)
        else:
            cache.store_translation(full_key, region, tracer)
        return region

    def _optimize_impl(
        self, original: Superblock, hints, banned, cache
    ) -> OptimizedRegion:
        config = self.config
        tracer = self.tracer

        def make_analysis(b) -> AliasAnalysis:
            return AliasAnalysis(
                b,
                self.region_map,
                hints,
                initial_regions=self.register_regions,
                no_speculate=banned,
            )

        with tracer.phase("optimize.constraints"):
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

            # Rebuild analysis and base dependences on the transformed block.
            # Dependences stay positional (the deps memo's triples) from
            # here on; a memo hit adopts them as is.
            analysis = make_analysis(block)
            base: Optional[Tuple[DepTriple, ...]] = None
            if cache is not None:
                deps_key = self._deps_key(region_content_key(block))
                base = cache.get_stage("deps", deps_key, tracer)
            if base is None:
                base = compute_dependences(block, analysis, positional=True)
                if cache is not None:
                    cache.put_stage("deps", deps_key, base, tracer)
        certificate: Optional[Certificate] = None
        if config.certify and certify_enabled():
            with tracer.phase("optimize.certify"):
                # The certifier reads Dependence views of the triples.
                base_views = dependence_views(block, base)
                cert = certify_region(
                    block,
                    base_views,
                    region_map=self.region_map,
                    initial_regions=self.register_regions,
                    alias_hints=hints,
                    banned=banned,
                )
                # A certificate is never trusted, only a (certificate,
                # accepted) pair: the independent checker re-runs on it.
                problems = check_certificate(
                    cert,
                    block,
                    base_views,
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
                        kept = tuple(
                            t for t in base if (t[0], t[1]) not in pairs
                        )
                        tracer.count(
                            "certify.deps_dropped", len(base) - len(kept)
                        )
                        base = kept
                    tracer.count("certify.pairs_certified", len(pairs))

        with tracer.phase("optimize.ddg"):
            ddg = DataDependenceGraph(
                block,
                self.machine,
                allow_store_reorder=config.allow_store_reorder,
                speculation_policy=config.speculation_policy,
                memory_triples=base,
            )

        with tracer.phase("optimize.schedule"):
            sched_config = SchedulerConfig(
                speculate=config.speculate,
                alias_rate_threshold=config.alias_rate_threshold,
                allow_store_reorder=config.allow_store_reorder,
            )
            allocator = None
            hook: AllocatorHook
            if config.speculate:
                # Base sources first, then load- and store-elimination
                # extended ones: the allocators' per-destination order.
                deps = DependenceSources.from_positions(
                    block, base, load_result.extended, store_result.extended
                )
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
            schedule = scheduler.schedule(ddg, alias_analysis=analysis)

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
