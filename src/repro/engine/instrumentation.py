"""Lightweight counters and per-phase wall-clock timing.

A :class:`Tracer` is threaded through :class:`~repro.sim.dbt.DbtSystem`,
:class:`~repro.sim.runtime.DynamicOptimizationRuntime` and
:class:`~repro.sim.vliw.VliwSimulator`; each simulation job gets its own
instance and the engine merges the snapshots afterwards. The default
:class:`NullTracer` makes every hook a no-op so uninstrumented runs pay
(almost) nothing.

Counter names used by the simulation stack:

``dbt.runs``
    completed :meth:`DbtSystem.run` invocations (the number the warm-cache
    acceptance check asserts is zero);
``runtime.translations`` / ``runtime.reoptimizations``
    region (re)translation counts;
``runtime.alias_exceptions`` / ``runtime.false_positive_exceptions``
    alias-exception rates;
``vliw.regions_executed``
    translated-region entries;
``vliw.plan_hits`` / ``vliw.plan_misses``
    planned executions, one count each: a hit returns the shared outcome
    of the exit it left by; a miss is the first execution to leave by
    that exit, which builds the outcome from the plan's cycle array;
``vliw.plan_compiles``
    per-trace cycle-array compilations (at most one per compiled region
    trace);
``vliw.replay_compiles``
    timing plans that adopted the straight-line ``py`` replay for their
    trace, which only a forced ``py`` tier does (at most one per
    compiled region trace; an adoption served from an already-compiled
    shared artifact also counts ``vliw.replay_cache_hits`` — no codegen
    ran for it);
``vliw.replay_cache_hits``
    replay adoptions — a promoted plan's kernel or a ``py`` adoption —
    served from an artifact compiled earlier: the translation-cache
    entry's artifacts are shared by every clone of that entry;
``vliw.backend_interp`` / ``vliw.backend_py`` / ``vliw.backend_vec`` /
``vliw.backend_batch``
    region executions per replay backend tier (the generic dispatch
    loop, the generated straight-line function, the vectorized kernel,
    and the cross-iteration batched kernel; counted only while a real
    tracer is installed — they are observability counters, not report
    fields; the four partition ``vliw.regions_executed``);
``vliw.vec_compiles``
    vectorized kernels compiled from lowered replay IR (the one kernel
    of a trace without a back-edge, or of every trace when ``vec`` is
    forced);
``vliw.vec_fallbacks``
    vec executions that hit a runtime fact outside the kernel's static
    model and re-ran on the dispatch loop, counted there as
    ``vliw.backend_interp`` (the kernel stays: there is no demotion);
``vliw.batch_compiles`` / ``vliw.batch_iterations`` / ``vliw.batch_trims``
    batched kernels compiled (the one kernel of a trace with a
    back-edge), region iterations committed inside batch calls before
    the final one, and batch kernel calls cut short by a guarded escape
    (the trimmed iteration rolls back and re-runs on the dispatch loop;
    the kernel stays);
``translate.cache_hits`` / ``translate.cache_misses``
    full-translation lookups in the content-keyed translation cache (a
    hit clones a previously optimized region instead of re-optimizing);
``translate.cache_stores`` / ``translate.cache_store_bytes``
    optimized regions serialized into the translation cache, and the
    bytes of their blobs (``--stats`` shows them in KB);
``translate.deps_hits`` / ``translate.deps_misses``
    stage-memo lookups inside a full-translation miss: base memory
    dependences reused from an earlier translation of the same content,
    or computed.

Phase names: ``run`` (whole DBT loop), ``optimize`` (translation +
scheduling + allocation), ``execute`` (translated-region simulation).
Inside ``optimize`` the pipeline times its sub-phases:
``optimize.constraints`` (alias analysis, eliminations, dependence
derivation), ``optimize.ddg`` (dependence-graph build), ``optimize.schedule``
(list scheduling including the allocator hook), ``optimize.alloc`` (the
allocator-hook share of scheduling, accumulated via :meth:`Tracer.add_time`
— a subset of ``optimize.schedule``, not additive with it) and
``optimize.cache`` (translation-cache fingerprinting and blob (de)serialization).
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from typing import Dict, Iterator, Mapping


class Tracer:
    """Accumulates named counters and per-phase wall time (seconds)."""

    __slots__ = ("counters", "timings")

    #: False on :class:`NullTracer`; hot paths consult it before paying
    #: for per-event ``perf_counter`` bracketing that would be discarded.
    active = True

    def __init__(self) -> None:
        self.counters: Dict[str, int] = {}
        self.timings: Dict[str, float] = {}

    # -- counters ------------------------------------------------------
    def count(self, name: str, n: int = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + n

    # -- phases --------------------------------------------------------
    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        start = time.perf_counter()
        try:
            yield
        finally:
            elapsed = time.perf_counter() - start
            self.timings[name] = self.timings.get(name, 0.0) + elapsed

    def add_time(self, name: str, seconds: float) -> None:
        """Fold an externally measured duration into a phase total (for
        callers that accumulate many tiny intervals and report once)."""
        self.timings[name] = self.timings.get(name, 0.0) + seconds

    # -- aggregation ---------------------------------------------------
    def merge(
        self,
        counters: Mapping[str, int],
        timings: Mapping[str, float],
    ) -> None:
        """Fold another tracer's snapshot into this one."""
        for name, value in counters.items():
            self.counters[name] = self.counters.get(name, 0) + value
        for name, value in timings.items():
            self.timings[name] = self.timings.get(name, 0.0) + value

    def snapshot(self) -> Dict[str, dict]:
        return {"counters": dict(self.counters), "timings": dict(self.timings)}


class NullTracer(Tracer):
    """Tracer whose hooks do nothing (the default everywhere)."""

    active = False

    def count(self, name: str, n: int = 1) -> None:
        pass

    @contextmanager
    def phase(self, name: str) -> Iterator[None]:
        yield

    def add_time(self, name: str, seconds: float) -> None:
        pass


#: shared default instance; safe because it keeps no state
NULL_TRACER = NullTracer()
