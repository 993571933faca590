"""ExecutionEngine: cache-aware, instrumented job orchestration.

The engine is the single funnel every report request goes through:

1. fingerprint each :class:`~repro.engine.jobs.JobSpec`;
2. probe the report cache, serving hits without simulating;
3. hand the misses to the configured executor (serial or process-pool);
4. store fresh reports back into the cache;
5. merge every job's tracer snapshot into engine-wide statistics.

Results always come back in request order regardless of executor, so
figure output is byte-identical across ``--jobs`` settings.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.engine.cache import NullCache
from repro.engine.executor import Executor, SerialExecutor
from repro.engine.instrumentation import Tracer
from repro.engine.jobs import JobResult, JobSpec, job_fingerprint
from repro.opt.translation_cache import STAGES
from repro.sim.dbt import DbtReport


@dataclass
class EngineStats:
    """Aggregated facts about every job the engine has run."""

    jobs: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    #: jobs that actually simulated (should be 0 on a fully warm cache)
    simulated_runs: int = 0
    serial_fallbacks: int = 0
    wall_seconds: float = 0.0
    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)


class ExecutionEngine:
    """Executor + cache + instrumentation behind one ``run`` call."""

    def __init__(
        self,
        executor: Optional[Executor] = None,
        cache=None,
        tracer: Optional[Tracer] = None,
    ) -> None:
        self.executor = executor or SerialExecutor()
        self.cache = cache if cache is not None else NullCache()
        self.tracer = tracer or Tracer()
        self.stats = EngineStats()

    # ------------------------------------------------------------------
    def run(self, specs: Sequence[JobSpec]) -> List[DbtReport]:
        """Reports for every spec, in input order."""
        return [r.report for r in self.run_results(specs)]

    def run_results(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        """Full :class:`JobResult` records for every spec, in input order.

        Same pipeline as :meth:`run`, but callers that need provenance —
        the job fingerprint, whether the report came from the cache, the
        per-job tracer snapshot — get it instead of the bare report. The
        serve daemon streams these fields per job.
        """
        specs = list(specs)
        for spec in specs:
            spec.validate()
        start = time.perf_counter()

        fingerprints = [job_fingerprint(spec) for spec in specs]
        results: List[Optional[JobResult]] = [None] * len(specs)
        miss_indices: List[int] = []
        for i, (spec, fp) in enumerate(zip(specs, fingerprints)):
            report = self.cache.get(fp)
            if report is not None:
                results[i] = JobResult(
                    fingerprint=fp, report=report, from_cache=True
                )
                self.stats.cache_hits += 1
                self.tracer.count("engine.cache_hits")
            else:
                miss_indices.append(i)
                self.stats.cache_misses += 1
                self.tracer.count("engine.cache_misses")

        if miss_indices:
            # A single miss is never worth a worker pool.
            executor = (
                self.executor if len(miss_indices) > 1 else SerialExecutor()
            )
            fresh = executor.run([specs[i] for i in miss_indices])
            for i, result in zip(miss_indices, fresh):
                results[i] = result
                self.cache.put(result.fingerprint, result.report)
                self.stats.simulated_runs += 1
                self.tracer.merge(result.counters, result.timings)

        # Synced unconditionally: a fully warm cache must still report the
        # executor's lifetime fallback count, not a stale zero.
        self.stats.serial_fallbacks = self.executor.fallbacks
        self.stats.jobs += len(specs)
        self.stats.wall_seconds += time.perf_counter() - start
        self.stats.counters = dict(self.tracer.counters)
        self.stats.timings = dict(self.tracer.timings)
        return [r for r in results if r is not None]

    def run_one(self, spec: JobSpec) -> DbtReport:
        """Convenience wrapper for a single job (always in-process)."""
        return self.run([spec])[0]

    # ------------------------------------------------------------------
    def render_stats(self) -> str:
        """Human-readable ``--stats`` summary."""
        s = self.stats
        c, t = s.counters, s.timings
        lines = [
            "Engine statistics",
            "=================",
            f"jobs                  : {s.jobs}",
            f"cache hits / misses   : {s.cache_hits} / {s.cache_misses}",
            f"simulated runs        : {s.simulated_runs} "
            f"(DbtSystem.run calls: {c.get('dbt.runs', 0)})",
            f"serial fallbacks      : {s.serial_fallbacks}",
            f"engine wall time      : {s.wall_seconds:.2f}s",
        ]
        lines += counter_lines(c)
        if t:
            lines.append("per-phase wall time (summed across jobs):")
            for name in sorted(t):
                lines.append(f"  {name:<19} : {t[name]:.3f}s")
        return "\n".join(lines)


def counter_lines(c: Mapping[str, int]) -> List[str]:
    """The ``--stats`` lines derived from tracer counters alone: what
    the runs translated and executed, and how each process-wide memo
    served them. Local (:meth:`ExecutionEngine.render_stats`) and remote
    (:meth:`repro.serve.client.RemoteEngine.render_stats`) statistics
    render them from the same counters with this one function."""
    lines: List[str] = []
    if c.get("runtime.translations") or c.get("dbt.runs"):
        lines += [
            f"region translations   : {c.get('runtime.translations', 0)} "
            f"(+{c.get('runtime.reoptimizations', 0)} re-opts)",
            f"alias exceptions      : "
            f"{c.get('runtime.alias_exceptions', 0)} "
            f"({c.get('runtime.false_positive_exceptions', 0)} false "
            f"positives)",
            f"regions executed      : "
            f"{c.get('vliw.regions_executed', 0)}",
        ]
        batch = c.get("vliw.backend_batch", 0)
        tiers = (
            f"replay backends       : "
            f"{c.get('vliw.backend_interp', 0)} interp / "
            f"{c.get('vliw.backend_py', 0)} py / "
            f"{c.get('vliw.backend_vec', 0)} vec / "
            f"{batch} batch"
        )
        if batch:
            tiers += f" ({c.get('vliw.batch_iterations', 0)} batched iters)"
        lines.append(tiers)
    prefix_hits = c.get("dbt.prefix_hits", 0)
    prefix_runs = prefix_hits + c.get("dbt.prefix_misses", 0)
    if prefix_runs:
        lines.append(
            f"warm-up restores      : {prefix_hits} of {prefix_runs} "
            f"runs ({prefix_hits / prefix_runs:.0%})"
        )
    plan_hits = c.get("vliw.plan_hits", 0)
    plan_misses = c.get("vliw.plan_misses", 0)
    lookups = plan_hits + plan_misses
    if lookups:
        lines += [
            f"timing-plan lookups   : {plan_hits} hits / "
            f"{plan_misses} misses ({plan_hits / lookups:.0%} hit)",
            f"timing-plan compiles  : "
            f"{c.get('vliw.plan_compiles', 0)} cycle arrays, "
            f"{c.get('vliw.replay_compiles', 0)} replay fns",
        ]
    tc_hits = c.get("translate.cache_hits", 0)
    tc_misses = c.get("translate.cache_misses", 0)
    tc_lookups = tc_hits + tc_misses
    if tc_lookups:
        stored_kb = c.get("translate.cache_store_bytes", 0) / 1024
        lines.append(
            f"translation cache     : {tc_hits} hits / {tc_misses} misses "
            f"({tc_hits / tc_lookups:.0%} hit), {stored_kb:.0f} KB stored"
        )
        stage_bits = []
        for stage in STAGES:
            hits = c.get(f"translate.{stage}_hits", 0)
            total = hits + c.get(f"translate.{stage}_misses", 0)
            if total:
                stage_bits.append(f"{stage} {hits}/{total}")
        if stage_bits:
            lines.append(f"stage memo hits       : {', '.join(stage_bits)}")
    return lines
