"""Shared (scheme x benchmark) sweep riding on the execution engine.

Figures 14-19 all consume the same per-run :class:`DbtReport` data; the
runner turns each (benchmark, scheme-key) cell into an engine
:class:`~repro.engine.jobs.JobSpec` and memoizes the resulting report, so
regenerating every figure costs one suite sweep. The engine underneath
decides *how* the cells run: serially, fanned across a process pool, or
served from the persistent report cache (see :mod:`repro.engine`).

:meth:`SuiteRunner.prefetch` submits every missing cell as one batch — the
hook parallel executors need to actually overlap work.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Iterable, List, Optional, Tuple

from repro.engine.core import ExecutionEngine
from repro.engine.jobs import JobSpec
from repro.sim.dbt import DbtReport
from repro.workloads import SPECFP_BENCHMARKS


@dataclass
class SuiteConfig:
    benchmarks: List[str] = field(
        default_factory=lambda: list(SPECFP_BENCHMARKS)
    )
    #: iteration scale for every workload (1.0 = calibrated default)
    scale: float = 0.25
    hot_threshold: int = 20


class SuiteRunner:
    """Runs and caches DBT reports keyed by (benchmark, scheme_key).

    ``engine`` defaults to a serial, non-persistent
    :class:`~repro.engine.core.ExecutionEngine`; pass a configured one
    for parallel execution, persistent caching, or instrumentation.
    """

    def __init__(
        self,
        config: Optional[SuiteConfig] = None,
        engine: Optional[ExecutionEngine] = None,
    ) -> None:
        self.config = config or SuiteConfig()
        self.engine = engine or ExecutionEngine()
        self._cache: Dict[Tuple[str, str], DbtReport] = {}

    # ------------------------------------------------------------------
    def _spec(self, benchmark: str, scheme_key: str) -> JobSpec:
        spec = JobSpec(
            benchmark=benchmark,
            scheme_key=scheme_key,
            scale=self.config.scale,
            hot_threshold=self.config.hot_threshold,
        )
        spec.validate()
        return spec

    def report(self, benchmark: str, scheme_key: str) -> DbtReport:
        """The cached report for one (benchmark, scheme) cell."""
        cell = (benchmark, scheme_key)
        if cell not in self._cache:
            self._cache[cell] = self.engine.run_one(
                self._spec(benchmark, scheme_key)
            )
        return self._cache[cell]

    def prefetch(
        self,
        scheme_keys: Iterable[str],
        benchmarks: Optional[Iterable[str]] = None,
    ) -> None:
        """Run every missing (benchmark, scheme) cell as one engine batch.

        This is where parallel executors get their fan-out: figures that
        follow hit the in-process memo and render in input order.
        """
        benches = list(benchmarks) if benchmarks else self.config.benchmarks
        cells = [
            (bench, key)
            for bench in benches
            for key in scheme_keys
            if (bench, key) not in self._cache
        ]
        if not cells:
            return
        reports = self.engine.run([self._spec(b, k) for b, k in cells])
        for cell, report in zip(cells, reports):
            self._cache[cell] = report

    def speedup(self, benchmark: str, scheme_key: str) -> float:
        """Speedup of ``scheme_key`` over the no-alias-hardware baseline."""
        baseline = self.report(benchmark, "none").total_cycles
        cycles = self.report(benchmark, scheme_key).total_cycles
        return baseline / cycles if cycles else 0.0

    def sweep(
        self, scheme_keys: Iterable[str]
    ) -> Dict[str, Dict[str, DbtReport]]:
        """Reports for every benchmark under every given scheme."""
        keys = list(scheme_keys)
        self.prefetch(keys)
        return {
            bench: {key: self.report(bench, key) for key in keys}
            for bench in self.config.benchmarks
        }


def geomean(values: Iterable[float]) -> float:
    values = [v for v in values if v > 0]
    if not values:
        return 0.0
    product = 1.0
    for v in values:
        product *= v
    return product ** (1.0 / len(values))
