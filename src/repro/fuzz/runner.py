"""Fuzz campaign driver: generate, cross-check, minimize, persist.

One :class:`FuzzRunner` run walks seeds ``seed, seed+1, ...`` for
``cases`` cases (or until ``time_budget`` seconds elapse), builds each
generated case's shared :class:`~repro.fuzz.oracles.CaseRun`, and applies
every selected oracle. Disagreements are (optionally) delta-debugged down
to a minimal op list, then written out as a corpus entry plus a
standalone pytest repro under the output directory.

The per-case ``engine`` oracle spins up a process pool, which would
dominate wall time if run for every case — so it is sampled: at most
``engine_samples`` evenly-spread cases run it (the sampling is logged in
the stats; nothing is silently skipped). All other oracles run on every
case.

Statistics flow through the PR 1 :class:`~repro.engine.instrumentation`
Tracer: per-oracle counts and wall time, cases generated, disagreements,
minimizer tests, and kernel coverage — the cases whose whole-program
runs executed a batch or vec replay kernel (the kernels lower only
word-shaped traces, so a generator change can silently starve them).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

from repro.engine.instrumentation import Tracer
from repro.fuzz.corpus import (
    corpus_entry,
    write_corpus_entry,
    write_repro_file,
)
from repro.fuzz.generator import FuzzCase, generate_case
from repro.fuzz.minimize import minimize_case
from repro.fuzz.oracles import ORACLES, CaseRun, Disagreement


@dataclass
class FuzzFailure:
    """One disagreeing case, with its minimized form if requested."""

    seed: int
    oracle: str
    disagreements: List[Disagreement]
    case: FuzzCase
    minimized: Optional[FuzzCase] = None
    minimizer_tests: int = 0
    entry_path: Optional[Path] = None
    repro_path: Optional[Path] = None

    @property
    def final_case(self) -> FuzzCase:
        return self.minimized if self.minimized is not None else self.case


@dataclass
class FuzzConfig:
    seed: int = 0
    cases: int = 200
    #: wall-clock budget in seconds; 0 = unlimited (run all cases)
    time_budget: float = 0.0
    oracles: Sequence[str] = tuple(ORACLES)
    minimize: bool = True
    #: cases (evenly spread) that also run the process-pool engine oracle
    engine_samples: int = 8
    out_dir: Path = Path("fuzz-out")
    #: stop after this many failing cases (0 = collect all)
    max_failures: int = 10
    #: hardware implementation injected into alloc/queue oracles (the
    #: mutation smoke test swaps in a broken queue here)
    queue_factory: Optional[type] = None
    #: alias prover injected into the certify oracle (the certify
    #: mutation test swaps in an unsound prover here)
    prover: Optional[object] = None


@dataclass
class FuzzStats:
    cases_run: int = 0
    cases_requested: int = 0
    disagreements: int = 0
    failures: List[FuzzFailure] = field(default_factory=list)
    stopped_by_budget: bool = False
    engine_sampled: int = 0
    wall_seconds: float = 0.0
    tracer: Tracer = field(default_factory=Tracer)

    @property
    def ok(self) -> bool:
        return not self.failures


class FuzzRunner:
    def __init__(self, config: FuzzConfig) -> None:
        self.config = config
        for name in config.oracles:
            if name not in ORACLES:
                raise ValueError(
                    f"unknown oracle {name!r}; choose from {list(ORACLES)}"
                )

    # ------------------------------------------------------------------
    def _engine_seeds(self) -> frozenset:
        """Seeds that additionally run the sampled engine oracle."""
        cfg = self.config
        if "engine" not in cfg.oracles or cfg.engine_samples <= 0:
            return frozenset()
        n = min(cfg.engine_samples, cfg.cases)
        stride = max(1, cfg.cases // n)
        return frozenset(
            cfg.seed + i for i in range(0, cfg.cases, stride)
        )

    def _case_oracles(self, seed: int, engine_seeds) -> List[str]:
        names = [n for n in self.config.oracles if n != "engine"]
        if seed in engine_seeds:
            names.append("engine")
        return names

    # ------------------------------------------------------------------
    def run(self) -> FuzzStats:
        cfg = self.config
        stats = FuzzStats(cases_requested=cfg.cases)
        tracer = stats.tracer
        start = time.perf_counter()
        engine_seeds = self._engine_seeds()

        with tracer.phase("fuzz.total"):
            for seed in range(cfg.seed, cfg.seed + cfg.cases):
                if (
                    cfg.time_budget
                    and time.perf_counter() - start > cfg.time_budget
                ):
                    stats.stopped_by_budget = True
                    break
                case = generate_case(seed)
                tracer.count("fuzz.cases")
                tracer.count("fuzz.ops", len(case.ops))
                run = self._make_run(case)
                for name in self._case_oracles(seed, engine_seeds):
                    if name == "engine":
                        stats.engine_sampled += 1
                    with tracer.phase(f"fuzz.oracle.{name}"):
                        found = ORACLES[name](run)
                    tracer.count(f"fuzz.checked.{name}")
                    if found:
                        tracer.count(f"fuzz.disagreements.{name}", len(found))
                        stats.disagreements += len(found)
                        failure = self._handle_failure(
                            seed, name, case, found, tracer
                        )
                        stats.failures.append(failure)
                        break  # a broken case re-fails everywhere; move on
                if run.kernel_runs:
                    tracer.count("fuzz.kernel_cases")
                stats.cases_run += 1
                if cfg.max_failures and len(stats.failures) >= cfg.max_failures:
                    break

        stats.wall_seconds = time.perf_counter() - start
        return stats

    def _make_run(self, case: FuzzCase) -> CaseRun:
        kwargs = {}
        if self.config.queue_factory is not None:
            kwargs["queue_factory"] = self.config.queue_factory
        if self.config.prover is not None:
            kwargs["prover"] = self.config.prover
        return CaseRun(case, **kwargs)

    # ------------------------------------------------------------------
    def _handle_failure(
        self,
        seed: int,
        oracle: str,
        case: FuzzCase,
        found: List[Disagreement],
        tracer: Tracer,
    ) -> FuzzFailure:
        cfg = self.config
        failure = FuzzFailure(
            seed=seed, oracle=oracle, disagreements=found, case=case
        )
        if cfg.minimize:
            with tracer.phase("fuzz.minimize"):
                def still_fails(candidate: FuzzCase) -> bool:
                    return bool(ORACLES[oracle](self._make_run(candidate)))

                try:
                    result = minimize_case(case, still_fails)
                    failure.minimized = result.case
                    failure.minimizer_tests = result.tests
                    tracer.count("fuzz.minimizer_tests", result.tests)
                except ValueError:
                    # Flaky disagreement (did not reproduce); keep the
                    # original case so it is still recorded.
                    failure.minimized = None
        name = f"seed{seed}_{oracle}"
        final = failure.final_case
        note = "; ".join(str(d) for d in found)
        failure.entry_path = write_corpus_entry(
            cfg.out_dir, name, corpus_entry(final, oracle, note)
        )
        failure.repro_path = write_repro_file(
            cfg.out_dir, name, final, oracle, found
        )
        return failure


def run_fuzz(config: FuzzConfig) -> FuzzStats:
    return FuzzRunner(config).run()


# ----------------------------------------------------------------------
# Rendering (CLI)
# ----------------------------------------------------------------------
def render_stats(stats: FuzzStats, config: FuzzConfig) -> str:
    t = stats.tracer
    lines = [
        "Fuzz campaign",
        "=============",
        f"cases run             : {stats.cases_run} / "
        f"{stats.cases_requested}"
        + (" (time budget reached)" if stats.stopped_by_budget else ""),
        f"oracles               : {', '.join(config.oracles)}",
        f"engine-oracle samples : {stats.engine_sampled}"
        + (
            f" of {stats.cases_run} cases (sampled; see --help)"
            if "engine" in config.oracles
            else ""
        ),
        f"ops generated         : {t.counters.get('fuzz.ops', 0)}",
        f"kernel coverage       : {t.counters.get('fuzz.kernel_cases', 0)}"
        f" of {stats.cases_run} cases ran a batch or vec replay kernel",
        f"disagreements         : {stats.disagreements}",
        f"wall time             : {stats.wall_seconds:.2f}s",
    ]
    per_oracle = [
        (name, t.counters.get(f"fuzz.checked.{name}", 0),
         t.timings.get(f"fuzz.oracle.{name}", 0.0))
        for name in config.oracles
    ]
    lines.append("per-oracle (cases checked / wall):")
    for name, checked, wall in per_oracle:
        lines.append(f"  {name:<8} : {checked:>6} / {wall:.2f}s")
    if stats.failures:
        lines.append("")
        lines.append("FAILURES")
        for f in stats.failures:
            ops = len(f.final_case.ops)
            minimized = (
                f"minimized to {ops} ops in {f.minimizer_tests} tests"
                if f.minimized is not None
                else f"{ops} ops (not minimized)"
            )
            lines.append(
                f"  seed {f.seed} [{f.oracle}] {minimized}"
            )
            for d in f.disagreements[:3]:
                lines.append(f"    {d}")
            if f.entry_path:
                lines.append(f"    corpus entry: {f.entry_path}")
            if f.repro_path:
                lines.append(f"    repro       : {f.repro_path}")
        lines.append("")
        lines.append(
            "Promote a corpus entry by copying it into tests/corpus/ "
            "(replayed by tests/test_corpus.py)."
        )
    else:
        lines.append("all oracle pairs agree on every case")
    return "\n".join(lines)
