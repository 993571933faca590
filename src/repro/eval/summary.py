"""One-call reproduction summary.

``run_all`` executes every table/figure over one shared suite sweep and
returns the rendered report as a single string (what ``python -m repro
figures`` prints, and what EXPERIMENTS.md quotes). ``headline`` distills
the six numbers the README table shows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from repro.eval.fig14 import render_fig14, run_fig14
from repro.eval.fig15 import SCHEMES as _FIG15_SCHEMES
from repro.eval.fig15 import render_fig15, run_fig15
from repro.eval.fig16 import NO_STORE_REORDER_KEY, render_fig16, run_fig16
from repro.eval.fig17 import render_fig17, run_fig17
from repro.eval.fig18 import render_fig18, run_fig18
from repro.eval.fig19 import render_fig19, run_fig19
from repro.eval.suite import SuiteConfig, SuiteRunner
from repro.eval.table1 import render_table1, run_table1


def _prefetch_all(runner: SuiteRunner) -> None:
    """Batch every cell the figures need (one engine fan-out)."""
    runner.prefetch(
        ("none",) + tuple(_FIG15_SCHEMES) + (NO_STORE_REORDER_KEY,)
    )


@dataclass
class Headline:
    """The six headline numbers (paper values in EXPERIMENTS.md)."""

    smarq_speedup: float
    smarq16_gap: float
    itanium_gap: float
    store_reorder_mean: float
    working_set_reduction: float
    checks_per_memop: float
    antis_per_memop: float


def run_all(runner: Optional[SuiteRunner] = None) -> str:
    """Render every table and figure into one report string."""
    runner = runner or SuiteRunner(SuiteConfig())
    _prefetch_all(runner)
    sections = [
        render_table1(run_table1()),
        render_fig14(run_fig14(runner)),
        render_fig15(run_fig15(runner)),
        render_fig16(run_fig16(runner)),
        render_fig17(run_fig17(runner)),
        render_fig18(run_fig18(runner)),
        render_fig19(run_fig19(runner)),
    ]
    return "\n\n".join(sections)


def headline(runner: Optional[SuiteRunner] = None) -> Headline:
    """The README's summary numbers, computed from one sweep."""
    runner = runner or SuiteRunner(SuiteConfig())
    _prefetch_all(runner)
    fig15 = run_fig15(runner)
    fig16 = run_fig16(runner)
    fig17 = run_fig17(runner)
    fig19 = run_fig19(runner)
    smarq = fig15.geomeans["smarq"]
    return Headline(
        smarq_speedup=smarq,
        smarq16_gap=(smarq - fig15.geomeans["smarq16"]) / smarq,
        itanium_gap=(smarq - fig15.geomeans["itanium"]) / smarq,
        store_reorder_mean=fig16.mean_impact,
        working_set_reduction=fig17.mean_reduction_vs_all,
        checks_per_memop=fig19.mean_checks,
        antis_per_memop=fig19.mean_antis,
    )
