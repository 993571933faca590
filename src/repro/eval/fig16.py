"""Figure 16: performance impact of disabling store reordering.

Paper result: disabling speculative store-store reordering costs 2.6% on
average and up to 13% on mesa; ammp is slightly *helped* because its
reordered stores occasionally alias at runtime and roll back.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.eval.report import render_table
from repro.eval.suite import SuiteRunner

NO_STORE_REORDER_KEY = "smarq-nostreorder"


@dataclass
class Fig16Result:
    #: benchmark -> speedup with full SMARQ
    with_reorder: Dict[str, float] = field(default_factory=dict)
    #: benchmark -> speedup with store reordering disabled
    without_reorder: Dict[str, float] = field(default_factory=dict)
    #: benchmark -> relative impact (with / without - 1)
    impact: Dict[str, float] = field(default_factory=dict)
    mean_impact: float = 0.0


def run_fig16(runner: SuiteRunner) -> Fig16Result:
    result = Fig16Result()
    for bench in runner.config.benchmarks:
        full = runner.speedup(bench, "smarq")
        no_st = runner.speedup(bench, NO_STORE_REORDER_KEY)
        result.with_reorder[bench] = full
        result.without_reorder[bench] = no_st
        result.impact[bench] = (full / no_st - 1.0) if no_st else 0.0
    impacts = list(result.impact.values())
    result.mean_impact = sum(impacts) / len(impacts) if impacts else 0.0
    return result


def render_fig16(result: Fig16Result) -> str:
    rows = [
        [
            bench,
            result.with_reorder[bench],
            result.without_reorder[bench],
            f"{result.impact[bench] * 100:+.1f}%",
        ]
        for bench in result.with_reorder
    ]
    rows.append(["MEAN", "", "", f"{result.mean_impact * 100:+.1f}%"])
    return render_table(
        "Figure 16: Impact of Store Reordering",
        ["benchmark", "speedup (reorder)", "speedup (no st-reorder)", "impact"],
        rows,
        note=(
            "Paper shapes: small positive mean impact, largest on mesa; "
            "ammp can go slightly negative (reordered stores alias at "
            "runtime and roll back)."
        ),
    )
