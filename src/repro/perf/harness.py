"""Wall-clock perf harness over the instrumented simulation core.

Two measurements, both designed to be comparable across commits:

* **cells** — each (benchmark, scheme) cell simulated in-process with a
  fresh :class:`~repro.engine.instrumentation.Tracer`; the tracer's phase
  timings split the wall time into ``optimize`` (translation + scheduling
  + allocation), ``execute`` (translated-region VLIW simulation), and the
  derived ``interpret`` remainder of the ``run`` phase. Best-of-N repeats
  so one GC pause cannot poison a trajectory point.
* **figures_cold** — the end-to-end serial cold path (``figures
  --scale S --jobs 1 --no-cache``), the number the ROADMAP's perf
  acceptance criteria are written against.

The output JSON (``BENCH_pr2.json`` and successors at the repo root) is
self-describing: config, per-cell numbers, end-to-end numbers, and — when
``--baseline`` names a previous BENCH file — the embedded baseline plus
computed speedups.

Schema history:

* **1** — ``wall_s`` per cell is best-of-N; single-sample ``figures_cold``.
* **2** — every repeated measurement additionally records ``mean_s`` /
  ``std_s`` (population std over the N samples) next to the best-of
  ``wall_s``, ``figures_cold`` is repeated like the cells, per-cell
  timing-plan counters are summarized under ``plans``, and baseline
  comparisons add an ``execute_phase`` aggregate speedup. Schema-1 files
  remain readable as baselines: every added field is optional on the
  baseline side.
* **3** — cells record the optimizer's sub-phase timings under
  ``optimize_phases`` (``constraints`` / ``ddg`` / ``schedule`` /
  ``alloc`` / ``cache``; ``alloc`` is the allocator's share *inside*
  ``schedule``) and translation-cache counters under ``translate``
  (full-tier hits/misses/stores plus per-stage memo hits), and baseline
  comparisons add an ``optimize_phase`` aggregate speedup. The cell sweep
  intentionally shares the process-wide translation cache across repeats
  and cells — exactly what the figures pipeline sees — so best-of-N
  reflects the warm steady state. Schema-1/2 baselines remain readable:
  every added field is optional on the baseline side.
* **4** — cells record replay backend-tier counters under ``backends``
  (``interp``/``py``/``vec`` region-execution counts, vec kernel
  compiles and runtime fallbacks, replay artifact compiles and
  process-wide cache hits, and the derived ``vec_share``), and
  :func:`check_regression` turns the baseline comparison into a hard CI
  gate (``perf --fail-below``) over the ``execute_phase`` and
  ``total_cells`` aggregate speedups. Schema-1/2/3 baselines remain
  readable: every added field is optional on the baseline side.
* **5** — optional ``serve_load`` section (``perf --serve-load``,
  :func:`measure_serve_load`): the same job set timed three ways —
  cold one-process-per-job CLI (``python -m repro run`` subprocesses),
  cold first-touch batches against a freshly spawned ``repro serve``
  daemon, and warm repeat batches against the same daemon (memo/cache
  hits) — each with throughput + p50/p99 latency, plus the derived
  ``warm_vs_cli`` / ``warm_vs_cold_server`` throughput ratios. Earlier
  baselines remain readable: the section is optional on both sides.
* **6** — noise hardening + the ``batch`` replay tier. Per-cell
  ``phases`` become per-phase **medians** across the ``--repeats``
  samples (best-of-N ``wall_s`` and its ``mean_s``/``std_s`` stay for
  schema-1/2 continuity), and every cell adds a ``spread`` section with
  per-phase ``mean_s``/``std_s``/``median_s`` so the noisy-box variance
  documented in docs/PERF.md is visible in the JSON instead of
  threatening the ``--fail-below`` gate. ``backends`` adds the batch
  tier: ``batch`` (per-iteration execution count), ``batch_iterations``
  / ``batch_compiles`` / ``batch_trims`` and the derived
  ``batch_share`` (a ``batch_flavor`` field naming the batch
  prefilter flavor was dropped with the prefilter). An optional
  ``batch_differential`` section (``perf --batch-differential SCALE``,
  :func:`measure_batch_differential`) measures the batch tier against
  its own kill switch — the same cells, same process, same day, with
  batching on vs ``SMARQ_BATCH_WIDTH=0`` — so the tier's execute-phase
  speedup is not confounded with the machine drift that a
  cross-BENCH-file comparison inevitably carries. Schema-1..5
  baselines remain readable: every added field is optional on the
  baseline side.
"""

from __future__ import annotations

import io
import json
import platform
import time
from contextlib import redirect_stdout
from dataclasses import dataclass, field
from typing import Dict, List, Optional

BENCH_SCHEMA_VERSION = 6

#: three representative workloads: regular streams (swim), small hot loop
#: with heavy aliasing (art), pointer-chasing stores (equake)
DEFAULT_BENCHMARKS = ("swim", "art", "equake")
#: three hardware families: precise queue, imprecise ALAT, no hardware
DEFAULT_SCHEMES = ("smarq", "itanium", "none")


@dataclass
class PerfConfig:
    benchmarks: List[str] = field(
        default_factory=lambda: list(DEFAULT_BENCHMARKS)
    )
    schemes: List[str] = field(default_factory=lambda: list(DEFAULT_SCHEMES))
    scale: float = 0.1
    hot_threshold: int = 20
    repeats: int = 3
    #: also time the end-to-end serial cold `figures` run at this scale
    figures_scale: Optional[float] = 0.1


def _time_cell(
    benchmark: str, scheme: str, scale: float, hot_threshold: int
) -> Dict[str, object]:
    """One in-process simulation of a cell, fully instrumented."""
    from repro.engine.instrumentation import Tracer
    from repro.frontend.profiler import ProfilerConfig
    from repro.sim.dbt import DbtSystem
    from repro.workloads import make_benchmark

    tracer = Tracer()
    program = make_benchmark(benchmark, scale=scale)
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=hot_threshold),
        tracer=tracer,
    )
    start = time.perf_counter()
    report = system.run()
    wall = time.perf_counter() - start

    timings = dict(tracer.timings)
    run_s = timings.get("run", wall)
    optimize_s = timings.get("optimize", 0.0)
    execute_s = timings.get("execute", 0.0)
    return {
        "wall_s": wall,
        "phases": {
            "run": run_s,
            "optimize": optimize_s,
            "execute": execute_s,
            # interpretation has no explicit tracer phase: it is the DBT
            # loop's remainder once translation and region execution are
            # subtracted out
            "interpret_derived": max(0.0, run_s - optimize_s - execute_s),
        },
        # sub-phases of optimize; ``alloc`` is the allocator's share of
        # ``schedule``, not an additional term
        "optimize_phases": {
            "constraints": timings.get("optimize.constraints", 0.0),
            "ddg": timings.get("optimize.ddg", 0.0),
            "schedule": timings.get("optimize.schedule", 0.0),
            "alloc": timings.get("optimize.alloc", 0.0),
            "cache": timings.get("optimize.cache", 0.0),
        },
        "counters": dict(tracer.counters),
        "report": {
            "guest_instructions": report.guest_instructions,
            "total_cycles": report.total_cycles,
            "translations": report.translations,
            "region_commits": report.region_commits,
            "alias_exceptions": report.alias_exceptions,
        },
    }


def _spread(samples: List[float]) -> Dict[str, float]:
    """Mean and population standard deviation of repeated wall times."""
    mean = sum(samples) / len(samples)
    var = sum((s - mean) ** 2 for s in samples) / len(samples)
    return {"mean_s": mean, "std_s": var**0.5}


def _median(samples: List[float]) -> float:
    ordered = sorted(samples)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return ordered[mid]
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def _translate_summary(counters: Dict[str, int]) -> Dict[str, object]:
    """Translation-cache counters of one cell, plus derived hit rates."""
    hits = counters.get("translate.cache_hits", 0)
    misses = counters.get("translate.cache_misses", 0)
    lookups = hits + misses
    summary: Dict[str, object] = {
        "hits": hits,
        "misses": misses,
        "stores": counters.get("translate.cache_stores", 0),
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }
    for stage in ("elim", "deps", "ddg", "prep"):
        summary[f"{stage}_hits"] = counters.get(f"translate.{stage}_hits", 0)
        summary[f"{stage}_misses"] = counters.get(
            f"translate.{stage}_misses", 0
        )
    return summary


def _plan_summary(counters: Dict[str, int]) -> Dict[str, object]:
    """Timing-plan counters of one cell, plus the derived hit rate."""
    hits = counters.get("vliw.plan_hits", 0)
    misses = counters.get("vliw.plan_misses", 0)
    lookups = hits + misses
    return {
        "hits": hits,
        "misses": misses,
        "compiles": counters.get("vliw.plan_compiles", 0),
        "invalidations": counters.get("vliw.plan_invalidations", 0),
        "replay_compiles": counters.get("vliw.replay_compiles", 0),
        "hit_rate": (hits / lookups) if lookups else 0.0,
    }


def _backend_summary(counters: Dict[str, int]) -> Dict[str, object]:
    """Replay backend-tier counters of one cell, plus derived shares."""
    interp = counters.get("vliw.backend_interp", 0)
    py = counters.get("vliw.backend_py", 0)
    vec = counters.get("vliw.backend_vec", 0)
    batch = counters.get("vliw.backend_batch", 0)
    total = interp + py + vec + batch
    return {
        "interp": interp,
        "py": py,
        "vec": vec,
        "batch": batch,
        "vec_compiles": counters.get("vliw.vec_compiles", 0),
        "vec_fallbacks": counters.get("vliw.vec_fallbacks", 0),
        "batch_compiles": counters.get("vliw.batch_compiles", 0),
        "batch_iterations": counters.get("vliw.batch_iterations", 0),
        "batch_trims": counters.get("vliw.batch_trims", 0),
        "replay_compiles": counters.get("vliw.replay_compiles", 0),
        "replay_cache_hits": counters.get("vliw.replay_cache_hits", 0),
        "vec_share": (vec / total) if total else 0.0,
        "batch_share": (batch / total) if total else 0.0,
    }


def time_figures_cold(scale: float = 0.1) -> Dict[str, float]:
    """Wall time of the serial cold figures path, in-process.

    Equivalent to ``python -m repro figures --scale S --jobs 1
    --no-cache`` minus interpreter start-up, which would only add noise to
    a cross-commit comparison.
    """
    from repro.cli import main

    sink = io.StringIO()
    start = time.perf_counter()
    with redirect_stdout(sink):
        rc = main(
            ["figures", "--scale", str(scale), "--jobs", "1", "--no-cache"]
        )
    wall = time.perf_counter() - start
    if rc != 0:  # pragma: no cover - defensive
        raise RuntimeError(f"figures run failed with exit code {rc}")
    return {"scale": scale, "jobs": 1, "wall_s": wall}


def measure_serve_load(
    scale: float = 0.05,
    benchmarks: Optional[List[str]] = None,
    schemes: Optional[List[str]] = None,
    warm_batches: int = 3,
) -> Dict[str, object]:
    """Time one job set cold-CLI vs cold-server vs warm-server.

    The job set is the ``benchmarks x schemes`` grid at ``scale``. The
    cold CLI leg runs each job as its own ``python -m repro run``
    subprocess — interpreter start-up, import, simulate, exit — which is
    what service mode exists to amortize. The server legs drive a
    freshly spawned daemon (private cache dir, so nothing is pre-warmed)
    through the load generator: one cold first-touch batch, then
    ``warm_batches`` repeats of the same batch served from the memo.
    """
    import os
    import subprocess
    import sys
    import tempfile
    from pathlib import Path

    import repro
    from repro.serve import LoadConfig, run_load, spawned_server

    benchmarks = list(benchmarks or DEFAULT_BENCHMARKS)
    schemes = list(schemes or DEFAULT_SCHEMES)
    jobs = [(b, s) for b in benchmarks for s in schemes]

    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    start = time.perf_counter()
    for benchmark, scheme in jobs:
        subprocess.run(
            [
                sys.executable, "-m", "repro", "run", benchmark,
                "--scheme", scheme, "--scale", str(scale),
            ],
            check=True,
            env=env,
            stdout=subprocess.DEVNULL,
        )
    cli_wall = time.perf_counter() - start
    cli_cold = {
        "jobs": len(jobs),
        "wall_s": cli_wall,
        "throughput_jps": len(jobs) / cli_wall if cli_wall else 0.0,
    }

    base = LoadConfig(
        batch_size=len(jobs),
        clients=1,
        scale=scale,
        benchmarks=benchmarks,
        schemes=schemes,
    )
    with tempfile.TemporaryDirectory() as cache_dir:
        with spawned_server(jobs=1, cache_dir=Path(cache_dir)) as address:
            # One warm-mix batch is the repeat batch's first touch: all
            # misses, and exactly the specs the warm leg then repeats —
            # so the warm leg below is served purely from the memo.
            cold_cfg = LoadConfig(**{**vars(base), "mix": "warm", "batches": 1})
            server_cold = run_load(address, cold_cfg)
            warm_cfg = LoadConfig(
                **{**vars(base), "mix": "warm", "batches": warm_batches}
            )
            server_warm = run_load(address, warm_cfg)

    def _trim(payload: Dict[str, object]) -> Dict[str, object]:
        keep = (
            "mix", "batches", "batch_size", "clients", "jobs_total",
            "completed", "failed", "wall_s", "throughput_jps",
            "p50_ms", "p99_ms", "max_ms", "mean_ms",
        )
        return {k: payload[k] for k in keep}

    section: Dict[str, object] = {
        "scale": scale,
        "benchmarks": benchmarks,
        "schemes": schemes,
        "cli_cold": cli_cold,
        "server_cold": {**_trim(server_cold), "mix": "first-touch"},
        "server_warm": _trim(server_warm),
    }
    if cli_cold["throughput_jps"]:
        section["warm_vs_cli"] = (
            server_warm["throughput_jps"] / cli_cold["throughput_jps"]
        )
    if server_cold["throughput_jps"]:
        section["warm_vs_cold_server"] = (
            server_warm["throughput_jps"] / server_cold["throughput_jps"]
        )
    return section


#: the benchmarks whose execute phase is dominated by one hot self-loop
#: — the shape the batch tier exists for, and the set the differential
#: section reports a dedicated aggregate over
LOOP_DOMINATED_BENCHMARKS = ("equake", "pwalk", "pchase")


def measure_batch_differential(
    benchmarks: Optional[List[str]] = None,
    scheme: str = "smarq",
    scale: float = 1.0,
    repeats: int = 3,
    hot_threshold: int = 20,
) -> Dict[str, object]:
    """Kill-switch differential for the batch replay tier.

    A cross-BENCH-file execute-phase ratio confounds the batch tier's
    effect with everything else that changed between the two files —
    most of all the box they were measured on. This section removes the
    machine from the equation: each cell is simulated ``repeats`` times
    with batching live and ``repeats`` times under ``SMARQ_BATCH_WIDTH=0``
    (the kill switch, which makes ``vec`` the one kernel of every
    trace), the two legs interleaved in one process on one day. The ratio of median execute-phase times is the tier's speedup
    with everything else held fixed.
    """
    import os

    benchmarks = list(benchmarks or LOOP_DOMINATED_BENCHMARKS)
    repeats = max(1, repeats)
    env_key = "SMARQ_BATCH_WIDTH"
    prior = os.environ.get(env_key)
    cells: Dict[str, Dict[str, object]] = {}
    try:
        for benchmark in benchmarks:
            legs: Dict[str, List[Dict[str, object]]] = {"off": [], "on": []}
            for _ in range(repeats):
                # Interleaved on/off pairs: slow drift within the run
                # (thermal, background load) hits both legs equally.
                for mode in ("off", "on"):
                    if mode == "off":
                        os.environ[env_key] = "0"
                    elif prior is None:
                        os.environ.pop(env_key, None)
                    else:
                        os.environ[env_key] = prior
                    legs[mode].append(
                        _time_cell(benchmark, scheme, scale, hot_threshold)
                    )
            cell: Dict[str, object] = {}
            for mode, samples in legs.items():
                execs = [s["phases"]["execute"] for s in samples]
                walls = [s["wall_s"] for s in samples]
                best = min(samples, key=lambda s: s["phases"]["execute"])
                cell[mode] = {
                    "execute_s": _median(execs),
                    "wall_s": _median(walls),
                    "spread": {"execute_s": _spread(execs)},
                    "backends": _backend_summary(best["counters"]),
                }
            off_exec = cell["off"]["execute_s"]
            on_exec = cell["on"]["execute_s"]
            if on_exec:
                cell["execute_ratio"] = off_exec / on_exec
            cells[f"{benchmark}/{scheme}"] = cell
    finally:
        if prior is None:
            os.environ.pop(env_key, None)
        else:
            os.environ[env_key] = prior

    def _aggregate(names: List[str]) -> Optional[float]:
        off = sum(
            cells[f"{b}/{scheme}"]["off"]["execute_s"] for b in names
        )
        on = sum(cells[f"{b}/{scheme}"]["on"]["execute_s"] for b in names)
        return (off / on) if on else None

    section: Dict[str, object] = {
        "scale": scale,
        "scheme": scheme,
        "repeats": repeats,
        "benchmarks": benchmarks,
        "cells": cells,
        "aggregate_execute_ratio": _aggregate(benchmarks),
    }
    loop_dominated = [
        b for b in benchmarks if b in LOOP_DOMINATED_BENCHMARKS
    ]
    if loop_dominated:
        section["loop_dominated_benchmarks"] = loop_dominated
        section["loop_dominated_execute_ratio"] = _aggregate(loop_dominated)
    return section


def run_perf(config: Optional[PerfConfig] = None) -> Dict[str, object]:
    """Measure every configured cell (plus the end-to-end figures path)."""
    config = config or PerfConfig()
    repeats = max(1, config.repeats)
    cells: Dict[str, Dict[str, object]] = {}
    for benchmark in config.benchmarks:
        for scheme in config.schemes:
            samples: List[Dict[str, object]] = [
                _time_cell(
                    benchmark, scheme, config.scale, config.hot_threshold
                )
                for _ in range(repeats)
            ]
            best = min(samples, key=lambda s: s["wall_s"])
            walls = [s["wall_s"] for s in samples]
            best.update(_spread(walls))
            # Noise hardening (schema 6): per-phase medians across the
            # repeats replace the single best sample's phases — a GC
            # pause or scheduler hiccup in one repeat no longer moves
            # the gated execute-phase aggregate — and ``spread`` makes
            # the remaining run-to-run variance visible per phase.
            phase_spread: Dict[str, Dict[str, float]] = {}
            medians: Dict[str, float] = {}
            for name in best["phases"]:
                vals = [s["phases"][name] for s in samples]
                med = _median(vals)
                medians[name] = med
                phase_spread[name] = {**_spread(vals), "median_s": med}
            best["phases"] = medians
            best["spread"] = {
                "wall_s": {**_spread(walls), "median_s": _median(walls)},
                "phases": phase_spread,
            }
            best["plans"] = _plan_summary(best["counters"])
            best["translate"] = _translate_summary(best["counters"])
            best["backends"] = _backend_summary(best["counters"])
            cells[f"{benchmark}/{scheme}"] = best

    payload: Dict[str, object] = {
        "bench_schema": BENCH_SCHEMA_VERSION,
        "created_unix": int(time.time()),
        "python": platform.python_version(),
        "config": {
            "benchmarks": list(config.benchmarks),
            "schemes": list(config.schemes),
            "scale": config.scale,
            "hot_threshold": config.hot_threshold,
            "repeats": config.repeats,
        },
        "cells": cells,
        "total_cell_wall_s": sum(c["wall_s"] for c in cells.values()),
    }
    if config.figures_scale is not None:
        fig_best: Optional[Dict[str, float]] = None
        fig_walls: List[float] = []
        for _ in range(repeats):
            sample = time_figures_cold(config.figures_scale)
            fig_walls.append(sample["wall_s"])
            if fig_best is None or sample["wall_s"] < fig_best["wall_s"]:
                fig_best = sample
        fig_best.update(_spread(fig_walls))
        fig_best["repeats"] = repeats
        payload["figures_cold"] = fig_best
    return payload


def attach_baseline(
    payload: Dict[str, object], baseline: Dict[str, object]
) -> None:
    """Embed a previous BENCH payload and compute speedups against it.

    Works against any schema version: schema-1 baselines lack
    ``mean_s``/``std_s``/``plans`` but carry everything the ratios here
    need (``wall_s``, per-cell ``phases``, ``figures_cold``).
    """
    payload["baseline"] = baseline
    speedups: Dict[str, float] = {}
    base_cells = baseline.get("cells", {})
    base_exec = this_exec = 0.0
    base_opt = this_opt = 0.0
    for key, cell in payload.get("cells", {}).items():
        base = base_cells.get(key)
        if base and cell["wall_s"] > 0:
            speedups[key] = base["wall_s"] / cell["wall_s"]
            base_exec += base.get("phases", {}).get("execute", 0.0)
            this_exec += cell.get("phases", {}).get("execute", 0.0)
            base_opt += base.get("phases", {}).get("optimize", 0.0)
            this_opt += cell.get("phases", {}).get("optimize", 0.0)
    summary: Dict[str, object] = {"cells": speedups}
    if base_exec and this_exec:
        # PR3's target metric: aggregate VLIW execute-phase time across
        # all compared cells
        summary["execute_phase"] = base_exec / this_exec
    if base_opt and this_opt:
        # the translation-cache target metric: aggregate optimize-phase
        # (translation) time across all compared cells
        summary["optimize_phase"] = base_opt / this_opt
    base_fig = baseline.get("figures_cold")
    this_fig = payload.get("figures_cold")
    if base_fig and this_fig and this_fig["wall_s"] > 0:
        summary["figures_cold"] = base_fig["wall_s"] / this_fig["wall_s"]
    base_total = baseline.get("total_cell_wall_s")
    this_total = payload.get("total_cell_wall_s")
    if base_total and this_total:
        summary["total_cells"] = base_total / this_total
    payload["speedup"] = summary


def check_regression(
    payload: Dict[str, object], threshold: float
) -> List[str]:
    """Speedup gates below ``threshold``, as printable failures.

    Gates the two aggregate trajectory metrics CI locks: the
    execute-phase speedup and the whole cell sweep. A gate that could
    not be computed (no ``--baseline``, or a baseline with no comparable
    cells) fails closed — a silent skip would read as a pass exactly
    when the comparison is most broken.
    """
    speedup = payload.get("speedup") or {}
    failures: List[str] = []
    for gate in ("execute_phase", "total_cells"):
        value = speedup.get(gate)
        if value is None:
            failures.append(
                f"{gate}: not computed (baseline missing or incomparable)"
            )
        elif value < threshold:
            failures.append(f"{gate}: {value:.2f}x < {threshold:.2f}x")
    return failures


def write_bench(path: str, payload: Dict[str, object]) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def load_bench(path: str) -> Dict[str, object]:
    with open(path) as fh:
        return json.load(fh)


def render_summary(payload: Dict[str, object]) -> str:
    """Human-readable one-screen summary of a BENCH payload."""
    lines = ["Perf harness results", "===================="]
    fig = payload.get("figures_cold")
    if fig:
        spread = (
            f"  (mean {fig['mean_s']:.2f}s ± {fig['std_s']:.2f}s)"
            if "mean_s" in fig
            else ""
        )
        lines.append(
            f"figures cold (scale {fig['scale']}, serial) : "
            f"{fig['wall_s']:.2f}s{spread}"
        )
    lines.append(
        f"cell sweep total                    : "
        f"{payload['total_cell_wall_s']:.2f}s"
    )
    for key in sorted(payload["cells"]):
        cell = payload["cells"][key]
        p = cell["phases"]
        spread = (
            f"  ±{cell['std_s']:.3f}s" if "std_s" in cell else ""
        )
        plans = cell.get("plans")
        plan_note = (
            f", plan hits {plans['hit_rate']:.0%}" if plans else ""
        )
        translate = cell.get("translate")
        tc_note = (
            f", tc hits {translate['hit_rate']:.0%}"
            if translate and (translate["hits"] or translate["misses"])
            else ""
        )
        backends = cell.get("backends")
        be_note = (
            f", vec {backends['vec_share']:.0%}"
            if backends and backends["vec_share"]
            else ""
        )
        if backends and backends.get("batch_share"):
            be_note += f", batch {backends['batch_share']:.0%}"
        lines.append(
            f"  {key:<18} {cell['wall_s']:7.3f}s{spread}  "
            f"(opt {p['optimize']:.3f}s, exec {p['execute']:.3f}s, "
            f"interp {p['interpret_derived']:.3f}s"
            f"{plan_note}{tc_note}{be_note})"
        )
    serve_load = payload.get("serve_load")
    if serve_load:
        cli = serve_load["cli_cold"]
        cold = serve_load["server_cold"]
        warm = serve_load["server_warm"]
        lines.append(
            f"serve: cold CLI                     : "
            f"{cli['throughput_jps']:.2f} jobs/s ({cli['jobs']} procs)"
        )
        lines.append(
            f"serve: cold server (first touch)    : "
            f"{cold['throughput_jps']:.2f} jobs/s "
            f"(p99 {cold['p99_ms']:.0f}ms)"
        )
        lines.append(
            f"serve: warm server                  : "
            f"{warm['throughput_jps']:.2f} jobs/s "
            f"(p99 {warm['p99_ms']:.1f}ms)"
        )
        if "warm_vs_cli" in serve_load:
            lines.append(
                f"serve: warm vs cold CLI             : "
                f"{serve_load['warm_vs_cli']:.1f}x throughput"
            )
    diff = payload.get("batch_differential")
    if diff:
        lines.append(
            f"batch kill-switch differential (scale {diff['scale']}, "
            f"{diff['scheme']}):"
        )
        for key in sorted(diff["cells"]):
            cell = diff["cells"][key]
            share = cell["on"]["backends"].get("batch_share", 0.0)
            lines.append(
                f"  {key:<18} exec {cell['off']['execute_s']:.3f}s off -> "
                f"{cell['on']['execute_s']:.3f}s on  "
                f"({cell.get('execute_ratio', 0.0):.2f}x, "
                f"batch share {share:.0%})"
            )
        agg = diff.get("aggregate_execute_ratio")
        if agg:
            lines.append(f"  aggregate execute   : {agg:.2f}x")
        loop_agg = diff.get("loop_dominated_execute_ratio")
        if loop_agg:
            lines.append(f"  loop-dominated agg  : {loop_agg:.2f}x")
    speedup = payload.get("speedup")
    if speedup:
        lines.append("speedup vs baseline:")
        if "figures_cold" in speedup:
            lines.append(
                f"  figures cold : {speedup['figures_cold']:.2f}x"
            )
        if "execute_phase" in speedup:
            lines.append(
                f"  execute phase: {speedup['execute_phase']:.2f}x"
            )
        if "optimize_phase" in speedup:
            lines.append(
                f"  optimize phase: {speedup['optimize_phase']:.2f}x"
            )
        if "total_cells" in speedup:
            lines.append(
                f"  cell sweep   : {speedup['total_cells']:.2f}x"
            )
    return "\n".join(lines)
