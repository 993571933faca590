"""Fault-injection benchmarks for exercising the daemon's failure paths.

The fault-injection test tier needs real failures inside real jobs —
a pool worker dying mid-job, a job that always errors — without
touching production code paths. These travel the same self-describing
benchmark-name transport the fuzzer uses (the name is the program), so
they flow through :func:`repro.workloads.make_benchmark`, the engine,
and the serve protocol unchanged:

``fault:exit-once:<marker-path>``
    The first resolution (marker file absent) creates the marker and
    kills the *worker process* with ``os._exit`` — the canonical
    "worker crashed mid-job" injection. Resolved in the main process it
    raises instead of exiting, so an in-process retry after the pool
    breaks degrades to an error, never takes the host down. Every later
    resolution (marker present) builds a small real workload, which is
    exactly what the serial-fallback retry sees.
``fault:error:<anything>``
    Always raises ``RuntimeError`` — a deterministic per-job failure
    for structured-error-response tests.

Gated behind ``SMARQ_FAULT_BENCHMARKS=1``: without the opt-in these
names are rejected like any other unknown benchmark, so no production
job mix can trip a fault by accident.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro import knobs

FAULT_PREFIX = "fault:"

#: what the post-crash retry actually simulates (tiny but real)
_FALLBACK_BENCHMARK = "art"
_FALLBACK_SCALE = 0.02


def make_fault_benchmark(name: str, scale: float):
    """Resolve a ``fault:`` benchmark name (see module docstring)."""
    from repro.workloads import make_benchmark

    if knobs.value(knobs.FAULT_BENCHMARKS) != "1":
        raise ValueError(
            f"unknown benchmark {name!r} (fault benchmarks require "
            f"{knobs.FAULT_BENCHMARKS}=1)"
        )
    mode, _, arg = name[len(FAULT_PREFIX):].partition(":")
    if mode == "error":
        raise RuntimeError(f"fault benchmark {name!r} always fails")
    if mode == "exit-once":
        if not arg:
            raise ValueError(f"{name!r} needs a marker path")
        marker = Path(arg)
        if not marker.exists():
            marker.write_text("fired\n")
            if _in_pool_worker():
                os._exit(3)
            raise RuntimeError(
                f"fault benchmark {name!r} fired in-process "
                f"(would have killed a pool worker)"
            )
        return make_benchmark(
            _FALLBACK_BENCHMARK, scale=scale or _FALLBACK_SCALE
        )
    raise ValueError(f"unknown fault benchmark mode {mode!r} in {name!r}")


def _in_pool_worker() -> bool:
    """True when running inside a multiprocessing child process."""
    import multiprocessing

    return multiprocessing.parent_process() is not None
