"""Job specifications: what one simulation run is, and how it is keyed.

A :class:`JobSpec` names one (benchmark, scheme, configuration) cell.
Specs are plain data so the process-pool executor can ship them to
workers, and :func:`job_fingerprint` content-hashes every field that can
change the resulting report — benchmark, scheme name, workload scale,
hot threshold, every keyed knob (:mod:`repro.knobs`), report schema,
repro version and the code itself (:func:`code_digest`, over the running
package's source) — so the persistent cache never serves a report
produced under different settings or by different code.

:func:`execute_job` is the single entry point every executor calls; it is
a module-level function so :mod:`concurrent.futures` can pickle it.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict

from repro import knobs
from repro.sim.dbt import REPORT_SCHEMA_VERSION, DbtReport
from repro.sim.schemes import SCHEME_NAMES


@dataclass
class JobSpec:
    """One (benchmark, scheme) simulation at a given configuration.

    ``scheme_key`` is one of :data:`~repro.sim.schemes.SCHEME_NAMES`;
    the worker builds the scheme from it.
    """

    benchmark: str
    scheme_key: str
    scale: float = 0.25
    hot_threshold: int = 20

    def validate(self) -> None:
        if self.scheme_key not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme_key!r}; choose from "
                f"{SCHEME_NAMES}"
            )


@dataclass
class JobResult:
    """A finished job: the report plus the job's tracer snapshot."""

    fingerprint: str
    report: DbtReport
    counters: Dict[str, int] = field(default_factory=dict)
    timings: Dict[str, float] = field(default_factory=dict)
    from_cache: bool = False


# ----------------------------------------------------------------------
# Fingerprinting


@functools.lru_cache(maxsize=None)
def code_digest() -> str:
    """sha256 over every ``.py`` file of the running ``repro`` package,
    in sorted order of their paths relative to it: each path, the file's
    length and its bytes. A copy of the package elsewhere digests alike;
    an edit to any source file changes the digest. Computed once per
    process, on the first fingerprint rather than at import (the package
    is ~90 files, a few milliseconds to hash)."""
    root = Path(__file__).resolve().parent.parent
    digest = hashlib.sha256()
    paths = sorted(p.relative_to(root).as_posix() for p in root.rglob("*.py"))
    for rel in paths:
        data = (root / rel).read_bytes()
        digest.update(f"{rel}\0{len(data)}\0".encode("utf-8"))
        digest.update(data)
    return digest.hexdigest()


def job_fingerprint(spec: JobSpec) -> str:
    """Stable content hash of everything that determines the report.

    ``knobs`` holds every keyed knob's value, read from the environment
    as the program reads it: a keyed knob may change reports, so the
    report cache and the serve memo must never hand a run under one
    value the report of another. ``code`` keys the sources that made
    the report: ``repro_version`` does not move when the model does.
    """
    from repro import __version__

    payload = {
        "repro_version": __version__,
        "code": code_digest(),
        "report_schema": REPORT_SCHEMA_VERSION,
        "benchmark": spec.benchmark,
        "scheme_key": spec.scheme_key,
        "scale": spec.scale,
        "hot_threshold": spec.hot_threshold,
        "knobs": {
            knob.name: knobs.value(knob.name)
            for knob in knobs.of_role(knobs.KEYED)
        },
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


# ----------------------------------------------------------------------
# Execution


def execute_job(spec: JobSpec) -> JobResult:
    """Run one simulation job with a fresh, private tracer.

    Imports are local so forked pool workers resolve them lazily and the
    module stays cheap to import from the CLI.
    """
    from repro.engine.instrumentation import Tracer
    from repro.frontend.profiler import ProfilerConfig
    from repro.sim.dbt import DbtSystem
    from repro.workloads import make_benchmark

    spec.validate()
    tracer = Tracer()
    program = make_benchmark(spec.benchmark, scale=spec.scale)
    system = DbtSystem(
        program,
        spec.scheme_key,
        profiler_config=ProfilerConfig(hot_threshold=spec.hot_threshold),
        tracer=tracer,
    )
    report = system.run()
    return JobResult(
        fingerprint=job_fingerprint(spec),
        report=report,
        counters=dict(tracer.counters),
        timings=dict(tracer.timings),
    )
