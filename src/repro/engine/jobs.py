"""Job specifications: what one simulation run is, and how it is keyed.

A :class:`JobSpec` names one (benchmark, scheme, configuration) cell.
Specs are plain data so the process-pool executor can ship them to
workers, and :func:`job_fingerprint` content-hashes every field that can
change the resulting report — benchmark, scheme key *and* the scheme's
full parameterization, workload scale, hot threshold, the
``SMARQ_NO_CERTIFY`` kill switch, report schema and repro version — so
the persistent cache never serves a report produced under different
settings.

:func:`execute_job` is the single entry point every executor calls; it is
a module-level function so :mod:`concurrent.futures` can pickle it.
"""

from __future__ import annotations

import dataclasses
import enum
import functools
import hashlib
import json
from dataclasses import dataclass, field
from typing import Dict, Mapping, Optional

from repro.sim.dbt import REPORT_SCHEMA_VERSION, DbtReport
from repro.sim.schemes import SCHEME_NAMES, Scheme


@dataclass
class JobSpec:
    """One (benchmark, scheme) simulation at a given configuration.

    ``scheme`` carries a prebuilt variant :class:`Scheme` for
    experiment-registered configurations; when it is ``None`` the worker
    builds the scheme from ``scheme_key`` (one of the standard names).
    """

    benchmark: str
    scheme_key: str
    scale: float = 0.25
    hot_threshold: int = 20
    scheme: Optional[Scheme] = None

    def validate(self) -> None:
        if self.scheme is None and self.scheme_key not in SCHEME_NAMES:
            raise ValueError(
                f"unknown scheme {self.scheme_key!r}; choose from "
                f"{SCHEME_NAMES} or register a variant Scheme"
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


def _qualname(obj) -> str:
    mod = getattr(obj, "__module__", "")
    name = getattr(obj, "__qualname__", getattr(obj, "__name__", repr(obj)))
    return f"{mod}.{name}"


def canonical_config(obj):
    """JSON-serializable, deterministic form of a config object tree.

    Also the equality oracle :meth:`SuiteRunner.register_variant` uses to
    decide whether a re-registered variant actually changed.
    """
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
    if isinstance(obj, functools.partial):
        return {
            "partial": _qualname(obj.func),
            "args": [canonical_config(a) for a in obj.args],
            "kwargs": canonical_config(obj.keywords),
        }
    if callable(obj):
        return _qualname(obj)
    if obj is None or isinstance(obj, (str, int, float, bool)):
        return obj
    return repr(obj)


def job_fingerprint(spec: JobSpec) -> str:
    """Stable content hash of everything that determines the report.

    ``certify`` is the ``SMARQ_NO_CERTIFY`` kill switch, read from the
    environment like the optimizer reads it: it changes ``smarq-cert``
    reports, so the report cache and the serve memo must not hand a
    kill-switch run the certified report (or the reverse).
    """
    from repro import __version__
    from repro.analysis.certify import certify_enabled

    payload = {
        "repro_version": __version__,
        "report_schema": REPORT_SCHEMA_VERSION,
        "benchmark": spec.benchmark,
        "scheme_key": spec.scheme_key,
        "scheme": canonical_config(spec.scheme) if spec.scheme is not None else None,
        "scale": spec.scale,
        "hot_threshold": spec.hot_threshold,
        "certify": certify_enabled(),
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
        spec.scheme if spec.scheme is not None else spec.scheme_key,
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
