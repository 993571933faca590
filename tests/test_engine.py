"""Tests for the execution engine: executors, cache, instrumentation.

Covers the engine acceptance properties: parallel and serial executors
produce identical reports; a warm persistent cache serves reports with
zero simulations (asserted via the injected tracer counters); corrupted
cache entries degrade to fresh runs; every keyed knob, and the package's
source, is in the job fingerprint.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro import knobs
from repro.engine import (
    ExecutionEngine,
    NullCache,
    ParallelExecutor,
    ReportCache,
    SerialExecutor,
    Tracer,
    execute_job,
    job_fingerprint,
    make_executor,
)
from repro.engine.jobs import JobSpec
from repro.eval.fig16 import NO_STORE_REORDER_KEY
from repro.eval.suite import SuiteConfig, SuiteRunner
from repro.sim.dbt import REPORT_SCHEMA_VERSION, DbtReport
from repro.sim.schemes import make_scheme

SCALE = 0.04
HOT = 12


def _spec(bench="art", key="smarq", **kw):
    return JobSpec(bench, key, scale=SCALE, hot_threshold=HOT, **kw)


class TestExecutors:
    def test_parallel_matches_serial_on_2x2_sweep(self):
        specs = [
            _spec(bench, scheme)
            for bench in ("art", "swim")
            for scheme in ("none", "smarq")
        ]
        serial = SerialExecutor().run([s for s in specs])
        parallel = ParallelExecutor(max_workers=2).run([s for s in specs])
        assert len(serial) == len(parallel) == 4
        for a, b in zip(serial, parallel):
            assert a.fingerprint == b.fingerprint
            assert a.report == b.report

    def test_make_executor_selects_by_job_count(self):
        assert isinstance(make_executor(1), SerialExecutor)
        assert isinstance(make_executor(3), ParallelExecutor)

    def test_invalid_spec_raises_everywhere(self):
        with pytest.raises(ValueError):
            SerialExecutor().run([_spec("art", "bogus")])
        with pytest.raises(ValueError):
            ExecutionEngine().run([_spec("art", "bogus")])


class TestReportCache:
    def test_warm_cache_skips_simulation(self, tmp_path):
        spec = _spec()
        cold = ExecutionEngine(cache=ReportCache(root=tmp_path))
        first = cold.run_one(spec)
        assert cold.stats.simulated_runs == 1
        assert cold.stats.counters["dbt.runs"] == 1

        tracer = Tracer()
        warm = ExecutionEngine(
            cache=ReportCache(root=tmp_path), tracer=tracer
        )
        second = warm.run_one(spec)
        assert second == first
        assert warm.stats.cache_hits == 1
        assert warm.stats.simulated_runs == 0
        # The injected counter proves no DbtSystem.run happened.
        assert tracer.counters.get("dbt.runs", 0) == 0

    def test_corrupted_cache_entry_falls_back_to_fresh_run(self, tmp_path):
        spec = _spec()
        cache = ReportCache(root=tmp_path)
        engine = ExecutionEngine(cache=cache)
        first = engine.run_one(spec)

        entry = tmp_path / f"{job_fingerprint(spec)}.json"
        assert entry.exists()
        entry.write_text("{ this is not json")

        fresh_engine = ExecutionEngine(cache=ReportCache(root=tmp_path))
        again = fresh_engine.run_one(spec)
        assert again == first
        assert fresh_engine.stats.simulated_runs == 1
        # The bad entry was replaced with a valid one.
        assert json.loads(entry.read_text())["report"]["scheme"] == "smarq"

    def test_unwritable_cache_root_degrades_to_uncached(self, tmp_path, capsys):
        spec = _spec()
        cache = ReportCache(root=tmp_path / "missing" / "nested")
        (tmp_path / "missing").write_text("a file, not a directory")
        engine = ExecutionEngine(cache=cache)
        result = engine.run_one(spec)
        assert result.scheme == "smarq"
        assert engine.stats.simulated_runs == 1
        assert "continuing without persistence" in capsys.readouterr().err
        # A second put must not warn again.
        engine.run_one(_spec(bench="mesa"))
        assert "continuing" not in capsys.readouterr().err

    def test_schema_mismatch_treated_as_miss(self, tmp_path):
        spec = _spec()
        cache = ReportCache(root=tmp_path)
        ExecutionEngine(cache=cache).run_one(spec)
        entry = tmp_path / f"{job_fingerprint(spec)}.json"
        payload = json.loads(entry.read_text())
        payload["report"]["schema_version"] = REPORT_SCHEMA_VERSION + 1
        entry.write_text(json.dumps(payload))

        fresh = ExecutionEngine(cache=ReportCache(root=tmp_path))
        fresh.run_one(spec)
        assert fresh.stats.cache_misses == 1

    def test_null_cache_never_hits(self):
        engine = ExecutionEngine(cache=NullCache())
        engine.run_one(_spec())
        engine.run_one(_spec())
        assert engine.stats.cache_hits == 0
        assert engine.stats.simulated_runs == 2


class TestFingerprint:
    def test_differs_by_configuration(self):
        base = job_fingerprint(_spec())
        assert job_fingerprint(_spec("art", "none")) != base
        other_scale = JobSpec("art", "smarq", scale=0.9, hot_threshold=HOT)
        assert job_fingerprint(other_scale) != base
        other_hot = JobSpec("art", "smarq", scale=SCALE, hot_threshold=99)
        assert job_fingerprint(other_hot) != base

    def test_variant_parameters_hashed(self):
        """The store-reorder variant differs from smarq only in one
        optimizer parameter, and still gets its own key."""
        base = make_scheme("smarq")
        variant = make_scheme(NO_STORE_REORDER_KEY)
        assert variant.machine == base.machine
        assert variant.optimizer_config != base.optimizer_config
        fa = job_fingerprint(_spec("art", "smarq"))
        fb = job_fingerprint(_spec("art", NO_STORE_REORDER_KEY))
        assert fa != fb

    @pytest.mark.parametrize(
        "knob", knobs.of_role(knobs.KEYED), ids=lambda knob: knob.name
    )
    def test_every_keyed_knob_value_is_keyed(self, knob, monkeypatch):
        """Each value of a keyed knob gives the same job its own key."""
        fingerprints = set()
        for value in knob.values:
            monkeypatch.setenv(knob.name, value)
            fingerprints.add(job_fingerprint(_spec()))
        assert len(fingerprints) == len(knob.values)

    def test_stable_across_calls(self):
        assert job_fingerprint(_spec()) == job_fingerprint(_spec())

    def test_package_copy_with_an_edited_constant_is_keyed(self, tmp_path):
        """The fingerprint keys the code: a verbatim copy of the package
        run from elsewhere gets this process's fingerprint, and a copy
        with one edited model constant gets another, so a cache filled
        before the edit misses after it."""
        package = Path(repro.__file__).resolve().parent
        spec = f"JobSpec('art', 'smarq', scale={SCALE}, hot_threshold={HOT})"

        def fingerprint_from(copy: Path) -> str:
            done = subprocess.run(
                [
                    sys.executable, "-c",
                    "from repro.engine.jobs import JobSpec, job_fingerprint; "
                    f"print(job_fingerprint({spec}))",
                ],
                env={**os.environ, "PYTHONPATH": str(copy)},
                capture_output=True, text=True, check=True, timeout=60,
            )
            return done.stdout.strip()

        for name in ("verbatim", "edited"):
            shutil.copytree(
                package, tmp_path / name / "repro",
                ignore=shutil.ignore_patterns("__pycache__"),
            )
        machine = tmp_path / "edited" / "repro" / "sched" / "machine.py"
        source = machine.read_text(encoding="utf-8")
        edited = source.replace(
            "rollback_penalty: int = 200", "rollback_penalty: int = 2000"
        )
        assert edited != source
        machine.write_text(edited, encoding="utf-8")

        here = job_fingerprint(_spec())
        assert fingerprint_from(tmp_path / "verbatim") == here
        assert fingerprint_from(tmp_path / "edited") != here

    def test_certify_kill_switch_is_keyed(self, tmp_path, monkeypatch):
        """``SMARQ_NO_CERTIFY=1`` changes smarq-cert reports, so a warm
        report cache holding the certified report must miss for a
        kill-switch run and return what a fresh kill-switch run does."""
        spec = _spec("pwalk", "smarq-cert")
        monkeypatch.delenv("SMARQ_NO_CERTIFY", raising=False)
        certified = ExecutionEngine(cache=ReportCache(root=tmp_path)).run_one(
            spec
        )
        monkeypatch.setenv("SMARQ_NO_CERTIFY", "1")
        engine = ExecutionEngine(cache=ReportCache(root=tmp_path))
        killed = engine.run_one(spec)
        assert engine.stats.cache_hits == 0
        fresh = ExecutionEngine(cache=NullCache()).run_one(spec)
        assert killed.to_dict() == fresh.to_dict()
        assert killed.to_dict() != certified.to_dict()
        # and the certified entry still serves certified runs
        monkeypatch.delenv("SMARQ_NO_CERTIFY")
        engine = ExecutionEngine(cache=ReportCache(root=tmp_path))
        assert engine.run_one(spec).to_dict() == certified.to_dict()
        assert engine.stats.cache_hits == 1


class TestReportRoundTrip:
    def test_json_round_trip_equality(self):
        report = execute_job(_spec()).report
        assert report.region_stats  # non-trivial payload
        payload = json.loads(json.dumps(report.to_dict()))
        assert payload["schema_version"] == REPORT_SCHEMA_VERSION
        restored = DbtReport.from_dict(payload)
        assert restored == report
        # Region keys come back as ints, not JSON strings.
        assert all(isinstance(pc, int) for pc in restored.region_stats)

    def test_bad_schema_rejected(self):
        report = execute_job(_spec()).report
        payload = report.to_dict()
        payload["schema_version"] = 999
        with pytest.raises(ValueError):
            DbtReport.from_dict(payload)

    def test_malformed_payload_rejected(self):
        with pytest.raises(ValueError):
            DbtReport.from_dict({"schema_version": REPORT_SCHEMA_VERSION})


class TestSuiteRunnerOnEngine:
    def _runner(self, **engine_kwargs):
        return SuiteRunner(
            SuiteConfig(benchmarks=["art"], scale=SCALE, hot_threshold=HOT),
            engine=ExecutionEngine(**engine_kwargs),
        )

    def test_prefetch_fills_memo_in_one_batch(self):
        runner = self._runner()
        runner.prefetch(["none", "smarq"])
        assert runner.engine.stats.jobs == 2
        runner.report("art", "none")
        runner.report("art", "smarq")
        assert runner.engine.stats.jobs == 2  # no extra engine calls

    def test_suite_runner_serves_hits_across_instances(self, tmp_path):
        cold = self._runner(cache=ReportCache(root=tmp_path))
        cold.report("art", "smarq")
        tracer = Tracer()
        warm = self._runner(
            cache=ReportCache(root=tmp_path), tracer=tracer
        )
        warm.report("art", "smarq")
        assert warm.engine.stats.cache_hits == 1
        assert tracer.counters.get("dbt.runs", 0) == 0
