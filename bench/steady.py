"""Loop-steady driver: one fresh process running a fixed job set through
the execution engine, serially and with no report cache.

    echo '[["equake", "smarq", 8.0, 20]]' | PYTHONPATH=src python bench/steady.py

The set runs once, starting with every process-wide cache empty. Prints
one JSON line: the import's CPU time, the wall and CPU time from the
first submit to the last report, and a digest per job.
"""

from __future__ import annotations

import hashlib
import json
import sys
import time


def report_digest(report: dict) -> str:
    """sha256 of a ``DbtReport.to_dict()`` in canonical JSON.

    ``report`` must already be in its JSON form (string region keys), so
    a report read off the serve wire and one built in-process digest alike.
    """
    blob = json.dumps(report, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def main() -> int:
    request = json.load(sys.stdin)
    start_cpu = time.process_time()
    from repro.engine import ExecutionEngine, NullCache
    from repro.engine.executor import SerialExecutor
    from repro.engine.jobs import JobSpec

    import_cpu_s = time.process_time() - start_cpu
    specs = [
        JobSpec(benchmark=b, scheme_key=s, scale=scale, hot_threshold=t)
        for b, s, scale, t in request
    ]
    engine = ExecutionEngine(executor=SerialExecutor(), cache=NullCache())
    start, start_cpu = time.perf_counter(), time.process_time()
    results = engine.run_results(specs)
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - start_cpu
    digests = [
        report_digest(json.loads(json.dumps(r.report.to_dict())))
        for r in results
    ]
    print(json.dumps({"import_cpu_s": import_cpu_s, "wall_s": wall_s,
                      "cpu_s": cpu_s, "digests": digests}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
