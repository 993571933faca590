"""Executors: strategies for running a batch of simulation jobs.

Every executor honors the same contract: given a sequence of
:class:`~repro.engine.jobs.JobSpec`, return the matching
:class:`~repro.engine.jobs.JobResult` list *in input order* — parallel
execution must be observationally identical to serial execution apart
from wall time.

:class:`ParallelExecutor` fans jobs across a
:class:`concurrent.futures.ProcessPoolExecutor`. Any job a worker cannot
finish (crashed worker, broken pool) falls back to in-process serial
execution, so a parallel run can degrade but never fail where a serial
run would have succeeded.
"""

from __future__ import annotations

import os
from typing import List, Optional, Sequence

from repro.engine.jobs import JobResult, JobSpec, execute_job


class Executor:
    """Strategy interface for running job batches."""

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        raise NotImplementedError

    @property
    def fallbacks(self) -> int:
        """Jobs that had to fall back to serial execution (0 for serial)."""
        return 0


class SerialExecutor(Executor):
    """Runs every job in-process, in order (the original behavior)."""

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        return [execute_job(spec) for spec in specs]


class ParallelExecutor(Executor):
    """Fans jobs across worker processes; falls back per job on failure.

    With ``keep_alive=True`` the worker pool outlives individual ``run``
    calls: long-running hosts (the ``repro serve`` daemon) pay the pool
    spin-up cost once instead of per batch. A pool broken by a dying
    worker is discarded and lazily rebuilt on the next batch, so one
    crashed job never takes the host down with it.
    """

    def __init__(
        self, max_workers: Optional[int] = None, keep_alive: bool = False
    ) -> None:
        self.max_workers = max(1, max_workers or os.cpu_count() or 1)
        self.keep_alive = keep_alive
        self._pool = None
        self._fallbacks = 0

    @property
    def fallbacks(self) -> int:
        return self._fallbacks

    def _acquire_pool(self):
        import concurrent.futures as cf

        if not self.keep_alive:
            return cf.ProcessPoolExecutor(max_workers=self.max_workers)
        if self._pool is None:
            self._pool = cf.ProcessPoolExecutor(max_workers=self.max_workers)
        return self._pool

    def _release_pool(self, pool, broken: bool) -> None:
        if broken or not self.keep_alive:
            try:
                pool.shutdown(wait=not broken)
            except Exception:
                pass
            if pool is self._pool:
                self._pool = None

    def close(self) -> None:
        """Shut the persistent pool down (no-op without keep_alive)."""
        if self._pool is not None:
            self._pool.shutdown(wait=False)
            self._pool = None

    def run(self, specs: Sequence[JobSpec]) -> List[JobResult]:
        import concurrent.futures as cf

        specs = list(specs)
        if len(specs) <= 1 or self.max_workers == 1:
            return SerialExecutor().run(specs)

        results: List[Optional[JobResult]] = [None] * len(specs)
        pending: List[int] = []
        pool = self._acquire_pool()
        broken = False
        try:
            futures = {}
            for i, spec in enumerate(specs):
                try:
                    futures[pool.submit(execute_job, spec)] = i
                except Exception:
                    pending.append(i)
            for future, i in futures.items():
                try:
                    results[i] = future.result()
                except ValueError:
                    raise  # bad spec fails identically in a worker
                except cf.process.BrokenProcessPool:
                    broken = True
                    pending.append(i)
                except Exception:
                    # Killed worker, broken pool: redo this job in-process.
                    pending.append(i)
        except cf.process.BrokenProcessPool:
            broken = True
            pending.extend(
                i for i, r in enumerate(results)
                if r is None and i not in pending
            )
        finally:
            self._release_pool(pool, broken)

        for i in sorted(set(pending)):
            results[i] = execute_job(specs[i])
            self._fallbacks += 1
        return [r for r in results if r is not None]


def make_executor(jobs: int = 1) -> Executor:
    """Serial for ``jobs <= 1``, a process pool of ``jobs`` otherwise."""
    if jobs <= 1:
        return SerialExecutor()
    return ParallelExecutor(max_workers=jobs)
