"""Load generator for the serve daemon: ``python -m repro load``.

Drives a configurable request mix against a live (or freshly spawned)
server from N concurrent client connections and reports what a traffic
dashboard would: per-job latency percentiles (p50/p99), end-to-end
throughput, and the failure count.

Mixes (``--mix``):

``warm``
    Every batch is the same job set — batch 1 is cold, everything after
    exercises the memo/report-cache fast path.
``cold``
    Every batch is a distinct job set (the benchmark x scheme universe,
    then fresh ``hot_threshold`` variants) — all misses, all simulation.
``mixed``
    Alternates cold and repeat batches — the steady-state shape of real
    traffic.

Latency is measured per job from batch submission to that job's result
line arriving; results stream in submission order, so late jobs in a
batch accumulate their predecessors' time exactly as a real streaming
client experiences it.
"""

from __future__ import annotations

import contextlib
import math
import os
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.jobs import JobSpec
from repro.serve.client import ServeClient

MIXES = ("warm", "cold", "mixed")

DEFAULT_BENCHMARKS = ("swim", "art", "equake")
DEFAULT_SCHEMES = ("smarq", "itanium", "none")


@dataclass
class LoadConfig:
    batches: int = 4
    batch_size: int = 6
    clients: int = 2
    mix: str = "mixed"
    scale: float = 0.05
    hot_threshold: int = 20
    benchmarks: Sequence[str] = DEFAULT_BENCHMARKS
    schemes: Sequence[str] = DEFAULT_SCHEMES

    def validate(self) -> None:
        if self.mix not in MIXES:
            raise ValueError(f"unknown mix {self.mix!r}; choose from {MIXES}")
        if self.batches < 1 or self.batch_size < 1 or self.clients < 1:
            raise ValueError("batches, batch_size and clients must be >= 1")


# ----------------------------------------------------------------------
# Job-mix construction (deterministic: same config -> same batches)
# ----------------------------------------------------------------------
def _job_universe(config: LoadConfig) -> Iterator[JobSpec]:
    """Endless stream of distinct job specs for cold batches."""
    threshold = config.hot_threshold
    while True:
        for benchmark in config.benchmarks:
            for scheme in config.schemes:
                yield JobSpec(
                    benchmark=benchmark,
                    scheme_key=scheme,
                    scale=config.scale,
                    hot_threshold=threshold,
                )
        # Universe exhausted: new hot-threshold generation keeps every
        # subsequent job a genuine cache miss.
        threshold += 1


def build_batches(config: LoadConfig) -> List[List[JobSpec]]:
    """The full request mix, one list of specs per batch."""
    config.validate()
    universe = _job_universe(config)
    repeat_batch = [next(universe) for _ in range(config.batch_size)]
    batches: List[List[JobSpec]] = []
    for index in range(config.batches):
        if config.mix == "warm":
            batches.append(list(repeat_batch))
        elif config.mix == "cold":
            batches.append(
                [next(universe) for _ in range(config.batch_size)]
            )
        else:  # mixed: even batches fresh, odd batches repeat the first
            if index % 2 == 0 and index > 0:
                batches.append(
                    [next(universe) for _ in range(config.batch_size)]
                )
            else:
                batches.append(list(repeat_batch))
    return batches


# ----------------------------------------------------------------------
# Percentiles
# ----------------------------------------------------------------------
def percentile(samples: Sequence[float], q: float) -> float:
    """Nearest-rank percentile (q in [0, 1]); 0.0 for no samples."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


# ----------------------------------------------------------------------
# The run itself
# ----------------------------------------------------------------------
def run_load(
    address: Tuple[str, int], config: Optional[LoadConfig] = None
) -> Dict[str, object]:
    """Drive the mix at ``address``; returns the latency/throughput payload."""
    config = config or LoadConfig()
    batches = build_batches(config)
    assignments: List[List[List[JobSpec]]] = [
        batches[i:: config.clients] for i in range(config.clients)
    ]

    latencies_ms: List[float] = []
    failures: List[str] = []
    lock = threading.Lock()

    def client_worker(my_batches: List[List[JobSpec]]) -> None:
        with ServeClient(address, connect_retries=20) as client:
            for batch in my_batches:
                start = time.perf_counter()
                for result in client.submit_iter(batch):
                    arrived = (time.perf_counter() - start) * 1000.0
                    with lock:
                        latencies_ms.append(arrived)
                        if not result.ok:
                            failures.append(result.error)

    threads = [
        threading.Thread(target=client_worker, args=(mine,), daemon=True)
        for mine in assignments
        if mine
    ]
    wall_start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall_s = time.perf_counter() - wall_start

    jobs_total = sum(len(batch) for batch in batches)
    payload: Dict[str, object] = {
        "mix": config.mix,
        "batches": config.batches,
        "batch_size": config.batch_size,
        "clients": config.clients,
        "scale": config.scale,
        "jobs_total": jobs_total,
        "completed": len(latencies_ms),
        "failed": len(failures),
        "failures": failures[:10],
        "wall_s": wall_s,
        "throughput_jps": (len(latencies_ms) / wall_s) if wall_s else 0.0,
        "p50_ms": percentile(latencies_ms, 0.50),
        "p99_ms": percentile(latencies_ms, 0.99),
        "max_ms": max(latencies_ms) if latencies_ms else 0.0,
        "mean_ms": (
            sum(latencies_ms) / len(latencies_ms) if latencies_ms else 0.0
        ),
    }
    with contextlib.suppress(Exception):
        with ServeClient(address) as client:
            payload["server_stats"] = client.stats()
    return payload


def render_load(payload: Dict[str, object]) -> str:
    lines = [
        "Load generator results",
        "======================",
        f"mix                   : {payload['mix']} "
        f"({payload['batches']} batches x {payload['batch_size']} jobs, "
        f"{payload['clients']} clients)",
        f"jobs                  : {payload['completed']} / "
        f"{payload['jobs_total']} completed, {payload['failed']} failed",
        f"wall time             : {payload['wall_s']:.2f}s",
        f"throughput            : {payload['throughput_jps']:.1f} jobs/s",
        f"latency p50 / p99     : {payload['p50_ms']:.1f} / "
        f"{payload['p99_ms']:.1f} ms (max {payload['max_ms']:.1f})",
    ]
    stats = payload.get("server_stats")
    if isinstance(stats, dict):
        jobs = stats.get("jobs", {})
        memo = stats.get("memo", {})
        engine = stats.get("engine", {})
        lines.append(
            f"server                : {jobs.get('dedup_hits', 0)} dedup, "
            f"{memo.get('hits', 0)} memo hits "
            f"({memo.get('evictions', 0)} evictions), "
            f"{engine.get('cache_hits', 0)} report-cache hits, "
            f"{engine.get('simulated_runs', 0)} simulated"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# Spawning a daemon subprocess (CI's serve-smoke, `repro load --spawn`)
# ----------------------------------------------------------------------
@contextlib.contextmanager
def spawned_server(
    jobs: int = 1,
    cache_dir: Optional[Path] = None,
    env_extra: Optional[Dict[str, str]] = None,
):
    """A ``python -m repro serve`` subprocess on an ephemeral port.

    Yields ``(host, port)`` once the daemon prints its ready line;
    drains + shuts it down on exit.
    """
    import repro

    env = os.environ.copy()
    src_root = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = src_root + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    if cache_dir is not None:
        env["REPRO_CACHE_DIR"] = str(cache_dir)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.Popen(
        [
            sys.executable, "-m", "repro", "serve",
            "--port", "0", "--jobs", str(jobs),
        ],
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
        env=env,
    )
    endpoint: Optional[Tuple[str, int]] = None
    try:
        ready = proc.stdout.readline()
        if "listening on" not in ready:
            rest = proc.stdout.read() or ""
            raise RuntimeError(
                f"repro serve failed to start: {ready!r}{rest!r}"
            )
        address = ready.rsplit(" ", 1)[-1].strip()
        host, _, port = address.rpartition(":")
        endpoint = (host or "127.0.0.1", int(port))
        yield endpoint
    finally:
        if endpoint is not None:
            with contextlib.suppress(Exception):
                with ServeClient(endpoint) as client:
                    client.shutdown(drain=True)
        try:
            proc.wait(timeout=10)
        except Exception:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
