"""Same-box benchmark of the SMARQ reproduction: cold ``figures``, steady
replay, and the warm ``serve`` daemon, with a layer ledger.

    python bench/run.py --seed 0 --out OUT.json
    python bench/run.py --workload figures --seed 3 --seconds 40 --trace 0
    python bench/run.py --regen-expected

Without ``--workload`` every workload runs: untraced samples give the
end-to-end metrics, then one traced sample (the same commands under
``bench/trace.py``) gives the per-layer metrics. With ``--workload`` one
workload runs, untraced (``--trace 0``, end-to-end metrics) or untraced
then traced (``--trace 1``, per-layer metrics). The last line of stdout
is always one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics``.

Every timed process starts fresh, with an empty private cache directory
and an environment scrubbed of ``SMARQ_*``, ``REPRO_*`` and ``PYTHON*``
variables. Outputs are checked against ``bench/expected/`` after each
timed window closes; a mismatch, a missing result or a non-zero exit
counts as a failed operation and makes the exit status 1.

The timed process runs pinned to one core, beside a thread that times a
fixed reference burst on that core (``CoreSpeed``). A shared host changes
a core's speed from second to second, and a sample's CPU time with it;
the end-to-end times are CPU times scaled by the burst's speed during the
sample, so they read as CPU seconds on a core of one fixed speed.

Metric names, units and bounds live in ``BENCHMARK.json`` at the root of
the checkout; ``bench/README.md`` explains each workload and metric.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import json
import math
import os
import platform
import random
import shutil
import socket
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from steady import report_digest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
SRC = ROOT / "src"
MANIFEST = ROOT / "BENCHMARK.json"
EXPECTED = BENCH / "expected"
WORK = ROOT / ".bench_work"
PYTHON = sys.executable

WORKLOADS = ("figures", "loop-steady", "serve-mixed")

HOT_THRESHOLD = 20

STEADY_BENCHMARKS = ("equake", "pwalk", "pchase", "swim", "art")
STEADY_SCHEMES = ("smarq", "itanium", "none")
STEADY_SCALE = 8.0

SERVE_BENCHMARKS = ("swim", "art", "equake", "mesa", "ammp", "pwalk", "pchase")
SERVE_SCHEMES = ("smarq", "smarq-cert", "itanium", "none")
SERVE_SCALE = 0.25
#: one stream per daemon; a run takes several daemons, so that its median
#: rests on more than one or two cold passes
SERVE_BATCHES = 30
SERVE_BATCH_SIZE = 6
SERVE_CLIENTS = 2
#: the warm pass takes a fraction of a second, so it is repeated
SERVE_WARM_PASSES = 5

#: metrics reported beside the end-to-end ones, on the console, in
#: ``--out`` and by compare.py, which judges them like the rest. They are
#: wall times, which carry the shared host's drift, so BENCHMARK.json
#: gates their CPU-time counterparts instead; and some exist on some
#: workloads only (warm_s: figures and serve-mixed; serve_*: serve-mixed).
EXTRA_METRICS = {
    "wall_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "warm_s": {"unit": "s", "better": "lower", "bound": 0.25},
    "serve_jps": {"unit": "jobs/s", "better": "higher", "bound": 0.25},
    "serve_p50_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
    "serve_p99_ms": {"unit": "ms", "better": "lower", "bound": 0.25},
}

#: fresh ``import repro.cli`` processes timed per figures sample, so the
#: set-up readings spread over the run like the other samples
FIGURES_SETUP_REPEATS = 2
#: warm ``figures`` runs after each cold one
FIGURES_WARM_REPEATS = 1

#: ceiling on any one child process, far above its normal run time
CHILD_TIMEOUT_S = 170.0

#: the reference burst: REF_LOOPS turns of a fixed pure-Python loop, run
#: every REF_PERIOD_S on the measured core
REF_LOOPS = 20000
REF_PERIOD_S = 0.04
#: the burst's nominal CPU time; a normalized time is the CPU time the
#: sample would take on a core that runs the burst in exactly this long
REF_NOMINAL_S = 0.002
#: bursts a sample is normalized by, at least: a sample shorter than
#: that many periods borrows the bursts nearest to it
REF_MIN_BURSTS = 9

#: per-layer metric -> (end-to-end metric@workload it should move,
#: end-to-end metric@workload it should not move); "all" is every pair
MOVES: Dict[str, Tuple[List[str], List[str]]] = {
    "process.startup_s": (
        ["setup_s@figures", "setup_s@serve-mixed"], [],
    ),
    "process.import_s": (
        ["setup_s@figures", "warm_s@figures", "setup_s@loop-steady",
         "setup_s@serve-mixed"], [],
    ),
    "process.teardown_s": (["cold_s@figures", "warm_s@figures"], []),
    "workloads.build_s": (
        ["cold_s@figures", "cold_s@serve-mixed"], ["cold_s@loop-steady"],
    ),
    "workloads.builds": (
        ["cold_s@figures", "cold_s@serve-mixed"], ["cold_s@loop-steady"],
    ),
    "frontend.interpret_s": (
        ["cold_s@figures", "cold_s@serve-mixed"], ["cold_s@loop-steady"],
    ),
    "frontend.recover_s": (["cold_s@figures"], []),
    "frontend.form_s": (["cold_s@figures"], []),
    "frontend.regions_formed": (["cold_s@figures"], []),
    "opt.optimize_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "opt.optimize_calls": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "opt.tc_store_s": (["cold_s@figures"], []),
    "opt.tc_get_s": (["cold_s@serve-mixed"], []),
    "opt.tc_hit_rate": (["cold_s@serve-mixed"], []),
    "opt.stage_hit_rate": (["cold_s@figures", "cold_s@serve-mixed"], []),
    "analysis.deps_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "analysis.certify_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sched.ddg_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sched.schedule_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "smarq.alloc_s": (["cold_s@figures"], []),
    "sim.codegen_s": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sim.codegen_calls": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sim.codegen_py_calls": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sim.codegen_vec_calls": (["cold_s@figures"], ["cold_s@loop-steady"]),
    "sim.codegen_batch_calls": (
        ["cold_s@figures"], ["cold_s@loop-steady"],
    ),
    "sim.execute_s": (["cold_s@loop-steady"], []),
    "sim.execute_calls": (["cold_s@loop-steady"], []),
    "sim.batch_share": (["cold_s@loop-steady"], []),
    "sim.plan_hit_rate": (["cold_s@loop-steady"], []),
    "sim.replay_cache_hits": (["cold_s@loop-steady"], []),
    "sim.vec_fallbacks": (["cold_s@loop-steady"], []),
    "sim.batch_trims": (["cold_s@loop-steady"], []),
    "model.total_cycles": ([], ["all"]),
    "model.alias_exceptions": ([], ["all"]),
    "engine.run_s": (["cold_s@figures", "cold_s@serve-mixed"], []),
    "engine.cache_put_s": (["cold_s@figures"], []),
    "engine.cache_get_s": (["warm_s@figures"], []),
    "engine.cache_hit_rate": (["warm_s@figures"], []),
    "eval.figures_s": (["cold_s@figures", "warm_s@figures"], []),
    "serve.idle_s": (["cold_s@serve-mixed", "warm_s@serve-mixed"], []),
    "serve.wire_s": (["cold_s@serve-mixed", "warm_s@serve-mixed"], []),
    "serve.memo_hit_rate": (["cold_s@serve-mixed"], []),
    "serve.memo_evictions": (["cold_s@serve-mixed"], []),
    "serve.dedup_hits": (["cold_s@serve-mixed"], []),
    "ledger.traced_wall_s": ([], ["all"]),
    "ledger.unattributed_s": ([], ["all"]),
    "ledger.unattributed_frac": ([], ["all"]),
    "ledger.trace_overhead_frac": ([], ["all"]),
}

#: trace.py layer -> per-layer metric holding its self time
_SELF_TIME = {
    layer: f"{layer}_s"
    for layer in (
        "workloads.build", "frontend.interpret", "frontend.recover",
        "frontend.form", "opt.optimize", "opt.tc_get", "opt.tc_store",
        "analysis.deps", "analysis.certify", "sched.ddg", "sched.schedule",
        "sim.codegen", "sim.execute", "engine.run", "engine.cache_get",
        "engine.cache_put", "eval.figures", "serve.idle", "serve.wire",
    )
}
_LAYER_CALLS = {
    "workloads.build": "workloads.builds",
    "frontend.form": "frontend.regions_formed",
    "opt.optimize": "opt.optimize_calls",
    "sim.codegen": "sim.codegen_calls",
    "sim.execute": "sim.execute_calls",
}
_STAGES = ("elim", "deps", "ddg", "prep", "certify")
_DISPATCH_THREAD = "repro-serve-dispatch"


# ----------------------------------------------------------------------
# Inputs: every workload's jobs are a function of the seed alone
# ----------------------------------------------------------------------
def steady_cells(seed: int) -> List[Tuple[str, str]]:
    """The 15 loop-steady cells, in the seed's order. The process-wide
    caches make order an input, so the seed shuffles it."""
    cells = [(b, s) for b in STEADY_BENCHMARKS for s in STEADY_SCHEMES]
    random.Random(seed).shuffle(cells)
    return cells


def serve_axes(seed: int) -> Tuple[List[str], List[str]]:
    """The serve universe's benchmark and scheme orders for ``seed``."""
    rng = random.Random(seed)
    benchmarks = list(SERVE_BENCHMARKS)
    schemes = list(SERVE_SCHEMES)
    rng.shuffle(benchmarks)
    rng.shuffle(schemes)
    return benchmarks, schemes


def serve_batches(seed: int) -> List[List[Tuple[str, str, int]]]:
    """The serve-mixed request stream: (benchmark, scheme, threshold) jobs.

    The rule of ``repro.serve.loadgen.build_batches`` for mix ``mixed``:
    even batches after the first are fresh jobs from the benchmark x
    scheme universe, taken in order and bumping the hot threshold each
    time the universe runs out; the rest repeat the first batch. The seed
    shuffles both axes of the universe first. The rule is restated here,
    not imported, so that a change to the program cannot change the
    workload.
    """
    benchmarks, schemes = serve_axes(seed)

    def universe() -> Iterator[Tuple[str, str, int]]:
        threshold = HOT_THRESHOLD
        while True:
            for benchmark in benchmarks:
                for scheme in schemes:
                    yield benchmark, scheme, threshold
            threshold += 1

    jobs = universe()
    repeat = [next(jobs) for _ in range(SERVE_BATCH_SIZE)]
    return [
        [next(jobs) for _ in range(SERVE_BATCH_SIZE)]
        if index % 2 == 0 and index > 0
        else list(repeat)
        for index in range(SERVE_BATCHES)
    ]


def serve_spec_universe() -> List[Tuple[str, str, int]]:
    """Every job serve-mixed can emit under any seed."""
    distinct = SERVE_BATCH_SIZE * (1 + (SERVE_BATCHES - 1) // 2)
    pairs = len(SERVE_BENCHMARKS) * len(SERVE_SCHEMES)
    generations = math.ceil(distinct / pairs)
    return [
        (b, s, HOT_THRESHOLD + g)
        for g in range(generations)
        for b in SERVE_BENCHMARKS
        for s in SERVE_SCHEMES
    ]


def job_key(*fields) -> str:
    return "/".join(str(f) for f in fields)


# ----------------------------------------------------------------------
# Child processes
# ----------------------------------------------------------------------
def child_env(**extra: str) -> Dict[str, str]:
    """The parent's environment minus every knob the program or Python
    reads, plus the checkout's ``src`` and private temp/cache paths."""
    env = {
        k: v
        for k, v in os.environ.items()
        if not k.startswith(("SMARQ_", "REPRO_", "PYTHON"))
    }
    env.update(
        PYTHONPATH=str(SRC),
        PYTHONIOENCODING="utf-8",
        TMPDIR=str(WORK / "tmp"),
        REPRO_CACHE_DIR=str(WORK / "cache"),
    )
    env.update(extra)
    return env


def fresh_dir(name: str) -> Path:
    path = WORK / name
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    return path


class Proc:
    """A finished child: spawn time (``time.perf_counter``), wall time,
    reap time (epoch seconds), CPU time, peak RSS, exit code and output."""

    def __init__(self, start: float, wall_s: float, end_epoch: float,
                 cpu_s: float, rss_mb: float, code: int, stdout: bytes,
                 stderr: bytes) -> None:
        self.start = start
        self.wall_s = wall_s
        self.end_epoch = end_epoch
        self.cpu_s = cpu_s
        self.rss_mb = rss_mb
        self.code = code
        self.stdout = stdout
        self.stderr = stderr

    def describe(self) -> str:
        tail = self.stderr.decode("utf-8", "replace").strip()[-300:]
        return f"exit {self.code}: {tail}"


def _reap(proc: subprocess.Popen, timeout: float):
    """``os.wait4`` the child (for its rusage), killing it past ``timeout``."""
    timer = threading.Timer(timeout, proc.kill)
    timer.start()
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return usage


def run_child(argv: Sequence[str], env: Dict[str, str],
              stdin: bytes = b"") -> Proc:
    """Run ``argv`` from the checkout root; time it from spawn to reap."""
    with tempfile.TemporaryFile(dir=WORK) as fin, \
            tempfile.TemporaryFile(dir=WORK) as fout, \
            tempfile.TemporaryFile(dir=WORK) as ferr:
        fin.write(stdin)
        fin.seek(0)
        start = time.perf_counter()
        proc = subprocess.Popen(
            list(argv), stdin=fin, stdout=fout, stderr=ferr, env=env,
            cwd=ROOT,
        )
        usage = _reap(proc, CHILD_TIMEOUT_S)
        wall_s = time.perf_counter() - start
        end_epoch = time.time()
        fout.seek(0)
        ferr.seek(0)
        return Proc(start, wall_s, end_epoch,
                    usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss / 1024.0, proc.returncode, fout.read(),
                    ferr.read())


def process_cpu_s(pid: int) -> float:
    """CPU time so far of a live process, all its threads, from /proc."""
    stat = Path(f"/proc/{pid}/stat").read_text()
    fields = stat.rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def reference_burst() -> int:
    total = 0
    for i in range(REF_LOOPS):
        total += i * i % 7
    return total


class CoreSpeed:
    """The speed of the measured core, sampled while samples run.

    A thread pinned to the core the timed child runs on runs the
    reference burst every ``REF_PERIOD_S`` and records the burst's thread
    CPU time, which leaves out time the thread was not running. Another
    tenant on the host slows the burst as much as the child, so a
    sample's CPU time times ``REF_NOMINAL_S`` over the burst's median
    during the sample is its CPU time on a core of one fixed speed.
    """

    def __init__(self) -> None:
        self._bursts: List[Tuple[float, float]] = []
        self._stop = threading.Event()
        self._thread = threading.Thread(target=self._sample,
                                        name="core-speed", daemon=True)

    def __enter__(self) -> "CoreSpeed":
        self._thread.start()
        while len(self._bursts) < REF_MIN_BURSTS and self._thread.is_alive():
            time.sleep(REF_PERIOD_S)
        return self

    def __exit__(self, *exc_info) -> None:
        self._stop.set()
        self._thread.join()

    def _sample(self) -> None:
        while not self._stop.wait(REF_PERIOD_S):
            began, cpu = time.perf_counter(), time.thread_time()
            reference_burst()
            self._bursts.append((began, time.thread_time() - cpu))

    def burst_s(self, begin: float, end: float) -> float:
        """The burst's median CPU time over [begin, end] (perf_counter
        seconds), or over the ``REF_MIN_BURSTS`` bursts nearest to it."""
        bursts = list(self._bursts)
        inside = [cpu for at, cpu in bursts if begin <= at <= end]
        if len(inside) < REF_MIN_BURSTS:
            middle = (begin + end) / 2.0
            nearest = sorted(bursts, key=lambda b: abs(b[0] - middle))
            inside = [cpu for _at, cpu in nearest[:REF_MIN_BURSTS]]
        return statistics.median(inside)

    def normalize(self, cpu_s: float, begin: float, end: float) -> float:
        """``cpu_s``, spent over [begin, end], on the nominal core."""
        return cpu_s * REF_NOMINAL_S / self.burst_s(begin, end)

    def median_ms(self) -> float:
        return statistics.median(cpu for _at, cpu in self._bursts) * 1000.0


def pin(cpus: Optional[set]) -> None:
    """Pin the calling thread (and what it spawns later) to ``cpus``."""
    if cpus:
        with contextlib.suppress(OSError):
            os.sched_setaffinity(0, cpus)


def split_cores() -> Tuple[Optional[set], Optional[set]]:
    """(the measured core, the others): the timed child and the burst
    share the first; serve-mixed's clients run on the others."""
    with contextlib.suppress(AttributeError, OSError):
        cpus = sorted(os.sched_getaffinity(0))
        return {cpus[0]}, set(cpus[1:]) or {cpus[0]}
    return None, None


MEASURED_CORE, CLIENT_CORES = split_cores()


def traced(argv: Sequence[str], ledger: Path) -> List[str]:
    """``argv`` (a ``python ...`` command) run under the layer launcher."""
    return [PYTHON, str(BENCH / "trace.py"), "--ledger", str(ledger),
            "--t0", repr(time.time()), "--"] + list(argv[1:])


def process_ledger(path: Path, proc: Proc) -> dict:
    """A traced process's ledger plus what only the parent saw: the wall
    time from spawn to reap, and the teardown after the ledger's write."""
    ledger = json.loads(path.read_text())
    return dict(ledger, wall_s=proc.wall_s,
                teardown_s=max(0.0, proc.end_epoch - ledger["epoch_end"]))


# ----------------------------------------------------------------------
# Results
# ----------------------------------------------------------------------
def summarize(values: Sequence[float]) -> Dict[str, object]:
    """Median, quartiles, count and every raw sample."""
    values = list(values)
    median = statistics.median(values)
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = median
    return {"value": median, "q1": q1, "q3": q3, "n": len(values),
            "samples": values}


class Result:
    """One workload run: samples, failures and (when traced) layers."""

    def __init__(self) -> None:
        self.samples: Dict[str, List[float]] = {}
        self.attempted = 0
        self.failures: List[str] = []
        self.layers: Dict[str, float] = {}
        #: the reference burst's median over the run, in ms
        self.ref_ms: Optional[float] = None

    def add(self, metric: str, value: float) -> None:
        self.samples.setdefault(metric, []).append(value)

    def check(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failures.append(what)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def median(self, metric: str) -> float:
        return statistics.median(self.samples[metric])


def trace_overhead(result: Result,
                   traced: Dict[str, float]) -> Optional[float]:
    """The traced times' sum over the sum of the same metrics' untraced
    medians, minus 1; None when no untraced sample succeeded."""
    if not all(metric in result.samples for metric in traced):
        return None
    untraced = sum(result.median(metric) for metric in traced)
    return sum(traced.values()) / untraced - 1.0


def timed_loop(seconds: float, sample: Callable[[], None]) -> None:
    """Take samples until another would overrun ``seconds`` (at least one)."""
    start = time.perf_counter()
    durations: List[float] = []
    while not durations or (
        time.perf_counter() - start + statistics.median(durations) <= seconds
    ):
        began = time.perf_counter()
        sample()
        durations.append(time.perf_counter() - began)


def expected_digests(workload: str) -> Dict[str, str]:
    """Job key -> report digest, from ``bench/expected/``."""
    return json.loads(
        (EXPECTED / f"{workload}.json").read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# Workload: figures
# ----------------------------------------------------------------------
FIGURES_ARGV = [PYTHON, "-m", "repro", "figures"]


def run_figures(seed: int, seconds: float, setup: bool,
                trace: bool) -> Result:
    """A cold ``repro figures`` on a fresh cache, then warm ones on it.

    The seed is unused: the output is the paper's figures.
    """
    del seed
    result = Result()
    expected = (EXPECTED / "figures.txt").read_bytes()
    outputs: List[Tuple[str, Proc]] = []

    def sample(speed: CoreSpeed) -> None:
        for _ in range(FIGURES_SETUP_REPEATS if setup else 0):
            proc = run_child([PYTHON, "-c", "import repro.cli"], child_env())
            result.check(proc.code == 0, f"import repro.cli: {proc.describe()}")
            result.add("setup_s", speed.normalize(
                proc.cpu_s, proc.start, proc.start + proc.wall_s))
        env = child_env(REPRO_CACHE_DIR=str(fresh_dir("figures-cache")))
        cold = run_child(FIGURES_ARGV, env)
        result.add("cold_s", speed.normalize(
            cold.cpu_s, cold.start, cold.start + cold.wall_s))
        result.add("wall_s", cold.wall_s)
        result.add("peak_rss_mb", cold.rss_mb)
        outputs.append(("cold", cold))
        for _ in range(FIGURES_WARM_REPEATS):
            warm = run_child(FIGURES_ARGV, env)
            result.add("warm_s", warm.wall_s)
            outputs.append(("warm", warm))

    # The burst keeps running through the traced sample, so that traced
    # and untraced wall times share the core alike.
    with CoreSpeed() as speed:
        timed_loop(seconds, lambda: sample(speed))
        if trace:
            env = child_env(REPRO_CACHE_DIR=str(fresh_dir("figures-cache")))
            procs, ledgers = [], []
            for which in ("cold", "warm"):
                ledger = WORK / f"ledger-figures-{which}.json"
                proc = run_child(traced(FIGURES_ARGV, ledger), env)
                outputs.append((f"traced {which}", proc))
                procs.append(proc)
                if proc.code == 0:
                    ledgers.append(process_ledger(ledger, proc))
            result.layers = layer_metrics(
                ledgers,
                overhead=trace_overhead(result, {"wall_s": procs[0].wall_s,
                                                 "warm_s": procs[1].wall_s}),
            )
    result.ref_ms = speed.median_ms()

    for which, proc in outputs:
        result.check(
            proc.code == 0 and proc.stdout == expected,
            f"{which} figures: "
            + (proc.describe() if proc.code else "stdout differs from "
               "bench/expected/figures.txt"),
        )
    return result


# ----------------------------------------------------------------------
# Workload: loop-steady
# ----------------------------------------------------------------------
STEADY_ARGV = [PYTHON, str(BENCH / "steady.py")]


def steady_request(jobs: Sequence[Tuple]) -> bytes:
    return json.dumps([list(job) for job in jobs]).encode("utf-8")


def run_loop_steady(seed: int, seconds: float, setup: bool,
                    trace: bool) -> Result:
    """Fresh driver processes, each running the 15-cell set once with
    every process-wide cache empty."""
    result = Result()
    expected = expected_digests("loop-steady")
    cells = steady_cells(seed)
    request = steady_request(
        [(b, s, STEADY_SCALE, HOT_THRESHOLD) for b, s in cells])
    outputs: List[Tuple[str, Proc]] = []

    def sample(speed: CoreSpeed) -> None:
        proc = run_child(STEADY_ARGV, child_env(), stdin=request)
        outputs.append(("", proc))
        payload = _steady_payload(proc)
        if payload is None:
            return
        window = (proc.start, proc.start + proc.wall_s)
        if setup:
            result.add("setup_s",
                       speed.normalize(payload["import_cpu_s"], *window))
        result.add("cold_s", speed.normalize(payload["cpu_s"], *window))
        result.add("wall_s", payload["wall_s"])
        result.add("peak_rss_mb", proc.rss_mb)

    with CoreSpeed() as speed:
        timed_loop(seconds, lambda: sample(speed))
        if trace:
            ledger = WORK / "ledger-loop-steady.json"
            proc = run_child(traced(STEADY_ARGV, ledger), child_env(),
                             stdin=request)
            outputs.append(("traced ", proc))
            payload = _steady_payload(proc)
            if payload is not None:
                result.layers = layer_metrics(
                    [process_ledger(ledger, proc)],
                    overhead=trace_overhead(result,
                                            {"wall_s": payload["wall_s"]}),
                )
    result.ref_ms = speed.median_ms()

    for which, proc in outputs:
        payload = _steady_payload(proc)
        digests = (payload["digests"] if payload is not None
                   else [None] * len(cells))
        for (b, s), digest in zip(cells, digests):
            result.check(
                digest is not None and digest == expected.get(job_key(b, s)),
                f"{which}{b}/{s}: "
                + (proc.describe() if payload is None
                   else "report digest differs from expected"),
            )
    return result


def _steady_payload(proc: Proc) -> Optional[dict]:
    if proc.code != 0:
        return None
    try:
        return json.loads(proc.stdout.decode("utf-8").strip().splitlines()[-1])
    except (ValueError, IndexError):
        return None


# ----------------------------------------------------------------------
# Workload: serve-mixed
# ----------------------------------------------------------------------
SERVE_ARGV = [PYTHON, "-m", "repro", "serve", "--jobs", "1"]


class WireClient:
    """One connection speaking the daemon's newline-delimited JSON."""

    def __init__(self, address: Tuple[str, int]) -> None:
        self._sock = socket.create_connection(address, timeout=CHILD_TIMEOUT_S)
        self._sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        self._rfile = self._sock.makefile("rb")

    def close(self) -> None:
        self._rfile.close()
        self._sock.close()

    def __enter__(self) -> "WireClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _send(self, message: dict) -> None:
        self._sock.sendall(
            json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"
        )

    def _recv(self) -> dict:
        line = self._rfile.readline()
        if not line:
            raise ConnectionError("daemon closed the connection")
        message = json.loads(line)
        if message.get("type") == "error":
            raise RuntimeError(f"daemon error {message}")
        return message

    def call(self, message: dict) -> dict:
        self._send(message)
        return self._recv()

    def submit(self, jobs: Sequence[Tuple[str, str, int]]) -> Iterator[dict]:
        """Each job's result line, as it arrives."""
        self._send({"op": "submit", "jobs": [
            {"benchmark": b, "scheme_key": s, "scale": SERVE_SCALE,
             "hot_threshold": t}
            for b, s, t in jobs
        ]})
        if self._recv().get("type") != "accepted":
            raise RuntimeError("submit was not accepted")
        while True:
            message = self._recv()
            if message.get("type") == "done":
                return
            yield message


class Daemon:
    """A ``repro serve`` child: spawned, timed to its ready line, stopped."""

    def __init__(self, argv: Sequence[str], env: Dict[str, str]) -> None:
        self._stderr = tempfile.TemporaryFile(dir=WORK)
        self.start = time.perf_counter()
        self.proc = subprocess.Popen(
            list(argv), stdout=subprocess.PIPE, stderr=self._stderr,
            env=env, cwd=ROOT,
        )
        watchdog = threading.Timer(CHILD_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            ready = self.proc.stdout.readline().decode("utf-8", "replace")
        finally:
            watchdog.cancel()
        self.setup_s = time.perf_counter() - self.start
        self.address: Optional[Tuple[str, int]] = None
        self.setup_cpu_s = 0.0
        if "listening on" in ready:
            host, _, port = ready.rsplit(" ", 1)[-1].strip().rpartition(":")
            self.address = (host, int(port))
            self.setup_cpu_s = process_cpu_s(self.proc.pid)
        self.rss_mb = 0.0

    def stop(self) -> int:
        """Drain and shut down; returns the exit code."""
        if self.address is not None:
            with contextlib.suppress(OSError, RuntimeError, ValueError):
                with WireClient(self.address) as client:
                    client.call({"op": "shutdown", "drain": True})
        else:
            self.proc.kill()
        usage = _reap(self.proc, 30.0)
        self.rss_mb = usage.ru_maxrss / 1024.0
        self.proc.stdout.close()
        self._stderr.close()
        return self.proc.returncode


def drive(address: Tuple[str, int], batches) -> Tuple[float, List[tuple]]:
    """Closed loop: ``SERVE_CLIENTS`` connections, each sending its share
    of the batches one after another. Returns the wall time and a (job,
    result line, latency in ms from batch submit to arrival) triple per
    job; a connection that breaks leaves its remaining jobs out."""
    received: List[tuple] = []
    lock = threading.Lock()

    def client(mine) -> None:
        pin(CLIENT_CORES)
        with contextlib.suppress(OSError, RuntimeError, ValueError):
            with WireClient(address) as conn:
                for batch in mine:
                    start = time.perf_counter()
                    for line in conn.submit(batch):
                        arrived_ms = (time.perf_counter() - start) * 1000.0
                        with lock:
                            received.append(
                                (batch[line["index"]], line, arrived_ms))

    threads = [
        threading.Thread(target=client, args=(batches[i::SERVE_CLIENTS],))
        for i in range(SERVE_CLIENTS)
    ]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    return time.perf_counter() - start, received


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 1]."""
    ordered = sorted(values)
    return ordered[max(1, math.ceil(q * len(ordered))) - 1]


def run_serve_mixed(seed: int, seconds: float, setup: bool,
                    trace: bool) -> Result:
    """Fresh daemons until ``seconds`` is spent, each serving the mixed
    stream once with every cache empty, then ``SERVE_WARM_PASSES`` more
    times warm."""
    result = Result()
    expected = expected_digests("serve-mixed")
    batches = serve_batches(seed)
    jobs_total = sum(len(batch) for batch in batches)
    received: List[Tuple[str, list]] = []
    cold: List[tuple] = []

    def serve(argv, label: str):
        """Every pass against one fresh daemon: (walls, the daemon's CPU
        time over the cold pass with the pass's start, stats, daemon); no
        walls if the daemon never came up."""
        daemon = Daemon(argv, child_env(
            REPRO_CACHE_DIR=str(fresh_dir("serve-cache"))))
        walls: List[float] = []
        cold_cpu = (0.0, 0.0)
        stats = None
        if daemon.address is not None:
            for index in range(1 + SERVE_WARM_PASSES):
                began = time.perf_counter()
                cpu_s = process_cpu_s(daemon.proc.pid)
                wall_s, lines = drive(daemon.address, batches)
                if index == 0:
                    cold_cpu = (process_cpu_s(daemon.proc.pid) - cpu_s, began)
                walls.append(wall_s)
                if index == 0 and not label:
                    cold.extend(lines)
                name = "warm" if index else "cold"
                received.append((f"{label}{name}", lines))
            with contextlib.suppress(OSError, RuntimeError, ValueError):
                with WireClient(daemon.address) as client:
                    stats = client.call({"op": "stats"})
        code = daemon.stop()
        result.check(daemon.address is not None and code == 0,
                     f"{label}serve daemon exit {code}")
        return walls, cold_cpu, stats, daemon

    def sample(speed: CoreSpeed) -> None:
        walls, (cpu_s, began), _stats, daemon = serve(SERVE_ARGV, "")
        if not walls:
            return
        if setup:
            result.add("setup_s", speed.normalize(
                daemon.setup_cpu_s, daemon.start,
                daemon.start + daemon.setup_s))
        result.add("cold_s", speed.normalize(cpu_s, began, began + walls[0]))
        result.add("wall_s", walls[0])
        for wall_s in walls[1:]:
            result.add("warm_s", wall_s)
        result.add("peak_rss_mb", daemon.rss_mb)
        result.add("serve_jps", jobs_total / walls[0])

    ledger = WORK / "ledger-serve-mixed.json"
    walls_t: List[float] = []
    with CoreSpeed() as speed:
        timed_loop(seconds, lambda: sample(speed))
        if trace:
            walls_t, _, stats, _ = serve(traced(SERVE_ARGV, ledger),
                                         "traced ")
    result.ref_ms = speed.median_ms()
    # Memo hits return in under a millisecond and make up half the jobs,
    # so a median over every job falls between the two modes and jumps
    # from one to the other; the median is taken over the memo misses.
    missed = [ms for _job, line, ms in cold if line.get("via") != "memo"]
    if missed:
        result.add("serve_p50_ms", percentile(missed, 0.50))
        result.add("serve_p99_ms",
                   percentile([ms for _job, _line, ms in cold], 0.99))

    if walls_t and ledger.exists():
        result.layers = layer_metrics(
            [json.loads(ledger.read_text())],
            overhead=trace_overhead(
                result, {"wall_s": walls_t[0],
                         "warm_s": statistics.median(walls_t[1:])}),
            serve_stats=stats or {},
            reports=[line for _name, lines in received[-len(walls_t):]
                     for _job, line, _ms in lines],
        )

    for name, lines in received:
        for job, line, _ms in lines:
            ok = line.get("ok") is True and report_digest(
                line["report"]) == expected.get(job_key(*job))
            result.check(ok, f"{name} {job_key(*job)}: "
                         + (line.get("error") or "report digest differs"))
        for _ in range(jobs_total - len(lines)):
            result.check(False, f"{name}: result missing")
    return result


# ----------------------------------------------------------------------
# Per-layer metrics from the traced sample's ledgers
# ----------------------------------------------------------------------
def layer_metrics(ledgers: List[dict], overhead: Optional[float],
                  serve_stats: Optional[dict] = None,
                  reports: Optional[List[dict]] = None) -> Dict[str, float]:
    """Every per-layer metric, summed over the traced processes.

    The ledger: for a process run to completion (figures, loop-steady),
    ``process.startup_s + process.import_s + sum(self times) +
    process.teardown_s + ledger.unattributed_s`` is the process wall time
    from spawn to reap.
    For the daemon (``serve_stats`` given) the self times of the dispatch
    thread plus ``ledger.unattributed_s`` make up that thread's wall time,
    from the start to the end of its loop; handler-thread time
    (``serve.wire_s``) is reported beside it. ``reports`` are the result
    lines the clients received, when the simulated totals are counted
    client-side.
    """
    self_s: Dict[str, float] = {}
    layer_calls: Dict[str, int] = {}
    calls: Dict[str, int] = {}
    counters: Dict[str, int] = {}
    timings: Dict[str, float] = {}
    metrics: Dict[str, float] = {
        "process.startup_s": 0.0, "process.import_s": 0.0,
        "process.teardown_s": 0.0,
        "model.total_cycles": 0, "model.alias_exceptions": 0,
        "ledger.traced_wall_s": 0.0, "ledger.unattributed_s": 0.0,
    }
    for ledger in ledgers:
        metrics["process.startup_s"] += ledger["startup_s"]
        metrics["process.import_s"] += ledger["import_s"]
        for thread in ledger["threads"]:
            _add(self_s, thread["self_s"])
            _add(layer_calls, thread["layer_calls"])
            _add(calls, thread["calls"])
        if serve_stats is None:
            metrics["process.teardown_s"] += ledger["teardown_s"]
            wall = ledger["wall_s"]
            accounted = (
                ledger["startup_s"] + ledger["import_s"]
                + ledger["teardown_s"]
                + sum(sum(t["self_s"].values()) for t in ledger["threads"]))
        else:
            dispatch = [t for t in ledger["threads"]
                        if t["name"] == _DISPATCH_THREAD]
            wall = sum(t["wall_s"] or 0.0 for t in dispatch)
            accounted = sum(sum(t["self_s"].values()) for t in dispatch)
        metrics["ledger.traced_wall_s"] += wall
        metrics["ledger.unattributed_s"] += wall - accounted
        _add(counters, ledger["counters"])
        _add(timings, ledger["timings"])
        if reports is None:
            metrics["model.total_cycles"] += ledger["reports"]["total_cycles"]
            metrics["model.alias_exceptions"] += (
                ledger["reports"]["alias_exceptions"])
    if reports is not None:
        for line in reports:
            if line.get("ok"):
                metrics["model.total_cycles"] += line["report"]["total_cycles"]
                metrics["model.alias_exceptions"] += (
                    line["report"]["alias_exceptions"])

    for layer, name in _SELF_TIME.items():
        metrics[name] = self_s.get(layer, 0.0)
    for layer, name in _LAYER_CALLS.items():
        metrics[name] = layer_calls.get(layer, 0)
    for flavor in ("py", "vec", "batch"):
        metrics[f"sim.codegen_{flavor}_calls"] = calls.get(
            f"repro.sim.replay_backends:compile_{flavor}", 0)
    metrics["smarq.alloc_s"] = timings.get("optimize.alloc", 0.0)

    c = counters.get
    metrics["opt.tc_hit_rate"] = _rate(
        c("translate.cache_hits", 0), c("translate.cache_misses", 0))
    metrics["opt.stage_hit_rate"] = _rate(
        sum(c(f"translate.{s}_hits", 0) for s in _STAGES),
        sum(c(f"translate.{s}_misses", 0) for s in _STAGES))
    executed = c("vliw.regions_executed", 0)
    metrics["sim.batch_share"] = (
        c("vliw.backend_batch", 0) / executed if executed else 0.0)
    metrics["sim.plan_hit_rate"] = _rate(
        c("vliw.plan_hits", 0), c("vliw.plan_misses", 0))
    metrics["sim.replay_cache_hits"] = c("vliw.replay_cache_hits", 0)
    metrics["sim.vec_fallbacks"] = c("vliw.vec_fallbacks", 0)
    metrics["sim.batch_trims"] = c("vliw.batch_trims", 0)
    metrics["engine.cache_hit_rate"] = _rate(
        c("engine.cache_hits", 0), c("engine.cache_misses", 0))

    stats = serve_stats or {}
    jobs = stats.get("jobs", {})
    memo = stats.get("memo", {})
    submitted = jobs.get("submitted", 0)
    metrics["serve.memo_hit_rate"] = (
        memo.get("hits", 0) / submitted if submitted else 0.0)
    metrics["serve.memo_evictions"] = memo.get("evictions", 0)
    metrics["serve.dedup_hits"] = jobs.get("dedup_hits", 0)

    wall = metrics["ledger.traced_wall_s"]
    metrics["ledger.unattributed_frac"] = (
        metrics["ledger.unattributed_s"] / wall if wall else 0.0)
    if overhead is not None:
        metrics["ledger.trace_overhead_frac"] = overhead
    return metrics


def _add(total: dict, part: dict) -> None:
    for key, value in part.items():
        total[key] = total.get(key, 0) + value


def _rate(hits: float, misses: float) -> float:
    return hits / (hits + misses) if hits + misses else 0.0


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
RUNNERS = {
    "figures": run_figures,
    "loop-steady": run_loop_steady,
    "serve-mixed": run_serve_mixed,
}


def workload_record(result: Result, manifest: dict) -> dict:
    """Everything one workload run measured, for OUT.json."""
    record: Dict[str, object] = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "failed_frac": result.failed / max(1, result.attempted),
        "failures": result.failures[:20],
        "ref_burst_ms": result.ref_ms,
        "end_to_end": {},
        "extra": {},
    }
    units = {m["name"]: m["unit"] for m in manifest["end_to_end"]}
    for name, values in result.samples.items():
        section, unit = (("end_to_end", units[name]) if name in units
                         else ("extra", EXTRA_METRICS[name]["unit"]))
        record[section][name] = dict(summarize(values), unit=unit)
    if result.layers:
        record["per_layer"] = {
            m["name"]: {"value": result.layers[m["name"]], "unit": m["unit"]}
            for m in manifest["per_layer"] if m["name"] in result.layers
        }
    return record


def result_line(workload: str, record: dict, manifest: dict,
                trace: bool) -> dict:
    """The last line for one workload run: its end-to-end metrics, or
    with ``trace`` its per-layer ones; a missing metric fails the run."""
    section = "per_layer" if trace else "end_to_end"
    found = record.get(section, {})
    metrics = {
        m["name"]: {"value": found[m["name"]]["value"], "unit": m["unit"]}
        for m in manifest[section] if m["name"] in found
    }
    missing = [m["name"] for m in manifest[section]
               if m["name"] not in metrics]
    if missing:
        print(f"{workload}: no value for {', '.join(missing)}",
              file=sys.stderr)
    return {"correct": record["correct"] and not missing,
            "attempted": max(1, record["attempted"]),
            "failed": record["failed"] + (1 if missing else 0),
            "metrics": metrics}


def render(workload: str, record: dict) -> str:
    lines = [f"{workload}: {record['attempted']} checked, "
             f"{record['failed']} failed "
             f"(failed_frac {record['failed_frac']:.4f})"]
    for failure in record["failures"]:
        lines.append(f"  FAILED {failure}")
    if record["ref_burst_ms"] is not None:
        lines.append(f"  reference burst: {record['ref_burst_ms']:.4f} ms "
                     f"median (nominal {REF_NOMINAL_S * 1000:g} ms)")
    for section in ("end_to_end", "extra"):
        for name, m in record[section].items():
            lines.append(
                f"  {name:<28} {m['value']:>14.4f} {m['unit']:<7} "
                f"[q1 {m['q1']:.4f}, q3 {m['q3']:.4f}, n {m['n']}]")
    for name, m in record.get("per_layer", {}).items():
        lines.append(f"  {name:<28} {m['value']:>14.4f} {m['unit']}")
    return "\n".join(lines)


def provenance(seed: int, seconds: float) -> dict:
    git_rev = "unknown"
    if (ROOT / ".git").exists():
        with contextlib.suppress(OSError, subprocess.SubprocessError):
            git_rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30,
            ).stdout.strip() or "unknown"
    flavor = run_child(
        [PYTHON, "-c", "from repro.sim.replay_backends import batch_flavor;"
         "print(batch_flavor())"], child_env())
    return {
        "git_rev": git_rev,
        "python": sys.version.split()[0],
        "numpy": importlib.util.find_spec("numpy") is not None,
        "batch_flavor": flavor.stdout.decode().strip() or "unknown",
        "nproc": os.cpu_count(),
        "measured_core": sorted(MEASURED_CORE or ()),
        "reference_burst": {"loops": REF_LOOPS, "period_s": REF_PERIOD_S,
                            "nominal_s": REF_NOMINAL_S},
        "platform": platform.platform(),
        "seed": seed,
        "seconds": seconds,
        "started_at": time.strftime("%Y-%m-%dT%H:%M:%S%z"),
    }


# ----------------------------------------------------------------------
# Expected outputs
# ----------------------------------------------------------------------
def regen_expected() -> int:
    """Write ``bench/expected/`` under the ``interp`` oracle tier and check
    that the default tier produces the same."""
    tiers = {
        "interp": {"SMARQ_REPLAY_BACKEND": "interp"},
        "default": {},
    }
    figures: Dict[str, bytes] = {}
    steady: Dict[str, Dict[str, str]] = {}
    serve: Dict[str, Dict[str, str]] = {}
    cells = [(b, s) for b in STEADY_BENCHMARKS for s in STEADY_SCHEMES]
    universe = serve_spec_universe()
    for tier, knobs in tiers.items():
        env = child_env(REPRO_CACHE_DIR=str(fresh_dir("regen-cache")),
                        **knobs)
        proc = run_child(FIGURES_ARGV, env)
        if proc.code != 0:
            print(f"figures ({tier}): {proc.describe()}", file=sys.stderr)
            return 1
        figures[tier] = proc.stdout
        steady[tier] = _digests(
            [job_key(b, s) for b, s in cells],
            [(b, s, STEADY_SCALE, HOT_THRESHOLD) for b, s in cells], env)
        serve[tier] = _digests(
            [job_key(*job) for job in universe],
            [(b, s, SERVE_SCALE, t) for b, s, t in universe], env)
        print(f"{tier} tier done", flush=True)
    for name, outputs in (("figures", figures), ("loop-steady", steady),
                          ("serve-mixed", serve)):
        if outputs["interp"] != outputs["default"] or not outputs["interp"]:
            print(f"{name}: the interp oracle and the default tier differ",
                  file=sys.stderr)
            return 1
    EXPECTED.mkdir(exist_ok=True)
    (EXPECTED / "figures.txt").write_bytes(figures["interp"])
    for name, digests in (("loop-steady", steady["interp"]),
                          ("serve-mixed", serve["interp"])):
        (EXPECTED / f"{name}.json").write_text(
            json.dumps(digests, indent=1, sort_keys=True) + "\n",
            encoding="utf-8")
    print(f"wrote {EXPECTED}")
    return 0


def _digests(keys: List[str], jobs: List[tuple],
             env: Dict[str, str]) -> Dict[str, str]:
    proc = run_child(STEADY_ARGV, env, stdin=steady_request(jobs))
    payload = _steady_payload(proc)
    if payload is None:
        print(f"digest run failed: {proc.describe()}", file=sys.stderr)
        return {}
    return dict(zip(keys, payload["digests"]))


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def build() -> None:
    """Byte-compile ``src`` so no timed process pays for it."""
    subprocess.run([PYTHON, "-m", "compileall", "-q", str(SRC)],
                   env=child_env(), cwd=ROOT, check=True,
                   stdout=subprocess.DEVNULL, timeout=600)


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Same-box benchmark: cold figures, steady replay and "
        "the warm serve daemon, with a layer ledger.")
    parser.add_argument("--workload", choices=WORKLOADS,
                        help="run one workload (default: all, untraced "
                        "then traced)")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                        "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="with --workload: 1 reports per-layer metrics "
                        "from a traced sample")
    parser.add_argument("--out", default="",
                        help="write every metric, raw sample and the "
                        "provenance as JSON here")
    parser.add_argument("--regen-expected", action="store_true",
                        help="rewrite bench/expected/ under the interp "
                        "oracle tier")
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file() or not MANIFEST.is_file():
        print(f"no repro sources under {SRC} (or no {MANIFEST.name}); "
              "run from a full checkout", file=sys.stderr)
        return 2
    manifest = json.loads(MANIFEST.read_text(encoding="utf-8"))
    seconds = args.seconds or float(manifest["run_seconds"])

    shutil.rmtree(WORK, ignore_errors=True)
    (WORK / "tmp").mkdir(parents=True)
    build()
    if args.regen_expected:
        return regen_expected()

    # Children spawned from here, and the burst thread, inherit the core.
    pin(MEASURED_CORE)
    if args.workload:
        result = RUNNERS[args.workload](
            args.seed, seconds, setup=not args.trace, trace=bool(args.trace))
        records = {args.workload: workload_record(result, manifest)}
        line = result_line(args.workload, records[args.workload], manifest,
                           trace=bool(args.trace))
    else:
        records = {}
        for workload in WORKLOADS:
            result = RUNNERS[workload](args.seed, seconds, setup=True,
                                       trace=True)
            records[workload] = workload_record(result, manifest)
        line = {
            "correct": all(r["correct"] for r in records.values()),
            "attempted": sum(r["attempted"] for r in records.values()),
            "failed": sum(r["failed"] for r in records.values()),
            "metrics": {
                f"{w}/{name}": {"value": m["value"], "unit": m["unit"]}
                for w, r in records.items()
                for name, m in r["end_to_end"].items()
            },
        }
    for workload, record in records.items():
        print(render(workload, record))
    if args.out:
        payload = {"schema": 1, "provenance": provenance(args.seed, seconds),
                   "workloads": records}
        Path(args.out).write_text(json.dumps(payload, indent=1) + "\n",
                                  encoding="utf-8")
        print(f"wrote {args.out}")
    print(json.dumps(line))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    raise SystemExit(main())
