"""Run a Python entry point with the repro layers timed from outside.

    python bench/trace.py --ledger OUT.json [--t0 EPOCH] -- -m repro figures
    python bench/trace.py --ledger OUT.json -- bench/steady.py

The launcher imports the modules that define each layer's callables
(:data:`LAYERS`), rebinds every reference to those callables -- module
globals across ``repro`` and class attributes -- to a timing wrapper, then
imports ``repro.cli`` and runs the target as ``python`` would. The target
prints exactly what it prints untraced; the launcher writes nothing to
stdout.

Each thread keeps its own span stack. A span's self time is its duration
minus the durations of the spans it encloses, so on every thread the self
times of the layers add up to the time spent inside any layer. The ledger
written to ``--ledger`` at exit holds, per thread, self seconds per layer
and call counts per callable; the start-up time (from ``--t0``, the
parent's spawn time in epoch seconds, to the first ``repro`` import),
the import time and the epoch time of the write itself, from which the
parent measures teardown; the engine tracer counters; and the sums of
the simulated results the engine returned. ``src/`` is not edited.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()
_EPOCH_START = time.time()

import functools  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import runpy  # noqa: E402
import sys  # noqa: E402
import threading  # noqa: E402
from typing import Callable, Dict, List, Optional  # noqa: E402

_FIGURES = ("table1", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19")

#: layer name -> the callables whose self time it is ("module:attr" or
#: "module:Class.attr"). Order does not matter; nesting is found at run time.
LAYERS: Dict[str, List[str]] = {
    "workloads.build": ["repro.workloads.specfp:make_benchmark"],
    "frontend.interpret": ["repro.sim.dbt:DbtSystem.run"],
    "frontend.recover": ["repro.frontend.interpreter:Interpreter.run_until"],
    "frontend.form": ["repro.frontend.region:RegionFormer.form"],
    "opt.optimize": ["repro.opt.pipeline:OptimizationPipeline.optimize"],
    "opt.tc_get": [
        "repro.opt.translation_cache:TranslationCache.get_translation"
    ],
    "opt.tc_store": [
        "repro.opt.translation_cache:TranslationCache.store_translation"
    ],
    "analysis.deps": ["repro.analysis.dependence:compute_dependences"],
    "analysis.certify": [
        "repro.analysis.certify:certify_region",
        "repro.analysis.certify:check_certificate",
    ],
    "sched.ddg": [
        "repro.sched.ddg:DataDependenceGraph.__init__",
        "repro.sched.ddg:DataDependenceGraph.from_structural",
    ],
    "sched.schedule": [
        "repro.sched.list_scheduler:ListScheduler.prepare",
        "repro.sched.list_scheduler:ListScheduler.schedule",
    ],
    "sim.codegen": [
        "repro.sim.replay_backends:compile_py",
        "repro.sim.replay_backends:compile_vec",
        "repro.sim.replay_backends:compile_batch",
    ],
    "sim.execute": [
        "repro.sim.vliw:VliwSimulator.execute_region",
        "repro.sim.vliw:VliwSimulator.execute_region_batch",
    ],
    # execute_job builds the job's DbtSystem: engine-side set-up per job.
    "engine.run": [
        "repro.engine.core:ExecutionEngine.run_results",
        "repro.engine.jobs:execute_job",
    ],
    "engine.cache_get": ["repro.engine.cache:ReportCache.get"],
    "engine.cache_put": ["repro.engine.cache:ReportCache.put"],
    "eval.figures": [
        f"repro.eval.{name}:{verb}_{name}"
        for name in _FIGURES
        for verb in ("run", "render")
    ],
    "serve.idle": ["repro.serve.jobqueue:JobQueue.drain_batch"],
    "serve.wire": [
        "repro.serve.protocol:encode_line",
        "repro.serve.protocol:decode_line",
        "repro.serve.protocol:spec_from_wire",
    ],
}

#: callables whose duration is a thread's wall time, not a layer
ROOTS = ["repro.serve.server:ReproServer._dispatch_loop"]

#: the callable whose results feed the ledger's report and counter totals
_ENGINE_RUN = "repro.engine.core:ExecutionEngine.run_results"


class _ThreadState:
    __slots__ = ("name", "stack", "self_s", "calls", "layer_calls", "wall_s")

    def __init__(self, name: str) -> None:
        self.name = name
        self.stack: List[float] = []
        self.self_s: Dict[str, float] = {}
        self.calls: Dict[str, int] = {}
        self.layer_calls: Dict[str, int] = {}
        self.wall_s: Optional[float] = None


class Ledger:
    """Per-thread span stacks and the totals they produce."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._threads: List[_ThreadState] = []
        self._engines: Dict[int, object] = {}
        self.reports = {"total_cycles": 0, "alias_exceptions": 0}

    def _state(self) -> _ThreadState:
        try:
            return self._local.state
        except AttributeError:
            state = _ThreadState(threading.current_thread().name)
            with self._lock:
                self._threads.append(state)
            self._local.state = state
            return state

    def wrap(self, fn: Callable, layer: str, target: str) -> Callable:
        """``fn`` timed as a span of ``layer``."""
        state_of = self._state
        clock = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            state = state_of()
            stack = state.stack
            stack.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                inner = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s = state.self_s
                self_s[layer] = self_s.get(layer, 0.0) + elapsed - inner
                calls = state.calls
                calls[target] = calls.get(target, 0) + 1
                layer_calls = state.layer_calls
                layer_calls[layer] = layer_calls.get(layer, 0) + 1

        return span

    def wrap_root(self, fn: Callable) -> Callable:
        """``fn`` timed as its thread's wall time."""
        state_of = self._state

        @functools.wraps(fn)
        def root(*args, **kwargs):
            state = state_of()
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                state.wall_s = (state.wall_s or 0.0) + (
                    time.perf_counter() - start
                )

        return root

    def observe_engine(self, fn: Callable) -> Callable:
        """Record each engine and the reports ``run_results`` returns."""
        engines = self._engines
        reports = self.reports
        lock = self._lock

        @functools.wraps(fn)
        def observed(engine, *args, **kwargs):
            results = fn(engine, *args, **kwargs)
            with lock:
                engines[id(engine)] = engine
                for result in results:
                    reports["total_cycles"] += result.report.total_cycles
                    reports["alias_exceptions"] += (
                        result.report.alias_exceptions
                    )
            return results

        return observed

    def snapshot(self) -> dict:
        counters: Dict[str, int] = {}
        timings: Dict[str, float] = {}
        for engine in list(self._engines.values()):
            for name, value in dict(engine.stats.counters).items():
                counters[name] = counters.get(name, 0) + value
            for name, value in dict(engine.stats.timings).items():
                timings[name] = timings.get(name, 0.0) + value
        return {
            "threads": [
                {
                    "name": t.name,
                    "wall_s": t.wall_s,
                    # dict() of a plain dict copies without running Python
                    # code, so a thread still writing cannot break it
                    "self_s": dict(t.self_s),
                    "calls": dict(t.calls),
                    "layer_calls": dict(t.layer_calls),
                }
                for t in list(self._threads)
            ],
            "counters": counters,
            "timings": timings,
            "reports": dict(self.reports),
        }


def _resolve(target: str):
    """(owner, attribute name, module) of a ``module:[Class.]attr`` target."""
    module_name, _, path = target.partition(":")
    module = importlib.import_module(module_name)
    owner_name, _, attr = path.rpartition(".")
    owner = getattr(module, owner_name) if owner_name else module
    return owner, attr, module


def _rebind(original: Callable, replacement: Callable) -> None:
    """Point every ``repro`` module global bound to ``original`` at
    ``replacement`` (``from x import f`` copies the reference)."""
    for name, module in list(sys.modules.items()):
        if not (name == "repro" or name.startswith("repro.")):
            continue
        namespace = getattr(module, "__dict__", {})
        for key, value in list(namespace.items()):
            if value is original:
                setattr(module, key, replacement)


def _patch(target: str, make: Callable[[Callable], Callable]) -> None:
    owner, attr, module = _resolve(target)
    if owner is module:
        original = getattr(module, attr)
        _rebind(original, make(original))
        return
    raw = owner.__dict__[attr]
    if isinstance(raw, classmethod):
        setattr(owner, attr, classmethod(make(raw.__func__)))
    else:
        setattr(owner, attr, make(raw))


def install(ledger: Ledger) -> None:
    """Wrap every layer callable and root; import ``repro.cli`` last so its
    import-time references (the figure table) bind the wrappers."""
    for layer, targets in LAYERS.items():
        for target in targets:
            _patch(
                target,
                lambda fn, layer=layer, target=target: ledger.wrap(
                    fn, layer, target
                ),
            )
    _patch(_ENGINE_RUN, ledger.observe_engine)
    for target in ROOTS:
        _patch(target, ledger.wrap_root)
    importlib.import_module("repro.cli")


def _run_target(target: List[str]) -> int:
    """Run ``-m MODULE args`` or ``SCRIPT args`` as ``__main__``."""
    try:
        if target[0] == "-m":
            sys.argv = [target[1]] + target[2:]
            runpy.run_module(target[1], run_name="__main__", alter_sys=True)
        else:
            sys.argv = list(target)
            runpy.run_path(target[0], run_name="__main__")
    except SystemExit as exc:
        if exc.code is None:
            return 0
        if isinstance(exc.code, int):
            return exc.code
        print(exc.code, file=sys.stderr)
        return 1
    return 0


def main(argv: List[str]) -> int:
    if "--" not in argv:
        print(
            "usage: trace.py --ledger OUT.json [--t0 EPOCH] -- "
            "(-m MODULE | SCRIPT) [ARGS...]",
            file=sys.stderr,
        )
        return 2
    split = argv.index("--")
    options, target = argv[:split], argv[split + 1:]
    ledger_path = options[options.index("--ledger") + 1]
    t0 = (
        float(options[options.index("--t0") + 1])
        if "--t0" in options
        else _EPOCH_START
    )
    if not target or (target[0] == "-m" and len(target) < 2):
        print("trace.py: no target to run", file=sys.stderr)
        return 2

    ledger = Ledger()
    import_start = time.perf_counter()
    install(ledger)
    import_s = time.perf_counter() - import_start
    code = _run_target(target)
    sys.stdout.flush()
    payload = ledger.snapshot()
    payload.update(
        # interpreter start-up plus the launcher's own imports
        startup_s=max(0.0, _EPOCH_START - t0) + (import_start - _T_START),
        import_s=import_s,
        exit_code=code,
        # the parent's reap time minus this is interpreter teardown
        epoch_end=time.time(),
    )
    with open(ledger_path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
