"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show available benchmarks and schemes.
``run BENCH [--scheme S] [--scale F] [--certify/--no-certify] [--stats]``
    Run one benchmark under one scheme; print the run report.
    ``--certify``/``--no-certify`` force the static alias certifier on
    or off for any scheme; ``--stats`` adds the certify counters.
``compare BENCH [--scale F] [--jobs N] [--no-cache] [--stats]``
    Run one benchmark under every scheme; print a speedup table.
``figures [--only figN] [--scale F] [--suite a,b,c] [--jobs N]
[--no-cache] [--stats]``
    Regenerate the paper's tables/figures and print them.
``fuzz [--seed N] [--cases N] [--time-budget S] [--oracles a,b]
[--minimize/--no-minimize] [--out-dir D]``
    Run the differential fuzzing campaign (:mod:`repro.fuzz`): generate
    adversarial guest programs and cross-check every configured pair of
    independent implementations; disagreements are delta-debugged to
    minimal repros under ``--out-dir`` (see ``docs/TESTING.md``).
    Exit status 1 if any oracle pair disagreed.
``serve [--host H] [--port P] [--jobs N] [--no-cache] [--memo-limit N]``
    Run the long-lived simulation/translation daemon
    (:mod:`repro.serve`): batched JSON job submission over a local TCP
    socket, in-flight dedupe, bounded result memo, streamed per-job
    results and a stats endpoint. Prints ``listening on host:port``
    once ready; runs until a drain shutdown request or Ctrl-C. See
    ``docs/SERVE.md``.
``load [--address H:P | --spawn] [--mix warm|cold|mixed] ...``
    Drive a serve daemon with the load generator: configurable batch
    mix and client concurrency, reporting p50/p99 latency, throughput
    and failures (``--out`` writes the JSON payload; ``--assert-p99-ms``
    / ``--assert-max-failed`` turn it into a CI gate).

``figures`` and ``compare`` route every simulation through the
:mod:`repro.engine` execution engine: ``--jobs N`` fans (benchmark,
scheme) cells across N worker processes, reports are cached persistently
under ``~/.cache/repro`` (disable with ``--no-cache``), and ``--stats``
prints the engine's cache/instrumentation summary after the output.
``--serve host:port`` instead sends every cell to a running daemon
(whose warm caches then do the work); output is byte-identical across
``--jobs`` settings and the ``--serve`` path.
"""

from __future__ import annotations

import argparse
import sys
from contextlib import contextmanager
from typing import Iterator, List, Optional

from repro.eval import (
    render_fig14,
    render_fig15,
    render_fig16,
    render_fig17,
    render_fig18,
    render_fig19,
    render_table1,
    run_fig14,
    run_fig15,
    run_fig16,
    run_fig17,
    run_fig18,
    run_fig19,
    run_table1,
)
from repro.eval import fig15 as _fig15
from repro.eval import fig16 as _fig16
from repro.eval.report import render_table
from repro.eval.suite import SuiteConfig, SuiteRunner
from repro.engine import (
    ExecutionEngine,
    NullCache,
    ReportCache,
    make_executor,
)
from repro.frontend.profiler import ProfilerConfig
from repro.sim.dbt import DbtSystem
from repro.sim.schemes import SCHEME_NAMES
from repro.workloads import CERT_BENCHMARKS, SPECFP_BENCHMARKS, make_benchmark

#: figure name -> (run, render, scheme keys to prefetch)
_FIGURES = {
    "table1": (lambda runner: run_table1(), render_table1, ()),
    "fig14": (run_fig14, render_fig14, ("smarq",)),
    "fig15": (run_fig15, render_fig15, ("none",) + tuple(_fig15.SCHEMES)),
    "fig16": (
        run_fig16,
        render_fig16,
        ("none", "smarq", _fig16.NO_STORE_REORDER_KEY),
    ),
    "fig17": (run_fig17, render_fig17, ("smarq",)),
    "fig18": (run_fig18, render_fig18, ("smarq",)),
    "fig19": (run_fig19, render_fig19, ("smarq",)),
}


@contextmanager
def _engine(args: argparse.Namespace) -> Iterator:
    """Engine configured from the shared --jobs/--no-cache/--serve flags.

    With ``--serve host:port`` the engine is a
    :class:`~repro.serve.client.RemoteEngine` that ships every job to
    the daemon, and its connection closes when the block exits; the
    local flags (--jobs/--no-cache) are the server's business then.
    """
    if getattr(args, "serve", None):
        from repro.serve import RemoteEngine, ServeClient, parse_address

        with ServeClient(parse_address(args.serve)) as client:
            yield RemoteEngine(client)
        return
    cache = NullCache() if args.no_cache else ReportCache()
    yield ExecutionEngine(executor=make_executor(args.jobs), cache=cache)


def _cmd_list(_args: argparse.Namespace) -> int:
    print("benchmarks:", " ".join(SPECFP_BENCHMARKS + CERT_BENCHMARKS))
    print("schemes:   ", " ".join(SCHEME_NAMES))
    print("figures:   ", " ".join(_FIGURES))
    return 0


def _run_one(bench: str, scheme: str, scale: float, certify=None, tracer=None):
    program = make_benchmark(bench, scale=scale)
    if certify is not None:
        import dataclasses

        from repro.sim.schemes import make_scheme

        built = make_scheme(scheme)
        scheme = dataclasses.replace(
            built,
            optimizer_config=dataclasses.replace(
                built.optimizer_config, certify=certify
            ),
        )
    system = DbtSystem(
        program,
        scheme,
        profiler_config=ProfilerConfig(hot_threshold=20),
        tracer=tracer,
    )
    return system.run()


def _cmd_run(args: argparse.Namespace) -> int:
    tracer = None
    if args.stats:
        from repro.engine.instrumentation import Tracer

        tracer = Tracer()
    report = _run_one(
        args.benchmark, args.scheme, args.scale,
        certify=args.certify, tracer=tracer,
    )
    print(f"benchmark           : {report.program}")
    print(f"scheme              : {report.scheme}")
    print(f"guest instructions  : {report.guest_instructions}")
    print(f"total cycles        : {report.total_cycles}")
    print(f"  interpreted       : {report.interp_cycles}")
    print(f"  translated        : {report.translated_cycles}")
    print(f"  optimizer         : {report.optimization_cycles} "
          f"({report.optimization_fraction * 100:.2f}%)")
    print(f"translations        : {report.translations}")
    print(f"region commits      : {report.region_commits}")
    print(f"side exits          : {report.side_exits}")
    print(f"alias exceptions    : {report.alias_exceptions} "
          f"(false positives {report.false_positive_exceptions})")
    print(f"re-optimizations    : {report.reoptimizations}")
    checks = sum(s.check_constraints for s in report.region_stats.values())
    print(f"check constraints   : {checks}")
    if tracer is not None:
        certified = tracer.counters.get("certify.pairs_certified", 0)
        dropped = tracer.counters.get("certify.deps_dropped", 0)
        rejected = tracer.counters.get("certify.rejected", 0)
        print(f"certify             : {certified} pairs certified, "
              f"{dropped} dependences dropped, "
              f"{rejected} certificates rejected")
    return 0


def _cmd_compare(args: argparse.Namespace) -> int:
    with _engine(args) as engine:
        runner = SuiteRunner(
            SuiteConfig(
                benchmarks=[args.benchmark], scale=args.scale,
                hot_threshold=20,
            ),
            engine=engine,
        )
        runner.prefetch(SCHEME_NAMES)
        reports = {
            scheme: runner.report(args.benchmark, scheme)
            for scheme in SCHEME_NAMES
        }
        baseline = reports["none"].total_cycles
        rows = [
            [
                scheme,
                r.total_cycles,
                f"{baseline / r.total_cycles:.3f}x",
                r.alias_exceptions,
                r.reoptimizations,
            ]
            for scheme, r in reports.items()
        ]
        print(
            render_table(
                f"Scheme comparison: {args.benchmark} (scale {args.scale})",
                ["scheme", "cycles", "speedup", "alias exc", "re-opts"],
                rows,
            )
        )
        if args.stats:
            print()
            print(runner.engine.render_stats())
        return 0


def _cmd_figures(args: argparse.Namespace) -> int:
    with _engine(args) as engine:
        benchmarks = (
            [b.strip() for b in args.suite.split(",") if b.strip()]
            if args.suite
            else list(SPECFP_BENCHMARKS)
        )
        runner = SuiteRunner(
            SuiteConfig(
                benchmarks=benchmarks, scale=args.scale, hot_threshold=20
            ),
            engine=engine,
        )
        names = [args.only] if args.only else list(_FIGURES)
        for name in names:
            if name not in _FIGURES:
                print(f"unknown figure {name!r}; choose from {list(_FIGURES)}",
                      file=sys.stderr)
                return 2

        # Batch every needed cell up front so the executor can fan them
        # out; rendering below then hits the memo.
        keys: List[str] = []
        for name in names:
            needed = _FIGURES[name][2]
            keys.extend(k for k in needed if k not in keys)
        if keys:
            runner.prefetch(keys)

        for name in names:
            run, render, _needed = _FIGURES[name]
            print(render(run(runner)))
            print()
        if args.stats:
            print(runner.engine.render_stats())
        return 0


def _cmd_fuzz(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.fuzz import FuzzConfig, ORACLE_NAMES, render_stats, run_fuzz

    oracles = (
        tuple(o.strip() for o in args.oracles.split(",") if o.strip())
        if args.oracles
        else ORACLE_NAMES
    )
    for name in oracles:
        if name not in ORACLE_NAMES:
            print(
                f"unknown oracle {name!r}; choose from {list(ORACLE_NAMES)}",
                file=sys.stderr,
            )
            return 2
    config = FuzzConfig(
        seed=args.seed,
        cases=args.cases,
        time_budget=args.time_budget,
        oracles=oracles,
        minimize=args.minimize,
        engine_samples=args.engine_samples,
        out_dir=Path(args.out_dir),
    )
    stats = run_fuzz(config)
    print(render_stats(stats, config))
    return 0 if stats.ok else 1


def _cmd_serve(args: argparse.Namespace) -> int:
    from pathlib import Path

    from repro.serve import ReproServer, ServeConfig

    config = ServeConfig(
        host=args.host,
        port=args.port,
        jobs=args.jobs,
        cache=not args.no_cache,
        cache_dir=Path(args.cache_dir) if args.cache_dir else None,
        memo_limit=args.memo_limit,
    )
    server = ReproServer(config)
    host, port = server.start()
    # The ready line is the spawn contract: `repro load --spawn` (and the
    # CI serve-smoke job) parse the address off it.
    print(f"repro serve listening on {host}:{port}", flush=True)
    try:
        server.wait()
    except KeyboardInterrupt:
        print("repro serve: interrupted, draining", flush=True)
        server.stop()
    return 0


def _cmd_load(args: argparse.Namespace) -> int:
    import contextlib
    import json

    from repro.serve import (
        LoadConfig,
        parse_address,
        render_load,
        run_load,
        spawned_server,
    )

    if bool(args.address) == bool(args.spawn):
        print(
            "load: give exactly one of --address host:port or --spawn",
            file=sys.stderr,
        )
        return 2
    config = LoadConfig(
        batches=args.batches,
        batch_size=args.batch_size,
        clients=args.clients,
        mix=args.mix,
        scale=args.scale,
    )
    if args.benchmarks:
        config.benchmarks = [
            b.strip() for b in args.benchmarks.split(",") if b.strip()
        ]
    if args.schemes:
        config.schemes = [
            s.strip() for s in args.schemes.split(",") if s.strip()
        ]
    try:
        config.validate()
    except ValueError as exc:
        print(f"load: {exc}", file=sys.stderr)
        return 2

    with contextlib.ExitStack() as stack:
        if args.spawn:
            address = stack.enter_context(spawned_server(jobs=args.jobs))
        else:
            address = parse_address(args.address)
        payload = run_load(address, config)
    print(render_load(payload))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(f"wrote {args.out}")
    rc = 0
    if payload["failed"] > args.assert_max_failed >= 0:
        print(
            f"load gate FAILED: {payload['failed']} failed jobs "
            f"(max allowed {args.assert_max_failed})"
        )
        rc = 1
    if args.assert_p99_ms > 0 and payload["p99_ms"] > args.assert_p99_ms:
        print(
            f"load gate FAILED: p99 {payload['p99_ms']:.1f}ms "
            f"> bound {args.assert_p99_ms:.1f}ms"
        )
        rc = 1
    return rc


def _add_engine_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for the simulation sweep (default 1)",
    )
    parser.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent report cache (~/.cache/repro)",
    )
    parser.add_argument(
        "--stats", action="store_true",
        help="print engine cache/instrumentation statistics",
    )
    parser.add_argument(
        "--serve", default="", metavar="HOST:PORT",
        help="send every job to a running `repro serve` daemon instead "
        "of simulating locally (--jobs/--no-cache are then the "
        "server's business)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SMARQ (MICRO 2012) reproduction: run workloads and "
        "regenerate the paper's experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("list", help="list benchmarks, schemes, figures")

    run_p = sub.add_parser("run", help="run one benchmark under one scheme")
    run_p.add_argument(
        "benchmark", choices=SPECFP_BENCHMARKS + CERT_BENCHMARKS
    )
    run_p.add_argument("--scheme", default="smarq", choices=SCHEME_NAMES)
    run_p.add_argument("--scale", type=float, default=0.25)
    run_p.add_argument(
        "--certify", action="store_true", default=None,
        help="force the static alias certifier on (any scheme)",
    )
    run_p.add_argument(
        "--no-certify", action="store_false", dest="certify",
        help="force the static alias certifier off",
    )
    run_p.add_argument(
        "--stats", action="store_true",
        help="also print certify counters from a run tracer",
    )

    cmp_p = sub.add_parser("compare", help="run one benchmark on all schemes")
    cmp_p.add_argument(
        "benchmark", choices=SPECFP_BENCHMARKS + CERT_BENCHMARKS
    )
    cmp_p.add_argument("--scale", type=float, default=0.25)
    _add_engine_flags(cmp_p)

    fig_p = sub.add_parser("figures", help="regenerate tables/figures")
    fig_p.add_argument("--only", default=None, help="one of: " + " ".join(_FIGURES))
    fig_p.add_argument("--scale", type=float, default=0.25)
    fig_p.add_argument("--suite", default="", help="comma-separated subset")
    _add_engine_flags(fig_p)

    fuzz_p = sub.add_parser(
        "fuzz", help="run the differential fuzzing campaign"
    )
    fuzz_p.add_argument(
        "--seed", type=int, default=0,
        help="first RNG seed; cases use seed, seed+1, ... (default 0)",
    )
    fuzz_p.add_argument(
        "--cases", type=int, default=200,
        help="number of generated cases (default 200)",
    )
    fuzz_p.add_argument(
        "--time-budget", type=float, default=0.0, metavar="SECONDS",
        help="stop early after this much wall time (0 = no limit)",
    )
    fuzz_p.add_argument(
        "--oracles", default="",
        help="comma-separated oracle subset (default: alloc,queue,"
        "schemes,knobs,engine,serve,certify)",
    )
    fuzz_p.add_argument(
        "--minimize", action="store_true", default=True,
        help="delta-debug disagreeing cases to minimal repros (default)",
    )
    fuzz_p.add_argument(
        "--no-minimize", action="store_false", dest="minimize",
        help="record disagreeing cases without minimizing",
    )
    fuzz_p.add_argument(
        "--engine-samples", type=int, default=8, metavar="N",
        help="cases that also run the (process-pool) engine oracle "
        "(sampled evenly; default 8)",
    )
    fuzz_p.add_argument(
        "--out-dir", default="fuzz-out",
        help="directory for failure corpus entries and pytest repros "
        "(default fuzz-out/)",
    )

    serve_p = sub.add_parser(
        "serve", help="run the warm batched simulation daemon"
    )
    serve_p.add_argument(
        "--host", default="127.0.0.1",
        help="bind address (default 127.0.0.1; the protocol is "
        "trusted-local — do not expose it beyond loopback)",
    )
    serve_p.add_argument(
        "--port", type=int, default=0,
        help="TCP port (default 0 = ephemeral; the ready line prints "
        "the chosen port)",
    )
    serve_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for simulation (default 1 = in-process)",
    )
    serve_p.add_argument(
        "--no-cache", action="store_true",
        help="skip the persistent report cache (~/.cache/repro)",
    )
    serve_p.add_argument(
        "--cache-dir", default="",
        help="report-cache directory override",
    )
    serve_p.add_argument(
        "--memo-limit", type=int, default=512, metavar="N",
        help="in-RAM result memo capacity in jobs, LRU-evicted "
        "(default 512; 0 disables the memo)",
    )

    load_p = sub.add_parser(
        "load", help="drive a serve daemon with the load generator"
    )
    load_p.add_argument(
        "--address", default="", metavar="HOST:PORT",
        help="target a running daemon",
    )
    load_p.add_argument(
        "--spawn", action="store_true",
        help="spawn a fresh daemon subprocess for the run instead",
    )
    load_p.add_argument(
        "--jobs", type=int, default=1, metavar="N",
        help="worker processes for a --spawn'd daemon (default 1)",
    )
    load_p.add_argument("--batches", type=int, default=4)
    load_p.add_argument("--batch-size", type=int, default=6)
    load_p.add_argument(
        "--clients", type=int, default=2,
        help="concurrent client connections (default 2)",
    )
    load_p.add_argument(
        "--mix", default="mixed", choices=("warm", "cold", "mixed"),
        help="request mix shape (default mixed)",
    )
    load_p.add_argument("--scale", type=float, default=0.05)
    load_p.add_argument(
        "--benchmarks", default="",
        help="comma-separated benchmark pool (default swim,art,equake)",
    )
    load_p.add_argument(
        "--schemes", default="",
        help="comma-separated scheme pool (default smarq,itanium,none)",
    )
    load_p.add_argument(
        "--out", default="",
        help="write the JSON latency/throughput payload here",
    )
    load_p.add_argument(
        "--assert-p99-ms", type=float, default=0.0, metavar="MS",
        help="exit non-zero when p99 latency exceeds MS (CI gate; "
        "0 = no gate)",
    )
    load_p.add_argument(
        "--assert-max-failed", type=int, default=-1, metavar="N",
        help="exit non-zero when more than N jobs failed (CI gate; "
        "-1 = no gate)",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    handler = {
        "list": _cmd_list,
        "run": _cmd_run,
        "compare": _cmd_compare,
        "figures": _cmd_figures,
        "fuzz": _cmd_fuzz,
        "serve": _cmd_serve,
        "load": _cmd_load,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    raise SystemExit(main())
