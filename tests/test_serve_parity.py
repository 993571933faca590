"""Service-mode parity: the daemon must change *where* work runs, never
*what* it produces.

The whole figures pipeline is driven twice — once through the normal
serial in-process CLI, once with ``--serve host:port`` routing every job
to a live daemon — and the rendered output must match byte for byte, on
a cold server and again on a warm one, whether the daemon simulates
in-process (``jobs=1``) or shards across a keep-alive worker pool. A
raw-protocol sweep pins the same property below the rendering layer:
every report decoded off the wire equals the serial executor's.
"""

import io
from contextlib import redirect_stdout

import pytest

from repro.cli import main
from repro.engine.executor import SerialExecutor
from repro.engine.jobs import JobSpec
from repro.serve import ServeClient, ServeConfig, running_server

SCALE = "0.05"
SUITE = "art,swim"


def run_cli(argv):
    buf = io.StringIO()
    with redirect_stdout(buf):
        rc = main(argv)
    assert rc == 0
    return buf.getvalue()


def figures_argv(extra=()):
    return [
        "figures", "--scale", SCALE, "--suite", SUITE, "--no-cache",
        *extra,
    ]


@pytest.fixture(scope="module")
def serial_output():
    return run_cli(figures_argv())


class TestFiguresParity:
    def test_cold_and_warm_server_match_serial_cli(self, serial_output):
        with running_server(ServeConfig(cache=False)) as server:
            addr = f"{server.address[0]}:{server.address[1]}"
            cold = run_cli(figures_argv(["--serve", addr]))
            warm = run_cli(figures_argv(["--serve", addr]))
            with ServeClient(server.address) as client:
                stats = client.stats()
        assert cold == serial_output
        assert warm == serial_output
        # the warm pass really was warm: its jobs never reached the engine
        assert stats["memo"]["hits"] >= stats["engine"]["jobs"]

    def test_pooled_server_matches_serial_cli(self, serial_output):
        """``--jobs 2`` shards the batch across a keep-alive process
        pool; sharding must not leak into the rendered output."""
        with running_server(
            ServeConfig(cache=False, jobs=2)
        ) as server:
            addr = f"{server.address[0]}:{server.address[1]}"
            pooled = run_cli(figures_argv(["--serve", addr]))
        assert pooled == serial_output

    def test_variant_scheme_travels(self, serial_output):
        """fig16's no-store-reorder scheme travels by name and renders
        identically through the daemon."""
        serial = run_cli(
            ["figures", "--only", "fig16", "--scale", SCALE,
             "--suite", SUITE, "--no-cache"]
        )
        with running_server(ServeConfig(cache=False)) as server:
            addr = f"{server.address[0]}:{server.address[1]}"
            served = run_cli(
                ["figures", "--only", "fig16", "--scale", SCALE,
                 "--suite", SUITE, "--serve", addr]
            )
        assert served == serial


class TestWireReportParity:
    def test_streamed_reports_equal_serial_executor(self):
        specs = [
            JobSpec(benchmark=b, scheme_key=s, scale=float(SCALE))
            for b in ("art", "equake")
            for s in ("smarq", "itanium", "none")
        ]
        serial = [
            r.report.to_dict() for r in SerialExecutor().run(specs)
        ]
        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                outcome = client.submit(specs)
        assert outcome.failed == 0
        served = [r.report.to_dict() for r in outcome.results]
        assert served == serial
        # results stream in submission order
        assert [r.index for r in outcome.results] == list(range(len(specs)))
