"""Fault injection against the serve daemon: every failure mode the
daemon promises to absorb, provoked deliberately.

* a pool worker killed mid-job (``fault:exit-once``): the batch is
  retried serially, every job completes, and the daemon keeps serving;
* a job that always errors (``fault:error``): a structured per-job
  failure while its batch-mates complete;
* malformed, oversized, and truncated requests, and jobs with unknown
  fields: structured ``error`` responses (connection closed only where
  the stream is unrecoverable), never a crash — and no daemon module
  imports ``pickle``;
* a client disconnecting mid-stream: its jobs finish anyway and land in
  the memo, so the follow-up retry is served warm;
* graceful shutdown: accepted work drains, new work is refused with
  ``shutting-down``, and the process exits cleanly.

The ``fault:`` benchmarks are gated behind ``SMARQ_FAULT_BENCHMARKS=1``
(set per-test here); without the opt-in they are rejected like any
unknown benchmark.
"""

import ast
import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.engine.jobs import JobSpec
from repro.serve import ServeClient, ServeConfig, ServeError, running_server
from repro.serve import protocol

REAL = JobSpec(benchmark="art", scheme_key="smarq", scale=0.02)


def raw_exchange(address, payload: bytes):
    """Send raw bytes, return the response lines until the server stops
    answering (or half a second passes)."""
    with socket.create_connection(address, timeout=5.0) as sock:
        sock.sendall(payload)
        sock.settimeout(0.5)
        chunks = []
        try:
            while True:
                chunk = sock.recv(65536)
                if not chunk:
                    break
                chunks.append(chunk)
        except socket.timeout:
            pass
    return b"".join(chunks).splitlines()


class TestWorkerDeath:
    def test_killed_worker_retries_serially_and_server_survives(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("SMARQ_FAULT_BENCHMARKS", "1")
        marker = tmp_path / "killed-once"
        kill_spec = JobSpec(
            benchmark=f"fault:exit-once:{marker}",
            scheme_key="smarq",
            scale=0.02,
        )
        with running_server(
            ServeConfig(cache=False, jobs=2)
        ) as server:
            with ServeClient(server.address) as client:
                outcome = client.submit([kill_spec, REAL])
                # worker died mid-batch; the serial retry finished both
                assert outcome.failed == 0
                assert marker.exists()
                stats = client.stats()
                assert stats["engine"]["serial_fallbacks"] >= 1
                # the daemon is still fully alive afterwards
                assert client.ping()["type"] == "pong"
                assert client.submit([REAL]).failed == 0

    def test_fault_benchmarks_rejected_without_optin(self, monkeypatch):
        monkeypatch.delenv("SMARQ_FAULT_BENCHMARKS", raising=False)
        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                outcome = client.submit(
                    [JobSpec(benchmark="fault:error:x", scheme_key="smarq")]
                )
        assert outcome.failed == 1
        assert "SMARQ_FAULT_BENCHMARKS" in outcome.results[0].error


class TestPoisonedJob:
    def test_failing_job_errors_alone_batchmates_complete(
        self, monkeypatch
    ):
        monkeypatch.setenv("SMARQ_FAULT_BENCHMARKS", "1")
        bad = JobSpec(
            benchmark="fault:error:boom", scheme_key="smarq", scale=0.02
        )
        with running_server(ServeConfig(cache=False)) as server:
            with ServeClient(server.address) as client:
                outcome = client.submit([REAL, bad, REAL])
        assert outcome.failed == 1
        ok0, failed, ok2 = outcome.results
        assert ok0.ok and ok2.ok
        assert not failed.ok
        assert "RuntimeError" in failed.error
        assert outcome.done["failed"] == 1
        # BatchOutcome.reports refuses to paper over the hole
        with pytest.raises(ServeError):
            outcome.reports()


class TestMalformedRequests:
    def test_garbage_json_gets_error_and_connection_survives(self):
        with running_server(ServeConfig(cache=False)) as server:
            lines = raw_exchange(
                server.address,
                b"{not json}\n" + protocol.encode_line({"op": "ping"}),
            )
        first = json.loads(lines[0])
        assert first["type"] == "error"
        assert first["code"] == protocol.E_BAD_JSON
        # same connection answered the follow-up ping
        assert json.loads(lines[1])["type"] == "pong"

    def test_non_object_and_unknown_op_rejected(self):
        with running_server(ServeConfig(cache=False)) as server:
            lines = raw_exchange(
                server.address,
                b"[1,2,3]\n" + protocol.encode_line({"op": "dance"}),
            )
        assert json.loads(lines[0])["code"] == protocol.E_BAD_REQUEST
        assert json.loads(lines[1])["code"] == protocol.E_BAD_REQUEST

    def test_bad_spec_rejected_structurally(self):
        bad_jobs = [
            {"benchmark": 42},
            # a protocol-1 variant scheme: unknown fields fail closed
            {"benchmark": "art", "scheme_key": "smarq",
             "scheme_pickle": "gASVAAAAAAAAAAAu"},
        ]
        with running_server(ServeConfig(cache=False)) as server:
            for job in bad_jobs:
                lines = raw_exchange(
                    server.address,
                    protocol.encode_line({"op": "submit", "jobs": [job]}),
                )
                assert json.loads(lines[0])["code"] == protocol.E_BAD_SPEC

    def test_serve_never_imports_pickle(self):
        """No module of the daemon can deserialize client bytes."""
        for path in Path(protocol.__file__).parent.glob("*.py"):
            for node in ast.walk(ast.parse(path.read_text())):
                if isinstance(node, ast.Import):
                    names = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom):
                    names = [node.module or ""]
                else:
                    continue
                assert "pickle" not in names, path.name

    def test_oversized_request_answered_then_closed(self):
        config = ServeConfig(cache=False, max_request_bytes=1024)
        with running_server(config) as server:
            lines = raw_exchange(
                server.address, b"x" * 2048 + b"\n"
            )
            assert json.loads(lines[0])["code"] == protocol.E_TOO_LARGE
            # that connection is gone, but the server is not
            with ServeClient(server.address) as client:
                assert client.ping()["type"] == "pong"

    def test_truncated_request_is_dropped_silently(self):
        with running_server(ServeConfig(cache=False)) as server:
            # half a request, no newline, then the client vanishes
            lines = raw_exchange(server.address, b'{"op": "pi')
            assert lines == []
            with ServeClient(server.address) as client:
                assert client.ping()["type"] == "pong"


class TestClientDisconnect:
    def test_mid_stream_disconnect_completes_and_caches_job(self):
        spec = JobSpec(benchmark="art", scheme_key="smarq", scale=0.3)
        with running_server(ServeConfig(cache=False)) as server:
            # Submit, then hang up immediately without reading results.
            with socket.create_connection(server.address) as sock:
                sock.sendall(
                    protocol.encode_line(
                        {
                            "op": "submit",
                            "jobs": [protocol.spec_to_wire(spec)],
                        }
                    )
                )
            # The job must finish anyway and land in the memo: poll the
            # stats endpoint until it does.
            deadline = time.monotonic() + 30.0
            with ServeClient(server.address) as client:
                while time.monotonic() < deadline:
                    stats = client.stats()
                    if stats["jobs"]["completed"] >= 1:
                        break
                    time.sleep(0.05)
                assert stats["jobs"]["completed"] == 1
                # the retry a real client would issue is served warm
                retry = client.submit([spec])
                assert retry.failed == 0
                assert retry.results[0].via == "memo"


class TestGracefulShutdown:
    def test_drain_finishes_inflight_work_before_exit(self):
        spec = JobSpec(benchmark="art", scheme_key="smarq", scale=0.3)
        with running_server(ServeConfig(cache=False)) as server:
            outcomes = {}

            def submit():
                with ServeClient(server.address) as client:
                    outcomes["batch"] = client.submit([spec])

            worker = threading.Thread(target=submit)
            worker.start()
            # Let the submission reach the queue, then ask for a drain.
            time.sleep(0.05)
            with ServeClient(server.address) as client:
                bye = client.shutdown(drain=True)
            worker.join(timeout=30.0)
            assert not worker.is_alive()
        assert bye["type"] == "bye"
        assert bye["drained"] >= 1
        assert bye["dropped"] == 0
        assert outcomes["batch"].failed == 0
        assert server.wait(timeout=10.0)

    def test_submissions_after_drain_refused(self):
        with running_server(ServeConfig(cache=False)) as server:
            address = server.address
            with ServeClient(address) as client:
                client.shutdown(drain=True)
            assert server.wait(timeout=10.0)
            with pytest.raises((ServeError, ConnectionError, OSError)):
                with ServeClient(address) as late:
                    late.submit([REAL])
