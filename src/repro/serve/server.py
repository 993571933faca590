"""The ``repro serve`` daemon: a warm, batched simulation/translation server.

One long-lived process keeps every process-wide optimization tier warm
across requests — the content-keyed region translation cache with the
replay kernels its entries hold, per-region timing plans, and the
persistent report cache — so repeat traffic skips straight past the
work a cold CLI process would redo from zero.

Architecture (all threads daemonic, one process):

* an **accept loop** (:class:`socketserver.ThreadingTCPServer`) spawns
  one handler thread per connection speaking the newline-delimited JSON
  protocol of :mod:`repro.serve.protocol`;
* handler threads validate requests and claim
  :class:`~repro.serve.jobqueue.Ticket` s from the shared
  :class:`~repro.serve.jobqueue.JobQueue` (in-flight dedupe + bounded
  LRU result memo), then stream each job's result in submission order
  as its future resolves;
* a single **dispatcher thread** drains the queue in batches and runs
  them through one warm :class:`~repro.engine.core.ExecutionEngine`
  (serial in-process for maximum cache warmth, or sharded across a
  persistent keep-alive worker pool with ``jobs > 1``);
* a batch that fails wholesale is retried job-by-job so one poisoned
  spec fails alone with a structured error while its batch-mates
  complete.

A client disconnecting mid-stream never cancels its jobs: the dispatcher
finishes them and the memo keeps the results, so the retry that always
follows a dropped connection is served warm. Graceful shutdown
(``{"op": "shutdown", "drain": true}``) closes the queue to new work,
drains what is already accepted, then exits.
"""

from __future__ import annotations

import socketserver
import threading
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Dict, Optional, Tuple

from repro import knobs
from repro.engine.cache import NullCache, ReportCache
from repro.engine.core import ExecutionEngine
from repro.engine.executor import ParallelExecutor, SerialExecutor
from repro.engine.instrumentation import Tracer
from repro.engine.jobs import JobResult
from repro.serve import protocol
from repro.serve.jobqueue import JobQueue, Ticket, VIA_NEW
from repro.serve.protocol import ProtocolError, error_message


@dataclass
class ServeConfig:
    """Everything the daemon's lifecycle depends on."""

    host: str = "127.0.0.1"
    #: 0 picks an ephemeral port (reported by :meth:`ReproServer.start`)
    port: int = 0
    #: worker processes; <= 1 runs jobs in-process (warmest caches)
    jobs: int = 1
    #: persistent report cache (``$REPRO_CACHE_DIR`` / ``~/.cache/repro``)
    cache: bool = True
    #: explicit cache root (overrides the environment variable)
    cache_dir: Optional[Path] = None
    #: in-memory result memo entries (0 disables the RAM tier)
    memo_limit: int = 512
    max_request_bytes: int = protocol.MAX_REQUEST_BYTES
    #: jobs accepted per submit request
    max_batch: int = 1024
    #: dispatcher poll interval while idle
    poll_s: float = 0.05


class _TcpServer(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True
    repro: "ReproServer"


class _Handler(socketserver.StreamRequestHandler):
    """One connection: framed request loop with structured error replies."""

    # Result lines are small; Nagle + delayed ACK would add ~40ms to every
    # memo-hit response, dwarfing the response itself.
    disable_nagle_algorithm = True

    def handle(self) -> None:  # noqa: C901 - one dispatch ladder
        server: ReproServer = self.server.repro
        server.connections_opened += 1
        while True:
            try:
                line = protocol.read_request_line(
                    self.rfile, server.config.max_request_bytes
                )
            except ProtocolError as exc:
                # The stream position is unrecoverable past an oversized
                # line: answer, then close this connection only.
                self._send(error_message(exc.code, exc.detail))
                return
            if line is None:
                return
            try:
                message = protocol.decode_line(line)
                if not self._dispatch(server, message):
                    return
            except ProtocolError as exc:
                if not self._send(error_message(exc.code, exc.detail)):
                    return

    # ------------------------------------------------------------------
    def _send(self, message: Dict[str, Any]) -> bool:
        """Write one response line; False once the client is gone."""
        try:
            self.wfile.write(protocol.encode_line(message))
            return True
        except OSError:
            return False

    def _dispatch(self, server: "ReproServer", message: Dict[str, Any]) -> bool:
        op = message.get("op")
        if op == "ping":
            return self._send(
                {"type": "pong", "protocol": protocol.PROTOCOL_VERSION}
            )
        if op == "stats":
            return self._send(server.stats_snapshot())
        if op == "submit":
            return self._handle_submit(server, message)
        if op == "shutdown":
            self._handle_shutdown(server, message)
            return False
        raise ProtocolError(
            protocol.E_BAD_REQUEST, f"unknown op {op!r}"
        )

    # ------------------------------------------------------------------
    def _handle_submit(
        self, server: "ReproServer", message: Dict[str, Any]
    ) -> bool:
        jobs = message.get("jobs")
        if not isinstance(jobs, list) or not jobs:
            raise ProtocolError(
                protocol.E_BAD_REQUEST,
                "submit.jobs must be a non-empty list",
            )
        if len(jobs) > server.config.max_batch:
            raise ProtocolError(
                protocol.E_BAD_REQUEST,
                f"submit batch of {len(jobs)} exceeds max_batch "
                f"{server.config.max_batch}",
            )
        specs = [protocol.spec_from_wire(wire) for wire in jobs]
        try:
            tickets = server.queue.submit(specs)
        except RuntimeError:
            raise ProtocolError(
                protocol.E_SHUTTING_DOWN,
                "server is draining; no new work accepted",
            )
        if not self._send({"type": "accepted", "jobs": len(tickets)}):
            return False
        failed = 0
        client_gone = False
        for index, ticket in enumerate(tickets):
            line = self._result_line(index, ticket)
            if line.get("ok") is False:
                failed += 1
            if not client_gone and not self._send(line):
                # Client went away mid-stream. Jobs already queued keep
                # running and land in the memo; just stop writing.
                client_gone = True
        if client_gone:
            return False
        return self._send(
            {
                "type": "done",
                "jobs": len(tickets),
                "failed": failed,
                "dedup": sum(1 for t in tickets if t.via == "dedup"),
                "memo": sum(1 for t in tickets if t.via == "memo"),
                "queue_depth": server.queue.queue_depth,
            }
        )

    @staticmethod
    def _result_line(index: int, ticket: Ticket) -> Dict[str, Any]:
        try:
            result: JobResult = ticket.future.result()
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            return {
                "type": "result",
                "index": index,
                "ok": False,
                "code": protocol.E_JOB_FAILED,
                "error": f"{type(exc).__name__}: {exc}",
                "fingerprint": ticket.fingerprint,
                "via": ticket.via,
            }
        return {
            "type": "result",
            "index": index,
            "ok": True,
            "fingerprint": ticket.fingerprint,
            "via": ticket.via,
            "from_cache": bool(result.from_cache or ticket.via != VIA_NEW),
            "report": result.report.to_dict(),
        }

    def _handle_shutdown(
        self, server: "ReproServer", message: Dict[str, Any]
    ) -> None:
        drain = bool(message.get("drain", True))
        server.queue.close()
        dropped = 0
        if drain:
            while not server.queue.idle:
                time.sleep(server.config.poll_s)
        else:
            dropped = server.queue.abandon()
        self._send(
            {
                "type": "bye",
                "drained": server.queue.completed,
                "dropped": dropped,
            }
        )
        # Stop the accept loop from outside the handler thread so this
        # handler can return while serve_forever unwinds.
        threading.Thread(target=server.stop, daemon=True).start()


class ReproServer:
    """Lifecycle owner: engine + queue + dispatcher + TCP accept loop."""

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.config = config or ServeConfig()
        cache = (
            ReportCache(self.config.cache_dir)
            if self.config.cache
            else NullCache()
        )
        if self.config.jobs > 1:
            self._executor = ParallelExecutor(
                max_workers=self.config.jobs, keep_alive=True
            )
        else:
            self._executor = SerialExecutor()
        self.engine = ExecutionEngine(
            executor=self._executor, cache=cache, tracer=Tracer()
        )
        self.queue = JobQueue(memo_limit=self.config.memo_limit)
        self.connections_opened = 0
        self.started_at = time.time()
        self._tcp: Optional[_TcpServer] = None
        self._accept_thread: Optional[threading.Thread] = None
        self._dispatch_thread: Optional[threading.Thread] = None
        self._stop = threading.Event()
        self._stopped = threading.Event()

    # ------------------------------------------------------------------
    @property
    def address(self) -> Tuple[str, int]:
        if self._tcp is None:
            raise RuntimeError("server not started")
        host, port = self._tcp.server_address[:2]
        return host, port

    def start(self) -> Tuple[str, int]:
        """Bind, spawn the accept loop + dispatcher; returns (host, port)."""
        self._tcp = _TcpServer(
            (self.config.host, self.config.port), _Handler
        )
        self._tcp.repro = self
        self.started_at = time.time()
        self._dispatch_thread = threading.Thread(
            target=self._dispatch_loop, name="repro-serve-dispatch",
            daemon=True,
        )
        self._dispatch_thread.start()
        self._accept_thread = threading.Thread(
            target=self._tcp.serve_forever, name="repro-serve-accept",
            daemon=True,
        )
        self._accept_thread.start()
        return self.address

    def stop(self) -> None:
        """Tear everything down (idempotent)."""
        if self._stop.is_set():
            self._stopped.wait(5.0)
            return
        self._stop.set()
        self.queue.close()
        if self._tcp is not None:
            self._tcp.shutdown()
            self._tcp.server_close()
        if self._dispatch_thread is not None:
            self._dispatch_thread.join(timeout=10.0)
        close = getattr(self._executor, "close", None)
        if close is not None:
            close()
        self._stopped.set()

    def wait(self, timeout: Optional[float] = None) -> bool:
        """Block until the server has stopped (the CLI's foreground mode)."""
        return self._stopped.wait(timeout)

    # ------------------------------------------------------------------
    def _dispatch_loop(self) -> None:
        while not self._stop.is_set():
            batch = self.queue.drain_batch(
                timeout=self.config.poll_s,
                max_batch=self.config.max_batch,
            )
            if batch:
                self._run_batch(batch)
        # Drain leftovers accepted before stop so no future hangs.
        leftovers = self.queue.drain_batch(timeout=0.0)
        for fingerprint, _spec in leftovers:
            self.queue.fail(
                fingerprint, RuntimeError("server stopped before execution")
            )

    def _run_batch(self, batch) -> None:
        specs = [spec for _fp, spec in batch]
        try:
            results = self.engine.run_results(specs)
        except Exception:
            # Poisoned batch: isolate the failure job by job so the good
            # jobs still complete and only the bad one errors out.
            for fingerprint, spec in batch:
                try:
                    result = self.engine.run_results([spec])[0]
                except Exception as exc:
                    self.queue.fail(fingerprint, exc)
                else:
                    self.queue.complete(fingerprint, result)
            return
        for (fingerprint, _spec), result in zip(batch, results):
            self.queue.complete(fingerprint, result)

    # ------------------------------------------------------------------
    def stats_snapshot(self) -> Dict[str, Any]:
        """The ``stats`` endpoint payload (see docs/SERVE.md)."""
        stats = self.engine.stats
        return {
            "type": "stats",
            "protocol": protocol.PROTOCOL_VERSION,
            "uptime_s": time.time() - self.started_at,
            "workers": self.config.jobs,
            "connections": self.connections_opened,
            "jobs": {
                "submitted": self.queue.submitted,
                "completed": self.queue.completed,
                "failed": self.queue.failed,
                "dedup_hits": self.queue.dedup_hits,
            },
            "queue": {
                "depth": self.queue.queue_depth,
                "inflight": self.queue.inflight,
            },
            "memo": {
                "size": len(self.queue.memo),
                "limit": self.queue.memo.limit,
                "hits": self.queue.memo.hits,
                "evictions": self.queue.memo.evictions,
            },
            "engine": {
                "jobs": stats.jobs,
                "cache_hits": stats.cache_hits,
                "cache_misses": stats.cache_misses,
                "simulated_runs": stats.simulated_runs,
                "serial_fallbacks": stats.serial_fallbacks,
                "wall_seconds": stats.wall_seconds,
            },
            "counters": dict(self.engine.tracer.counters),
            # the daemon's environment decides every knob of its runs
            "knobs": {k.name: knobs.value(k.name) for k in knobs.KNOBS},
        }


# ----------------------------------------------------------------------
# Test/embedding helper
# ----------------------------------------------------------------------
class running_server:
    """Context manager: a started server, stopped on exit.

    >>> with running_server(ServeConfig(memo_limit=8)) as server:
    ...     host, port = server.address
    """

    def __init__(self, config: Optional[ServeConfig] = None) -> None:
        self.server = ReproServer(config)

    def __enter__(self) -> ReproServer:
        self.server.start()
        return self.server

    def __exit__(self, *exc_info) -> None:
        self.server.stop()
