"""Client side of the serve protocol: raw client + engine adapter.

:class:`ServeClient` speaks the newline-delimited JSON protocol over one
persistent TCP connection (requests are sequential per connection — open
more clients for concurrency). :class:`RemoteEngine` adapts a client to
the :class:`~repro.engine.core.ExecutionEngine` surface that
:class:`~repro.eval.suite.SuiteRunner` drives (``run`` / ``run_one``,
plus ``render_stats`` for ``--stats``), so the entire figures pipeline
can run against a live server with only ``--serve host:port``.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass, field
from typing import Any, Dict, Iterator, List, Optional, Sequence, Tuple

from repro.engine.core import counter_lines
from repro.engine.jobs import JobSpec
from repro.serve import protocol
from repro.sim.dbt import DbtReport


class ServeError(RuntimeError):
    """A structured error response (or transport failure) from the server."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(f"[{code}] {detail}")
        self.code = code
        self.detail = detail


@dataclass
class RemoteResult:
    """One streamed per-job result line, decoded."""

    index: int
    ok: bool
    fingerprint: str
    via: str
    from_cache: bool = False
    report: Optional[DbtReport] = None
    error: str = ""


@dataclass
class BatchOutcome:
    """A full submit exchange: per-job results plus the done trailer."""

    results: List[RemoteResult]
    done: Dict[str, Any] = field(default_factory=dict)

    @property
    def failed(self) -> int:
        return sum(1 for r in self.results if not r.ok)

    def reports(self) -> List[DbtReport]:
        """Reports in submission order; raises on any failed job."""
        out: List[DbtReport] = []
        for result in self.results:
            if not result.ok or result.report is None:
                raise ServeError(protocol.E_JOB_FAILED, result.error)
            out.append(result.report)
        return out


def parse_address(address: str) -> Tuple[str, int]:
    """``host:port`` (or bare ``:port`` / ``port``) -> (host, port)."""
    host, sep, port = address.rpartition(":")
    if not sep:
        host, port = "", address
    try:
        return host or "127.0.0.1", int(port)
    except ValueError:
        raise ValueError(f"bad server address {address!r}; want host:port")


class ServeClient:
    """One persistent connection to a ``repro serve`` daemon."""

    def __init__(
        self,
        address: Tuple[str, int],
        timeout: Optional[float] = None,
        connect_retries: int = 0,
        retry_delay: float = 0.1,
    ) -> None:
        self.address = address
        last_error: Optional[OSError] = None
        for _ in range(max(1, connect_retries + 1)):
            try:
                self._sock = socket.create_connection(address, timeout=timeout)
                # Small request lines; Nagle would serialize them behind
                # delayed ACKs (~40ms) for no bandwidth win on loopback.
                self._sock.setsockopt(
                    socket.IPPROTO_TCP, socket.TCP_NODELAY, 1
                )
                break
            except OSError as exc:
                last_error = exc
                import time

                time.sleep(retry_delay)
        else:
            raise ConnectionError(
                f"cannot reach repro serve at {address}: {last_error}"
            )
        self._rfile = self._sock.makefile("rb")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._rfile.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    def _send(self, message: Dict[str, Any]) -> None:
        self._sock.sendall(protocol.encode_line(message))

    def _recv(self) -> Dict[str, Any]:
        line = self._rfile.readline()
        if not line:
            raise ServeError(
                "connection-closed", "server closed the connection"
            )
        message = protocol.decode_line(line)
        if message.get("type") == "error":
            raise ServeError(
                message.get("code", "unknown"),
                message.get("error", "unspecified server error"),
            )
        return message

    # ------------------------------------------------------------------
    def ping(self) -> Dict[str, Any]:
        self._send({"op": "ping"})
        return self._recv()

    def stats(self) -> Dict[str, Any]:
        self._send({"op": "stats"})
        return self._recv()

    def shutdown(self, drain: bool = True) -> Dict[str, Any]:
        self._send({"op": "shutdown", "drain": drain})
        return self._recv()

    # ------------------------------------------------------------------
    def submit_iter(
        self, specs: Sequence[JobSpec]
    ) -> Iterator[RemoteResult]:
        """Submit a batch; yield each job's result as it streams in.

        The final ``done`` trailer is stored on :attr:`last_done`.
        """
        self.last_done: Dict[str, Any] = {}
        self._send(
            {
                "op": "submit",
                "jobs": [protocol.spec_to_wire(spec) for spec in specs],
            }
        )
        accepted = self._recv()
        if accepted.get("type") != "accepted":
            raise ServeError(
                "protocol", f"expected accepted, got {accepted!r}"
            )
        while True:
            message = self._recv()
            kind = message.get("type")
            if kind == "done":
                self.last_done = message
                return
            if kind != "result":
                raise ServeError(
                    "protocol", f"unexpected mid-stream message {message!r}"
                )
            report = None
            if message.get("ok") and message.get("report") is not None:
                report = DbtReport.from_dict(message["report"])
            yield RemoteResult(
                index=message.get("index", -1),
                ok=bool(message.get("ok")),
                fingerprint=message.get("fingerprint", ""),
                via=message.get("via", ""),
                from_cache=bool(message.get("from_cache")),
                report=report,
                error=message.get("error", ""),
            )

    def submit(self, specs: Sequence[JobSpec]) -> BatchOutcome:
        """Submit a batch and collect the whole outcome."""
        results = list(self.submit_iter(specs))
        return BatchOutcome(results=results, done=dict(self.last_done))


class RemoteEngine:
    """ExecutionEngine-shaped adapter running every job on a server.

    Drop-in for :class:`~repro.eval.suite.SuiteRunner`'s ``engine``
    argument: ``run`` submits the batch and returns reports in order
    (raising :class:`ServeError` if any job failed — figure rendering
    must never silently continue on a hole), ``render_stats`` formats
    the server's stats endpoint for ``--stats``.
    """

    def __init__(self, client: ServeClient) -> None:
        self.client = client

    def run(self, specs: Sequence[JobSpec]) -> List[DbtReport]:
        specs = list(specs)
        if not specs:
            return []
        return self.client.submit(specs).reports()

    def run_one(self, spec: JobSpec) -> DbtReport:
        return self.run([spec])[0]

    def render_stats(self) -> str:
        stats = self.client.stats()
        jobs = stats.get("jobs", {})
        queue = stats.get("queue", {})
        memo = stats.get("memo", {})
        engine = stats.get("engine", {})
        lines = [
            "Server statistics",
            "=================",
            f"address               : "
            f"{self.client.address[0]}:{self.client.address[1]}",
            f"uptime                : {stats.get('uptime_s', 0.0):.1f}s "
            f"({stats.get('connections', 0)} connections, "
            f"{stats.get('workers', 0)} workers)",
            f"jobs                  : {jobs.get('submitted', 0)} submitted / "
            f"{jobs.get('completed', 0)} completed / "
            f"{jobs.get('failed', 0)} failed",
            f"in-flight dedupe      : {jobs.get('dedup_hits', 0)} coalesced",
            f"queue                 : depth {queue.get('depth', 0)}, "
            f"in-flight {queue.get('inflight', 0)}",
            f"result memo           : {memo.get('size', 0)}/"
            f"{memo.get('limit', 0)} entries, {memo.get('hits', 0)} hits, "
            f"{memo.get('evictions', 0)} evictions",
            f"report cache          : {engine.get('cache_hits', 0)} hits / "
            f"{engine.get('cache_misses', 0)} misses "
            f"({engine.get('simulated_runs', 0)} simulated)",
        ]
        return "\n".join(lines + counter_lines(stats.get("counters", {})))
