"""Wire protocol for the ``repro serve`` daemon.

Newline-delimited JSON over a local TCP socket: every request is one
JSON object on one line, every response is one JSON object per line.
The framing is deliberately trivial — a request that does not parse, or
that exceeds the size cap, yields a structured ``error`` response
instead of a crash, and the connection stays usable (except for
oversized requests, where the stream position is unrecoverable and the
server closes the connection after responding).

Requests (the ``op`` field selects the operation):

``{"op": "ping"}``
    Liveness probe; answered with ``{"type": "pong"}``.
``{"op": "submit", "jobs": [<job>, ...]}``
    Batched job submission. The server streams one ``result`` line per
    job *in submission order*, then a ``done`` trailer with batch-level
    facts (dedupe/memo hits, failures, queue depth).
``{"op": "stats"}``
    Server statistics snapshot (see :meth:`ReproServer.stats_snapshot`).
``{"op": "shutdown", "drain": true}``
    Graceful shutdown: the server stops accepting work, finishes every
    queued job (``drain=false`` abandons the queue), answers ``bye`` and
    exits.

A ``<job>`` is the wire form of :class:`~repro.engine.jobs.JobSpec`
produced by :func:`spec_to_wire`: plain JSON naming the benchmark, the
scheme (one of :data:`~repro.sim.schemes.SCHEME_NAMES`), the scale and
the hot threshold. Nothing on the wire is deserialized beyond JSON, and
a job with any other field is rejected (see docs/SERVE.md for the
threat model).
"""

from __future__ import annotations

import json
from typing import Any, Dict, Optional

from repro.engine.jobs import JobSpec

PROTOCOL_VERSION = 2

#: the fields of one wire job; any other field is rejected
JOB_FIELDS = ("benchmark", "scheme_key", "scale", "hot_threshold")

#: default cap on one request line (a full figures sweep batch is ~20 KB)
MAX_REQUEST_BYTES = 8 * 1024 * 1024

#: machine-readable error codes carried on ``error`` responses
E_BAD_JSON = "bad-json"
E_BAD_REQUEST = "bad-request"
E_BAD_SPEC = "bad-spec"
E_TOO_LARGE = "too-large"
E_SHUTTING_DOWN = "shutting-down"
E_JOB_FAILED = "job-failed"


class ProtocolError(Exception):
    """A request the server must answer with a structured error."""

    def __init__(self, code: str, detail: str) -> None:
        super().__init__(detail)
        self.code = code
        self.detail = detail


def encode_line(message: Dict[str, Any]) -> bytes:
    """One response/request object as a newline-terminated JSON line."""
    return json.dumps(message, separators=(",", ":")).encode("utf-8") + b"\n"


def decode_line(line: bytes) -> Dict[str, Any]:
    """Parse one request line; raises :class:`ProtocolError` on garbage."""
    try:
        message = json.loads(line.decode("utf-8"))
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(E_BAD_JSON, f"request is not valid JSON: {exc}")
    if not isinstance(message, dict):
        raise ProtocolError(E_BAD_REQUEST, "request must be a JSON object")
    return message


def error_message(code: str, detail: str) -> Dict[str, Any]:
    return {"type": "error", "code": code, "error": detail}


# ----------------------------------------------------------------------
# JobSpec <-> wire form
# ----------------------------------------------------------------------
def spec_to_wire(spec: JobSpec) -> Dict[str, Any]:
    """JSON-safe form of one job spec."""
    return {name: getattr(spec, name) for name in JOB_FIELDS}


def spec_from_wire(wire: Any) -> JobSpec:
    """Rebuild a validated :class:`JobSpec` from its wire form.

    Raises :class:`ProtocolError` (``bad-spec``) on any malformed field,
    so one bad job yields a structured error, never a server traceback.
    """
    if not isinstance(wire, dict):
        raise ProtocolError(E_BAD_SPEC, "job must be a JSON object")
    unknown = wire.keys() - JOB_FIELDS
    if unknown:
        raise ProtocolError(
            E_BAD_SPEC,
            f"unknown job fields {sorted(unknown)}; expected {JOB_FIELDS}",
        )
    benchmark = wire.get("benchmark")
    scheme_key = wire.get("scheme_key")
    if not isinstance(benchmark, str) or not benchmark:
        raise ProtocolError(E_BAD_SPEC, "job.benchmark must be a string")
    if not isinstance(scheme_key, str) or not scheme_key:
        raise ProtocolError(E_BAD_SPEC, "job.scheme_key must be a string")
    scale = wire.get("scale", 0.25)
    hot_threshold = wire.get("hot_threshold", 20)
    if not isinstance(scale, (int, float)) or isinstance(scale, bool):
        raise ProtocolError(E_BAD_SPEC, "job.scale must be a number")
    if not isinstance(hot_threshold, int) or isinstance(hot_threshold, bool):
        raise ProtocolError(
            E_BAD_SPEC, "job.hot_threshold must be an integer"
        )
    spec = JobSpec(
        benchmark=benchmark,
        scheme_key=scheme_key,
        scale=float(scale),
        hot_threshold=hot_threshold,
    )
    try:
        spec.validate()
    except ValueError as exc:
        raise ProtocolError(E_BAD_SPEC, str(exc))
    return spec


# ----------------------------------------------------------------------
# Buffered line reading with a hard size cap
# ----------------------------------------------------------------------
def read_request_line(
    stream, max_bytes: int = MAX_REQUEST_BYTES
) -> Optional[bytes]:
    """One framed request line from a buffered binary stream.

    Returns ``None`` on a clean EOF (client closed the connection; a
    truncated trailing fragment without its newline is discarded — the
    client went away mid-write, there is nobody to answer). Raises
    :class:`ProtocolError` (``too-large``) when a line exceeds
    ``max_bytes`` before its newline arrives.
    """
    line = stream.readline(max_bytes + 1)
    if not line:
        return None
    if not line.endswith(b"\n"):
        if len(line) > max_bytes:
            raise ProtocolError(
                E_TOO_LARGE,
                f"request exceeds {max_bytes} bytes before newline",
            )
        return None  # truncated final fragment: client disconnected
    return line
