"""Exception hierarchy for the TASM reproduction.

Every error raised by the library derives from :class:`TasmError` so that
callers can catch a single base class.  Subclasses are grouped by the
subsystem that raises them (codec, layout, index, storage, query).
"""

from __future__ import annotations


class TasmError(Exception):
    """Base class for every error raised by this library."""


class ConfigurationError(TasmError):
    """Raised when a configuration value is invalid (e.g. negative threshold)."""


class GeometryError(TasmError):
    """Raised for malformed rectangles or bounding boxes."""


class LayoutError(TasmError):
    """Raised when a tile layout is invalid.

    Examples include rows/columns that do not cover the frame, tiles smaller
    than the codec's minimum tile dimensions, or a layout whose dimensions do
    not match the frame it is applied to.
    """


class CodecError(TasmError):
    """Raised by the simulated codec for malformed bitstreams or parameters."""


class BitstreamCorruptionError(CodecError):
    """Raised when decoding an encoded tile whose payload fails validation."""


class IndexError_(TasmError):
    """Raised by the semantic index for invalid keys or queries.

    The trailing underscore avoids shadowing the builtin ``IndexError``.
    """


class StorageError(TasmError):
    """Raised by the tiled-video storage layer (missing SOTs, bad paths)."""


class QueryError(TasmError):
    """Raised for malformed queries or predicates."""


class UnknownVideoError(StorageError):
    """Raised when an operation references a video that was never ingested."""


class UnknownLabelError(QueryError):
    """Raised when a query references a label absent from the semantic index
    and the caller asked for strict label checking."""


class DetectionError(TasmError):
    """Raised by the simulated object detectors."""


class WorkloadError(TasmError):
    """Raised by workload generators for inconsistent parameters."""


class ServiceError(TasmError):
    """Raised by the service layer (server stopped, transport failure, or an
    error propagated from a batch a streamed query belonged to)."""


class StreamCancelledError(ServiceError):
    """Raised when waiting on a stream whose consumer cancelled it.

    ``ResultStream.close()`` (and its remote mirror, which additionally sends
    a ``CANCEL`` frame so the server stops producing) moves the stream to
    this terminal state; any later ``result()`` or iteration raises instead
    of waiting for chunks that will never come."""


class DeadlineExceeded(ServiceError):
    """Raised when a query's ``deadline_ms`` elapsed before it completed.

    The scheduler enforces deadlines at two points: a query still *pending*
    when its deadline passes is dropped before ever entering a batch, and a
    query already *executing* is abandoned mid-batch through the executor's
    cancelled-probe — the remaining per-SOT decodes are skipped, so an
    expired query stops costing runner time within roughly one SOT."""


class ServerBusy(ServiceError):
    """Raised when admission control refuses a query (``SERVER_BUSY``).

    Two shedders raise it: the fast-fail depth bound (the pending queue is
    already ``service_max_queue_depth`` deep — the query is refused before a
    trace or stream is allocated) and the queue-wait breaker (queue-wait p95
    crossed ``service_shed_queue_wait_ms`` — the lowest-priority pending
    queries are shed to drain the backlog).  Clients should back off and
    retry; the request was never executed."""


class PoisonQueryError(ServiceError):
    """Raised for a query that crashed the batch runner executing it
    ``service_poison_query_kills`` times.

    The supervisor restarts crashed runners and re-queues their batches'
    unaffected queries, but a query whose execution keeps killing runners
    would take the pool down serially forever; after K kills it is
    quarantined with this error instead of being re-queued again."""


#: Machine-readable wire codes for the typed service errors, so a remote
#: client can rebuild the exception class from an error reply.  Checked in
#: order; the first ``isinstance`` match wins.
_WIRE_ERROR_CODES: tuple[tuple[type, str], ...] = (
    (DeadlineExceeded, "deadline"),
    (ServerBusy, "busy"),
    (PoisonQueryError, "poison"),
    (StreamCancelledError, "cancelled"),
)

_WIRE_CODE_CLASSES = {code: cls for cls, code in _WIRE_ERROR_CODES}


def error_code(error: BaseException) -> "str | None":
    """The wire code for ``error`` (walking its cause chain), or None."""
    seen = 0
    while error is not None and seen < 8:
        for cls, code in _WIRE_ERROR_CODES:
            if isinstance(error, cls):
                return code
        error = error.__cause__
        seen += 1
    return None


def stream_error(error: BaseException, prefix: str) -> "ServiceError":
    """The exception a stream's consumer raises for its terminal ``error``.

    The message is ``f"{prefix}: {error}"``.  The failure's
    :class:`ServiceError` subclass (deadline, busy, poison, cancelled...) is
    kept so callers can branch on the outcome without string-matching; a
    foreign exception type, or a subclass whose constructor needs extra
    arguments, falls back to plain ``ServiceError``.
    """
    message = f"{prefix}: {error}"
    cls = type(error) if isinstance(error, ServiceError) else ServiceError
    try:
        return cls(message)
    except Exception:  # noqa: BLE001 — a ctor needing extra args
        return ServiceError(message)


def error_from_code(code: "str | None", message: str) -> "ServiceError":
    """Rebuild the typed ServiceError a wire error reply encodes."""
    cls = _WIRE_CODE_CLASSES.get(code, ServiceError)
    return cls(message)


class TransportError(ServiceError):
    """Raised by the socket transport for wire-level failures.

    The defining case is a connection that dies *inside* a frame: the frame
    header promised more bytes than ever arrived, so whatever was received is
    truncated and must not be silently treated as a clean end of stream.
    Protocol violations (unknown frame kinds, malformed headers) raise this
    too, so callers can distinguish "the wire broke" from server-reported
    query failures."""


class ProtocolError(TransportError):
    """Raised when the two ends of the wire disagree about the protocol.

    The hello handshake pins the protocol version (and negotiates the
    optional shared-memory pixel path); a peer speaking a different version
    gets this instead of silently desynchronising the byte stream."""
