"""The typed, versioned request/response protocol of the compiler server.

One tagged union of request dataclasses covers everything the serving
stack can be asked to do — point liveness queries, multi-function
batches, whole live sets, out-of-SSA translation, register allocation
and front-end compilation — and every request type has a matching
response type carrying either a payload or a structured
:class:`~repro.api.errors.ApiError` (never a raw exception).

Every request and response encodes to JSON and decodes back **losslessly**
(``decode(encode(x)) == x``), so a service can be driven over a wire,
logged, and replayed; the envelope carries :data:`PROTOCOL_VERSION` and
decoding rejects envelopes from a different major version with an
``INVALID_REQUEST`` error instead of misinterpreting them.  Each message
is declared once, as a row of :data:`MESSAGES`; the JSON and bin2
encodings and the dispatch tables are all derived from that table.

Functions are addressed by :class:`~repro.api.handles.FunctionHandle`;
variables and blocks travel by *name* (strings are what survives a wire,
and names are unique within a function).
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import unique
from typing import NamedTuple, Union

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.handles import FunctionHandle
from repro.api.registry import FAST
from repro.api.schema import (
    ABSENT,
    API_ERROR,
    BITSET,
    BOOL,
    HANDLE,
    HANDLE_REF,
    JSON_BLOB,
    JSON_DECODER,
    STR,
    STR_INT_MAP,
    STR_PAIR,
    SVARINT,
    Kind,
    WireEnum,
    boxed,
    code,
    enum_code,
    list_of,
    optional,
    record,
)
from repro.core.incremental import CfgDelta

#: Version stamped on (and required in) every envelope.
PROTOCOL_VERSION = 1


@unique
class QueryKind(WireEnum):
    """Validated liveness query kind (was a bare ``"in"``/``"out"`` string).

    A ``str`` enum, so ``QueryKind.LIVE_IN == "in"`` — call sites (and one
    release's worth of callers) that still compare against or pass the old
    strings keep working; :meth:`coerce` is the single validation point
    that replaces the old silent acceptance of unknown kinds.
    """

    LIVE_IN = "in"
    LIVE_OUT = "out"


def _coerce_handle(function: "FunctionHandle | str") -> FunctionHandle:
    if isinstance(function, FunctionHandle):
        return function
    return FunctionHandle(name=function)


# ----------------------------------------------------------------------
# Requests
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class LivenessQuery:
    """One live-in/live-out question about one variable at one block."""

    function: FunctionHandle
    kind: QueryKind
    variable: str
    block: str

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", QueryKind.coerce(self.kind))


@dataclass(frozen=True)
class BatchLiveness:
    """An ordered stream of liveness questions spanning any number of
    functions, answered in order in one round trip."""

    queries: tuple[LivenessQuery, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "queries", tuple(self.queries))


@dataclass(frozen=True)
class LiveSetRequest:
    """The whole live-in (or live-out) set of one block, by variable name."""

    function: FunctionHandle
    block: str
    kind: QueryKind = QueryKind.LIVE_IN

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", QueryKind.coerce(self.kind))


@dataclass(frozen=True)
class DestructRequest:
    """Translate one function out of SSA form, in place, server-side."""

    function: FunctionHandle
    engine: str = FAST
    verify: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@dataclass(frozen=True)
class AllocateRequest:
    """Run the register-allocation pipeline on one function."""

    function: FunctionHandle
    num_registers: int | None = None
    engine: str = FAST
    destruct: bool = False

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@unique
class NotifyKind(WireEnum):
    """Which invalidation a :class:`NotifyRequest` routes (paper contract:
    CFG edits drop the precomputation, instruction edits only the plans)."""

    CFG = "cfg"
    INSTRUCTIONS = "instructions"


@dataclass(frozen=True)
class NotifyRequest:
    """Route one edit notification (the paper's invalidation contract)
    through the wire: bumps the function's revision, so every outstanding
    handle goes stale — the response carries a fresh one.

    CFG notifications may carry a :class:`~repro.core.incremental.CfgDelta`
    describing the edit (blocks are names here, so the delta is wire-safe);
    the service then tries to patch the resident precomputation instead of
    discarding it.  ``delta`` is ignored for instruction notifications and
    optional everywhere — an absent delta is the historical full
    invalidation."""

    function: FunctionHandle
    kind: NotifyKind = NotifyKind.INSTRUCTIONS
    delta: "CfgDelta | None" = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))
        object.__setattr__(self, "kind", NotifyKind.coerce(self.kind))
        if self.delta is not None and not isinstance(self.delta, CfgDelta):
            object.__setattr__(self, "delta", CfgDelta.from_json(self.delta))


@dataclass(frozen=True)
class EvictRequest:
    """Drop one function's resident checker (cache geometry only).

    Eviction does **not** bump the revision — a rebuilt checker answers
    identically, so outstanding handles stay valid; the response's handle
    is at the same revision the request found.
    """

    function: FunctionHandle

    def __post_init__(self) -> None:
        object.__setattr__(self, "function", _coerce_handle(self.function))


@dataclass(frozen=True)
class CompileSourceRequest:
    """Compile mini-language source text and register every function."""

    source: str
    module_name: str = "module"


@dataclass(frozen=True)
class StatsRequest:
    """Fetch the serving stack's metrics snapshot over the wire.

    ``reset=True`` additionally zeroes the instruments after the
    snapshot is taken — the read-and-reset is the interval-scraping
    idiom, built on :meth:`repro.utils.AtomicCounter.reset`'s
    snapshot-consistent get-and-set.  Introspection only: a stats
    request never touches functions, caches, or revisions, so it is
    response-invariant for every *other* request by construction.
    """

    reset: bool = False


# ----------------------------------------------------------------------
# Response payload records
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class DestructStats:
    """Wire-safe summary of one out-of-SSA translation."""

    engine: str = ""
    critical_edges_split: int = 0
    phis_isolated: int = 0
    parallel_copies: int = 0
    pairs_inserted: int = 0
    pairs_coalesced: int = 0
    classes_merged: int = 0
    interference_tests: int = 0
    liveness_queries: int = 0
    copies_emitted: int = 0
    temps_inserted: int = 0
    phis_removed: int = 0

    @classmethod
    def from_report(cls, report) -> "DestructStats":
        """Project a :class:`~repro.ssadestruct.pipeline.DestructReport`."""
        return cls(
            report.backend,
            *[getattr(report, name) for name in list(cls.__dataclass_fields__)[1:]],
        )


@dataclass(frozen=True)
class AllocationSummary:
    """Wire-safe summary of one register allocation, keyed by name."""

    #: Variable name → register number.
    registers: dict[str, int] = field(default_factory=dict)
    #: Spilled variable name → spill slot.
    spill_slots: dict[str, int] = field(default_factory=dict)
    registers_used: int = 0
    max_live: int = 0
    max_live_before_spill: int = 0
    #: Spilled variable names, in eviction order.
    spilled: tuple[str, ...] = ()
    reconstructed_ssa: bool = False

    @classmethod
    def from_allocation(cls, allocation) -> "AllocationSummary":
        """Project a :class:`~repro.regalloc.allocator.Allocation`."""
        return cls(
            registers={
                var.name: reg for var, reg in allocation.register_of.items()
            },
            spill_slots={
                var.name: slot
                for var, slot in allocation.spill_slot_of.items()
            },
            registers_used=allocation.registers_used,
            max_live=allocation.max_live,
            max_live_before_spill=allocation.max_live_before_spill,
            spilled=tuple(var.name for var in allocation.spilled),
            reconstructed_ssa=allocation.reconstructed_ssa,
        )


# ----------------------------------------------------------------------
# Responses — one per request type; payload XOR error
# ----------------------------------------------------------------------
class _Reply:
    """What every response shares: ``ok`` is "no error"."""

    @property
    def ok(self) -> bool:
        return self.error is None


@dataclass(frozen=True)
class LivenessResponse(_Reply):
    """Answer to one :class:`LivenessQuery`."""

    value: bool | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class BatchLivenessResponse(_Reply):
    """Answers to a :class:`BatchLiveness` stream, in request order."""

    values: tuple[bool, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.values is not None:
            object.__setattr__(self, "values", tuple(self.values))


@dataclass(frozen=True)
class LiveSetResponse(_Reply):
    """The requested block's live set, as sorted variable names."""

    variables: tuple[str, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.variables is not None:
            object.__setattr__(self, "variables", tuple(self.variables))


@dataclass(frozen=True)
class DestructResponse(_Reply):
    """Outcome of a :class:`DestructRequest`."""

    #: Handle at the function's *new* revision (the pass edits it).
    function: FunctionHandle | None = None
    stats: DestructStats | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class AllocateResponse(_Reply):
    """Outcome of an :class:`AllocateRequest`."""

    #: Handle at the function's *new* revision (allocation edits it).
    function: FunctionHandle | None = None
    allocation: AllocationSummary | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class NotifyResponse(_Reply):
    """Outcome of a :class:`NotifyRequest`."""

    #: Handle at the function's *new* (bumped) revision.
    function: FunctionHandle | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class EvictResponse(_Reply):
    """Outcome of an :class:`EvictRequest`.

    Deliberately does *not* say whether a checker was actually resident:
    cache geometry is unobservable through the protocol.  Residency at
    any instant depends on how concurrent readers' LRU touches happened
    to interleave, so reporting it would make responses diverge from
    their serial replay — the one thing the concurrent serving layer
    guarantees never happens.  (The same reasoning is why eviction does
    not bump revisions: a rebuilt checker answers identically.)
    """

    #: Handle at the function's *unchanged* revision (eviction never bumps).
    function: FunctionHandle | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class CompileSourceResponse(_Reply):
    """Handles for every function a :class:`CompileSourceRequest` produced."""

    functions: tuple[FunctionHandle, ...] | None = None
    error: ApiError | None = None

    def __post_init__(self) -> None:
        if self.functions is not None:
            object.__setattr__(self, "functions", tuple(self.functions))


@dataclass(frozen=True)
class StatsResponse(_Reply):
    """A canonical JSON metrics snapshot (see ``MetricsRegistry.snapshot``).

    ``snapshot`` is plain JSON data — key-sorted maps of counters,
    gauges and histograms — so it survives any number of wire hops
    losslessly; ``stats`` carries the service-level counter dict
    (per-shard hits/misses/evictions) for servers that expose one.
    """

    snapshot: dict | None = None
    stats: dict | None = None
    error: ApiError | None = None


@dataclass(frozen=True)
class ErrorResponse(_Reply):
    """Fallback response for requests that could not even be decoded.

    When a wire payload is malformed there is no request type to pick the
    matching response from; :meth:`repro.api.client.CompilerClient.dispatch_json`
    answers with one of these instead of raising across the boundary.
    """

    error: ApiError | None = None


# ----------------------------------------------------------------------
# The message table: every wire message declared once
# ----------------------------------------------------------------------
class Message(NamedTuple):
    """One row of :data:`MESSAGES`: a request type and its response type.

    ``opcode`` is the request's bin2 opcode; the response travels as
    ``opcode | 0x80``.  ``relay`` marks single-function requests whose
    frames a multi-process coordinator may forward verbatim (their only
    interned string is the leading handle's name).
    """

    tag: str
    opcode: int
    request: type | None
    request_kind: Kind | None
    response: type
    response_kind: Kind
    relay: bool


def _message(tag, opcode, request, request_fields, response, payload_fields, relay=False):
    if relay and request_fields[0][1] is not HANDLE_REF:
        raise TypeError(f"relayed {tag} frames must lead with the function handle")
    request_kind = None if request is None else record(request, request_fields)
    # Every response is its payload fields plus the error, last.
    response_kind = record(response, (*payload_fields, ("error", optional(API_ERROR), None)))
    return Message(tag, opcode, request, request_kind, response, response_kind, relay)


_QUERY_KIND = enum_code(QueryKind)
_QUERY_FIELDS = (
    ("function", HANDLE_REF),
    ("kind", _QUERY_KIND),
    ("variable", STR),
    ("block", STR),
)
_DESTRUCT_STATS = record(
    DestructStats,
    [("engine", STR, "")]
    + [(name, SVARINT, 0) for name in DestructStats.__dataclass_fields__ if name != "engine"],
)
_ALLOCATION_SUMMARY = record(
    AllocationSummary,
    (
        ("registers", STR_INT_MAP),
        ("spill_slots", STR_INT_MAP),
        ("registers_used", SVARINT),
        ("max_live", SVARINT),
        ("max_live_before_spill", SVARINT),
        ("spilled", list_of(STR)),
        ("reconstructed_ssa", BOOL),
    ),
)
_CFG_DELTA = record(
    CfgDelta,
    (
        ("added_edges", list_of(STR_PAIR), ()),
        ("removed_edges", list_of(STR_PAIR), ()),
        ("added_blocks", list_of(STR), ()),
        ("removed_blocks", list_of(STR), ()),
    ),
)

#: Every wire message: ``(tag, opcode, request, request fields, response,
#: response payload fields)``, fields in wire order; each response also
#: ends with its ``error``.  A field with a third item may be omitted
#: from a JSON body (it then takes that default).
MESSAGES: tuple[Message, ...] = (
    _message(
        "liveness_query", 0x01,
        LivenessQuery, _QUERY_FIELDS,
        LivenessResponse,
        (("value", code((False, True, None), "liveness value", None, optional(BOOL).from_json)),),
        relay=True,
    ),
    _message(
        "batch_liveness", 0x02,
        BatchLiveness, (("queries", list_of(record(LivenessQuery, _QUERY_FIELDS))),),
        BatchLivenessResponse, (("values", optional(BITSET)),),
    ),
    _message(
        "live_set", 0x03,
        LiveSetRequest,
        (("function", HANDLE_REF), ("block", STR), ("kind", _QUERY_KIND, QueryKind.LIVE_IN)),
        LiveSetResponse, (("variables", optional(list_of(STR))),),
        relay=True,
    ),
    _message(
        "destruct", 0x04,
        DestructRequest, (("function", HANDLE_REF), ("engine", STR, FAST), ("verify", BOOL, False)),
        DestructResponse, (("function", optional(HANDLE)), ("stats", optional(_DESTRUCT_STATS))),
    ),
    _message(
        "allocate", 0x05,
        AllocateRequest, (
            ("function", HANDLE_REF),
            ("num_registers", optional(SVARINT), None),
            ("engine", STR, FAST),
            ("destruct", BOOL, False),
        ),
        AllocateResponse,
        (("function", optional(HANDLE)), ("allocation", optional(_ALLOCATION_SUMMARY))),
    ),
    _message(
        "notify", 0x06,
        NotifyRequest, (
            ("function", HANDLE_REF),
            ("kind", enum_code(NotifyKind), NotifyKind.INSTRUCTIONS),
            ("delta", optional(_CFG_DELTA), ABSENT),
        ),
        NotifyResponse, (("function", optional(HANDLE)),),
    ),
    _message(
        "evict", 0x07,
        EvictRequest, (("function", HANDLE_REF),),
        EvictResponse, (("function", optional(HANDLE)),),
        relay=True,
    ),
    _message(
        "compile_source", 0x08,
        CompileSourceRequest, (("source", STR), ("module_name", STR, "module")),
        CompileSourceResponse, (("functions", optional(list_of(boxed(HANDLE)))),),
    ),
    _message(
        "stats", 0x09,
        StatsRequest, (("reset", BOOL, False),),
        StatsResponse, (("snapshot", JSON_BLOB), ("stats", JSON_BLOB, None)),
    ),
    # The answer to a request that could not even be decoded.
    _message("error", 0x7F, None, None, ErrorResponse, ()),
)

#: The request union, for type hints and isinstance dispatch.
Request = Union[tuple(row.request for row in MESSAGES if row.request)]
#: The response union.
Response = Union[tuple(row.response for row in MESSAGES if row.tag != "error")]

#: Wire tag ↔ request class.
REQUEST_TYPES: dict[str, type] = {row.tag: row.request for row in MESSAGES if row.request}
#: Wire tag ↔ response class.
RESPONSE_TYPES: dict[str, type] = {row.tag: row.response for row in MESSAGES}
#: Request class → matching response class (the dispatcher's error path).
RESPONSE_FOR: dict[type, type] = {
    row.request: row.response for row in MESSAGES if row.request
}

# class → (tag, body encoder) and tag → body decoder, per direction.
_REQUEST_ENCODERS = {
    row.request: (row.tag, row.request_kind.to_json) for row in MESSAGES if row.request
}
_RESPONSE_ENCODERS = {row.response: (row.tag, row.response_kind.to_json) for row in MESSAGES}
_REQUEST_DECODERS = {
    row.tag: row.request_kind.from_json for row in MESSAGES if row.request
}
_RESPONSE_DECODERS = {row.tag: row.response_kind.from_json for row in MESSAGES}


def _encode(message, encoders: dict) -> dict:
    entry = encoders.get(type(message))
    if entry is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"cannot encode {type(message).__name__} here",
        )
    tag, body = entry
    return {"api": PROTOCOL_VERSION, "type": tag, "body": body(message)}


def _decode(payload, decoders: dict):
    if isinstance(payload, (str, bytes)):
        if isinstance(payload, bytes):
            try:
                payload = payload.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST, f"envelope is not JSON: {exc}"
                ) from None
        try:
            payload = JSON_DECODER.decode(payload)
        except ValueError as exc:
            raise ProtocolError(
                ErrorCode.INVALID_REQUEST, f"envelope is not JSON: {exc}"
            ) from None
    if not isinstance(payload, dict):
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "envelope must be an object")
    version = payload.get("api")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"protocol version mismatch: got {version!r}, "
            f"this server speaks {PROTOCOL_VERSION}",
        )
    tag = payload.get("type")
    decoder = decoders.get(tag)
    if decoder is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"unknown message type {tag!r}"
        )
    try:
        return decoder(payload["body"])
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"malformed {tag} body: {exc}"
        ) from None


def encode_request(request: Request) -> dict:
    """Versioned JSON-ready envelope for ``request``."""
    return _encode(request, _REQUEST_ENCODERS)


def decode_request(payload) -> Request:
    """Inverse of :func:`encode_request`; accepts a dict or a JSON string."""
    return _decode(payload, _REQUEST_DECODERS)


def encode_response(response: Response) -> dict:
    """Versioned JSON-ready envelope for ``response``."""
    return _encode(response, _RESPONSE_ENCODERS)


def decode_response(payload) -> Response:
    """Inverse of :func:`encode_response`; accepts a dict or a JSON string."""
    return _decode(payload, _RESPONSE_DECODERS)


# ----------------------------------------------------------------------
# Trace context — optional envelope sidecar, version-safe by design
# ----------------------------------------------------------------------
#: Envelope key carrying the optional trace context.  Decoding reads the
#: envelope's ``api``/``type``/``body`` and ignores everything else, so
#: old servers drop the key silently and old payloads (which simply lack
#: it) keep decoding — no protocol version bump needed.
TRACE_KEY = "trace"


def attach_trace(envelope: dict, trace_id: str, parent_span: str | None = None) -> dict:
    """Stamp a request envelope with a trace context; returns the envelope.

    A traced caller sets ``trace_id`` (and optionally the id of the span
    the request is issued under) so the server's timing tree can be tied
    back to the client's.
    """
    context: dict = {"trace_id": str(trace_id)}
    if parent_span is not None:
        context["parent_span"] = str(parent_span)
    envelope[TRACE_KEY] = context
    return envelope


def trace_context(payload) -> tuple[str | None, str | None]:
    """Leniently extract ``(trace_id, parent_span)`` from a wire payload.

    Observability must never fail a request: any payload — garbage text,
    a non-object, a mistyped trace field — yields ``(None, None)``
    rather than an exception, leaving the normal decode path to produce
    its structured error.
    """
    if isinstance(payload, (str, bytes)):
        try:
            payload = json.loads(payload)
        except (ValueError, TypeError):
            return (None, None)
    if not isinstance(payload, dict):
        return (None, None)
    context = payload.get(TRACE_KEY)
    if not isinstance(context, dict):
        return (None, None)
    trace_id = context.get("trace_id")
    parent_span = context.get("parent_span")
    return (
        trace_id if isinstance(trace_id, str) and trace_id else None,
        parent_span if isinstance(parent_span, str) and parent_span else None,
    )
