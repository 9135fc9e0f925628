"""Pluggable wire codecs: canonical JSON beside a binary v2 encoding.

Table C showed the serving stack spending ~15-25x the kernel's own query
time on JSON envelopes; this module is the direct attack.  Two codecs
are registered:

``json`` (:data:`CODEC_JSON`)
    The canonical envelope of :mod:`repro.api.protocol`, serialized as
    compact UTF-8 text.  Unchanged semantics, still the debug/compat
    default — a pre-codec client keeps working against a binary-capable
    server without knowing this module exists.

``bin2`` (:data:`CODEC_BIN2`)
    A length-prefixed binary encoding.  Every message is one frame::

        len(u32 little-endian) | payload

        payload = magic(0xB2) version(u8) opcode(u8) string-defs body

    so a stream reader takes exact-size chunks instead of scanning for
    JSON boundaries.  Hot integer fields are struct-packed: request tags
    are one-byte opcodes, revisions and counts are varints (zigzag for
    signed values), batch answers travel as packed bitsets.  Function
    names are **interned per connection**: the first frame that mentions
    a name carries ``(ref, name)`` in its string-definitions block, and
    every later frame sends just the integer ref.  The table is reset by
    the JSON ``hello`` handshake, so a reconnecting client (which starts
    a fresh :class:`StringInterner`) can never alias a stale ref.

Negotiation rides the existing versioned JSON envelope: the client sends
``{"api": 1, "type": "hello", "codecs": [...]}`` as text; a
binary-capable server answers with its pick, an older server rejects the
unknown ``hello`` type with a structured error — which the client treats
as "speak JSON".  Unknown codec names likewise fall back to JSON rather
than erroring; see :func:`negotiate_codec`.

Cache geometry stays unobservable in both encodings by construction:
both are derived from the same field declarations
(:data:`repro.api.protocol.MESSAGES`), so nothing about eviction, LRU
order or checker residency can leak through one codec that the other
hides.
"""

from __future__ import annotations

import json
import struct
from typing import Callable, NamedTuple, Sequence

from repro.api.errors import ApiError, ErrorCode, ProtocolError
from repro.api.protocol import (
    MESSAGES,
    PROTOCOL_VERSION,
    ErrorResponse,
    LivenessResponse,
    Request,
    Response,
    decode_request,
    decode_response,
    encode_request,
    encode_response,
)
from repro.api.schema import (
    Reader,
    StringInterner,
    StringTable,
    dumps_compact,
    write_str,
    write_uvarint,
)

#: Registered codec names (the negotiation currency).
CODEC_JSON = "json"
CODEC_BIN2 = "bin2"

#: Envelope type of the negotiation handshake (JSON in both directions).
HELLO_TYPE = "hello"

#: First payload byte of every bin2 frame; no JSON text can reproduce it
#: in a position where the length prefix also matches (see is_bin2_frame).
BIN2_MAGIC = 0xB2

#: Upper bound on one frame's payload, a garbage-length guard.
MAX_FRAME = 16 * 1024 * 1024

_FRAME_HEADER = struct.Struct("<I")

# Opcodes (one byte on the wire), from the message table: responses are
# the request opcode | RESPONSE_BIT, and the decode-failure fallback
# response is OP_ERROR_RESPONSE.
_OPCODE = {row.tag: row.opcode for row in MESSAGES}
OP_LIVENESS_QUERY = _OPCODE["liveness_query"]
OP_BATCH_LIVENESS = _OPCODE["batch_liveness"]
OP_LIVE_SET = _OPCODE["live_set"]
OP_DESTRUCT = _OPCODE["destruct"]
OP_ALLOCATE = _OPCODE["allocate"]
OP_NOTIFY = _OPCODE["notify"]
OP_EVICT = _OPCODE["evict"]
OP_COMPILE_SOURCE = _OPCODE["compile_source"]
OP_STATS = _OPCODE["stats"]
RESPONSE_BIT = 0x80
OP_ERROR_RESPONSE = _OPCODE["error"] | RESPONSE_BIT

# class → (opcode, body writer) and opcode → body reader, per direction.
_BIN2_REQUEST_ENCODERS = {
    row.request: (row.opcode, row.request_kind.write) for row in MESSAGES if row.request
}
_BIN2_REQUEST_DECODERS = {
    row.opcode: row.request_kind.read for row in MESSAGES if row.request
}
_BIN2_RESPONSE_ENCODERS = {
    # A response frame is built in place: this header (length patched in
    # after the body, zero string defs), then the body.
    row.response: (
        bytes((0, 0, 0, 0, BIN2_MAGIC, PROTOCOL_VERSION, row.opcode | RESPONSE_BIT, 0)),
        row.response_kind.write,
    )
    for row in MESSAGES
}
_BIN2_RESPONSE_DECODERS = {
    row.opcode | RESPONSE_BIT: row.response_kind.read for row in MESSAGES
}

#: opcode → the JSON wire tag of the same message (for slow-request
#: reports and error details).
TAG_BY_OPCODE: dict[int, str] = {
    **{row.opcode: row.tag for row in MESSAGES if row.request},
    **{row.opcode | RESPONSE_BIT: row.tag for row in MESSAGES},
}


# ----------------------------------------------------------------------
# Framing
# ----------------------------------------------------------------------
def _frame(opcode: int, defs: Sequence[tuple[int, str]], body: bytes | bytearray) -> bytes:
    payload = bytearray((BIN2_MAGIC, PROTOCOL_VERSION, opcode))
    write_uvarint(payload, len(defs))
    for ident, text in defs:
        write_uvarint(payload, ident)
        write_str(payload, text)
    payload += body
    return _FRAME_HEADER.pack(_payload_size(len(payload))) + payload


def _payload_size(size: int) -> int:
    if size > MAX_FRAME:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"frame payload of {size} bytes exceeds {MAX_FRAME}"
        )
    return size


def is_bin2_frame(data) -> bool:
    """Cheap, non-raising sniff: does ``data`` look like one bin2 frame?

    The length prefix must match the actual size and the first payload
    byte must be the magic — JSON text (whose first four bytes decode to
    an absurd length) can never satisfy both, so a binary-capable server
    tells the two codecs apart per frame with no negotiation state.
    """
    if not isinstance(data, (bytes, bytearray, memoryview)):
        return False
    data = bytes(data) if not isinstance(data, bytes) else data
    if len(data) < 7:
        return False
    declared = _FRAME_HEADER.unpack_from(data)[0]
    return declared == len(data) - 4 and declared <= MAX_FRAME and data[4] == BIN2_MAGIC


def _open_frame(data: bytes) -> tuple[int, Reader]:
    """Validate one frame's header; returns ``(opcode, reader at defs)``."""
    if len(data) < 7:
        raise ProtocolError(ErrorCode.INVALID_REQUEST, "truncated binary frame")
    declared = _FRAME_HEADER.unpack_from(data)[0]
    if declared != len(data) - 4:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"frame length prefix says {declared} bytes, got {len(data) - 4}",
        )
    if declared > MAX_FRAME:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"frame payload of {declared} bytes exceeds {MAX_FRAME}",
        )
    if data[4] != BIN2_MAGIC:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"not a bin2 frame (magic byte {data[4]:#04x})",
        )
    version = data[5]
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"protocol version mismatch: got {version!r}, "
            f"this server speaks {PROTOCOL_VERSION}",
        )
    return data[6], Reader(data, 7)


def _read_defs(r: Reader, table: StringTable) -> None:
    for _ in range(r.uvarint()):
        ident = r.uvarint()
        table.define(ident, r.str_())


# ----------------------------------------------------------------------
# Relay support (the multi-process coordinator in repro.concurrent.procs)
# ----------------------------------------------------------------------
#: Opcodes whose frames a coordinator may forward verbatim to the worker
#: owning the function they lead with: single-function requests whose
#: only string ref is the leading handle name, so a frame decodes
#: identically against any table that defines that one ref.
RELAY_OPCODES = frozenset(row.opcode for row in MESSAGES if row.relay)


def relay_route(data: bytes, body_pos: int, table: StringTable) -> tuple[int, str]:
    """The leading handle ref of an already-ingested single-function frame.

    Returns ``(ident, name)``.  Raises exactly the :class:`ProtocolError`
    the worker-side decoder would raise (same ``lookup``, same truncation
    message), so a coordinator that cannot route a frame answers with the
    identical error a single-process server produces.
    """
    r = Reader(data, body_pos)
    ident = r.uvarint()
    return ident, table.lookup(ident)


def frame_defs(data: bytes) -> list[tuple[int, str]]:
    """The ``(ident, text)`` definition pairs an ingested frame carries."""
    r = Reader(data, 7)
    return [(r.uvarint(), r.str_()) for _ in range(r.uvarint())]


def reframe_with_defs(
    opcode: int, defs: Sequence[tuple[int, str]], data: bytes, body_pos: int
) -> bytes:
    """Rebuild an ingested frame with an explicit definitions block.

    Used when a frame must be forwarded to a worker connection that has
    not seen the leading ref's definition yet (it arrived on an earlier
    frame this worker never received): the body bytes are reused
    verbatim, only the defs block is replaced.
    """
    return _frame(opcode, defs, data[body_pos:])


def _encoder(encoders: dict, message) -> tuple:
    entry = encoders.get(type(message))
    if entry is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST, f"cannot encode {type(message).__name__} here"
        )
    return entry


def _read_body(decoders: dict, opcode: int, r: Reader, direction: str):
    """Decode one frame body; raises :class:`ProtocolError` only."""
    decoder = decoders.get(opcode)
    if decoder is None:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"unknown binary {direction} opcode {opcode:#04x}",
        )
    try:
        message = decoder(r)
    except ProtocolError:
        raise
    except (KeyError, TypeError, ValueError) as exc:
        raise ProtocolError(
            ErrorCode.INVALID_REQUEST,
            f"malformed binary {TAG_BY_OPCODE.get(opcode, hex(opcode))} body: {exc}",
        ) from None
    r.expect_end()
    return message


def encode_request_bin2(
    request: Request, interner: StringInterner | None = None
) -> bytes:
    """One bin2 frame for ``request``.

    With an ``interner`` (the per-connection case) function names are
    sent once and referenced after; without one, a throwaway table is
    used so the frame is self-contained.
    """
    opcode, write = _encoder(_BIN2_REQUEST_ENCODERS, request)
    if interner is None:
        interner = StringInterner()
    defs: list[tuple[int, str]] = []
    body = bytearray()
    write(body, request, (interner, defs))
    return _frame(opcode, defs, body)


def decode_request_bin2(data, table: StringTable | None = None) -> Request:
    """Inverse of :func:`encode_request_bin2`; raises :class:`ProtocolError`
    (never anything else) on any malformed input."""
    opcode, r = _open_frame(bytes(data))
    r.table = StringTable() if table is None else table
    _read_defs(r, r.table)
    return _read_body(_BIN2_REQUEST_DECODERS, opcode, r, "request")


def encode_response_bin2(response: Response | ErrorResponse) -> bytes:
    """One bin2 frame for ``response`` (strings inline, no table)."""
    header, write = _encoder(_BIN2_RESPONSE_ENCODERS, response)
    out = bytearray(header)
    write(out, response)
    _FRAME_HEADER.pack_into(out, 0, _payload_size(len(out) - 4))
    return bytes(out)


def decode_response_bin2(data) -> Response | ErrorResponse:
    """Inverse of :func:`encode_response_bin2`."""
    opcode, r = _open_frame(bytes(data))
    _read_defs(r, StringTable())
    return _read_body(_BIN2_RESPONSE_DECODERS, opcode, r, "response")


# ----------------------------------------------------------------------
# JSON as a codec (text framing of the canonical envelope)
# ----------------------------------------------------------------------
def encode_request_json(
    request: Request, interner: StringInterner | None = None
) -> bytes:
    """The canonical envelope as compact UTF-8 text (interner ignored)."""
    return dumps_compact(encode_request(request)).encode("utf-8")


def decode_request_json(data, table: StringTable | None = None) -> Request:
    return decode_request(data)


def encode_response_json(response: Response | ErrorResponse) -> bytes:
    return dumps_compact(encode_response(response)).encode("utf-8")


def decode_response_json(data) -> Response | ErrorResponse:
    return decode_response(data)


class WireCodec(NamedTuple):
    """One registered encoding: four symmetrical byte-level entry points."""

    name: str
    encode_request: Callable
    decode_request: Callable
    encode_response: Callable
    decode_response: Callable
    stateful: bool


#: The codec registry, in server preference order: a client that offers
#: several known codecs gets the first of *its* offers we support, and a
#: client that offers none gets JSON.
CODECS: dict[str, WireCodec] = {
    CODEC_BIN2: WireCodec(
        CODEC_BIN2,
        encode_request_bin2,
        decode_request_bin2,
        encode_response_bin2,
        decode_response_bin2,
        stateful=True,
    ),
    CODEC_JSON: WireCodec(
        CODEC_JSON,
        encode_request_json,
        decode_request_json,
        encode_response_json,
        decode_response_json,
        stateful=False,
    ),
}


# ----------------------------------------------------------------------
# Negotiation (always JSON, so it reaches pre-codec servers too)
# ----------------------------------------------------------------------
def hello_frame(offer: Sequence[str]) -> bytes:
    """The client's opening handshake, as versioned JSON text."""
    return dumps_compact(
        {"api": PROTOCOL_VERSION, "type": HELLO_TYPE, "codecs": list(offer)}
    ).encode("utf-8")


def hello_reply(chosen: str) -> bytes:
    """The server's answer: the chosen codec, plus everything it speaks."""
    return dumps_compact(
        {
            "api": PROTOCOL_VERSION,
            "type": HELLO_TYPE,
            "codec": chosen,
            "codecs": sorted(CODECS),
        }
    ).encode("utf-8")


def choose_codec(offered) -> str:
    """The server side of negotiation: first *offered* codec we speak.

    Anything unusable — a non-list, unknown names, an empty offer —
    falls back to :data:`CODEC_JSON` rather than erroring: negotiation
    must never strand a client without a working encoding.
    """
    if isinstance(offered, (list, tuple)):
        for name in offered:
            if isinstance(name, str) and name in CODECS:
                return name
    return CODEC_JSON


def parse_hello_reply(raw) -> str | None:
    """The codec a server's reply selected, or ``None`` for "no deal".

    ``None`` covers every legacy outcome: an older server answering the
    unknown ``hello`` type with a structured error envelope, garbage, or
    a reply naming a codec this build does not know.
    """
    if isinstance(raw, (bytes, bytearray, str)):
        try:
            raw = json.loads(raw)
        except (ValueError, UnicodeDecodeError):
            return None
    if not isinstance(raw, dict) or raw.get("type") != HELLO_TYPE:
        return None
    chosen = raw.get("codec")
    if isinstance(chosen, str) and chosen in CODECS:
        return chosen
    return None


def negotiate_codec(transport: Callable[[bytes], bytes], offer: Sequence[str]) -> str:
    """Run the handshake over ``transport``; JSON on any failure."""
    try:
        reply = transport(hello_frame(offer))
    except Exception:  # noqa: BLE001 — negotiation must not raise
        return CODEC_JSON
    chosen = parse_hello_reply(reply)
    if chosen is not None and chosen in offer:
        return chosen
    return CODEC_JSON


# ----------------------------------------------------------------------
# Server side: one connection's byte-level dispatcher
# ----------------------------------------------------------------------
class IngestedFrame:
    """One submitted frame after the cheap arrival-order phase.

    The worker pool decodes bodies concurrently, but string definitions
    must be applied in arrival order (a ref may be used one frame after
    its definition).  :meth:`BytesServerSession.ingest` therefore runs at
    submit time and does only the cheap part — header validation plus the
    defs block — leaving the body parse, dispatch and response encode to
    :meth:`BytesServerSession.complete` on a worker thread.  Because the
    table is append-only between hellos, a body is still decodable after
    later frames extended the table.
    """

    __slots__ = ("data", "opcode", "binary", "error", "request_type", "body_pos")

    def __init__(
        self,
        data: bytes,
        opcode: int | None = None,
        binary: bool = True,
        error: ApiError | None = None,
        body_pos: int | None = None,
    ) -> None:
        self.data = data
        self.opcode = opcode
        self.binary = binary
        self.error = error
        self.body_pos = body_pos
        self.request_type = (
            TAG_BY_OPCODE.get(opcode) if opcode is not None else None
        )


class BytesServerSession:
    """The server half of one byte-speaking connection.

    Wraps a typed ``dispatch(request) -> response`` callable (a
    :class:`~repro.api.client.CompilerClient` or
    :class:`~repro.concurrent.client.ShardedClient`) with frame decode,
    per-frame codec detection (bin2 frames by magic, anything JSON-ish by
    text), the ``hello`` handshake, and per-codec wire metrics
    (``wire.bytes_in``/``wire.bytes_out`` counters and
    ``wire.encode_seconds``/``wire.decode_seconds`` histograms, labelled
    ``codec=...``).  Like every protocol boundary it **never raises**:
    garbage, truncated or mid-frame-corrupted input comes back as a
    structured error in the caller's own framing.

    One session is one connection: the string table is connection state,
    so concurrent *submitters* may share a session (ingest is serialized
    by the wire server), but two independent clients need two sessions.

    ``fast_query`` is an optional lean lane for the hottest message:
    ``(name, revision, want_in, variable, block) -> bool | None``, where
    ``None`` means "fall back to the full dispatch pipeline" (which then
    reproduces the exact structured error and its stats side effects).
    """

    def __init__(
        self,
        dispatch: Callable[[Request], Response],
        obs=None,
        fast_query: Callable[..., bool | None] | None = None,
    ) -> None:
        from repro.obs import Observability

        self._dispatch = dispatch
        self._fast_query = fast_query
        self.obs = obs if obs is not None else Observability()
        self._table = StringTable()
        self._bytes_in = {
            name: self.obs.counter("wire.bytes_in", codec=name) for name in CODECS
        }
        self._bytes_out = {
            name: self.obs.counter("wire.bytes_out", codec=name) for name in CODECS
        }
        self._decode_seconds = {
            name: self.obs.histogram("wire.decode_seconds", codec=name)
            for name in CODECS
        }
        self._encode_seconds = {
            name: self.obs.histogram("wire.encode_seconds", codec=name)
            for name in CODECS
        }
        # Pre-bound hot-path instruments: the bin2 lane records four
        # metrics per frame, and at wire rates the dict probe + attribute
        # bind per record is a measurable slice of a request.
        self._bin2_in_add = self._bytes_in[CODEC_BIN2].add
        self._json_in_add = self._bytes_in[CODEC_JSON].add
        self._bin2_out_add = self._bytes_out[CODEC_BIN2].add
        self._bin2_decode_observe = self._decode_seconds[CODEC_BIN2].observe
        self._bin2_encode_observe = self._encode_seconds[CODEC_BIN2].observe

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Forget the connection's string table (the reconnect contract)."""
        self._table.reset()

    @property
    def string_table(self) -> StringTable:
        """The connection's receive-side table (relay routing reads it)."""
        return self._table

    # ------------------------------------------------------------------
    # The two-phase path (wire-server integration)
    # ------------------------------------------------------------------
    def ingest(self, data) -> IngestedFrame:
        """Arrival-order phase: classify the frame, apply string defs.

        Cheap by design — called under the wire server's submit lock so
        definitions land in the exact order frames arrived.  Never
        raises; a malformed defs block becomes an error token the worker
        answers in kind.
        """
        try:
            if not isinstance(data, bytes):
                data = bytes(data)
            size = len(data)
            # Single-pass header sniff (the checks of is_bin2_frame and
            # _open_frame, fused): this runs under the submit lock, so
            # every instruction here serializes all submitters.
            if (
                size < 7
                or data[4] != BIN2_MAGIC
                or _FRAME_HEADER.unpack_from(data)[0] != size - 4
                or size - 4 > MAX_FRAME
            ):
                # JSON text (or garbage): the worker-side JSON path owns
                # both, producing the structured not-JSON error itself.
                self._json_in_add(size)
                return IngestedFrame(data, binary=False)
            self._bin2_in_add(size)
            if data[5] != PROTOCOL_VERSION:
                raise ProtocolError(
                    ErrorCode.INVALID_REQUEST,
                    f"protocol version mismatch: got {data[5]!r}, "
                    f"this server speaks {PROTOCOL_VERSION}",
                )
            if size > 7 and data[7] == 0:
                # Zero definitions — the steady-state frame once the
                # connection's names are interned; skip the defs reader.
                return IngestedFrame(data, opcode=data[6], body_pos=8)
            r = Reader(data, 7)
            _read_defs(r, self._table)
            # body_pos lets the worker skip the defs walk entirely.
            return IngestedFrame(data, opcode=data[6], body_pos=r.pos)
        except ProtocolError as exc:
            return IngestedFrame(b"", error=exc.error)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            return IngestedFrame(
                b"",
                error=ApiError(
                    ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"
                ),
            )

    def complete(self, token: IngestedFrame) -> bytes:
        """Worker phase: decode the body, dispatch, encode the answer.

        Never raises; every failure becomes a structured error frame (or
        JSON error envelope for text callers).
        """
        try:
            if token.error is not None:
                if token.binary:
                    return self._error_frame(token.error)
                return self._json_error(token.error)
            if not token.binary:
                return self._complete_json(token.data)
            return self._complete_bin2(token)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            error = ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}")
            try:
                if token.binary:
                    return self._error_frame(error)
                return self._json_error(error)
            except Exception:  # noqa: BLE001 — last resort, still shaped
                return _INTERNAL_ERROR_FRAME

    def dispatch_frame(self, data) -> bytes:
        """Serial entry point: one frame in, one frame out, never raises."""
        return self.complete(self.ingest(data))

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _complete_bin2(self, token: IngestedFrame) -> bytes:
        clock = self.obs.clock
        opcode = token.opcode
        start = clock()
        body_pos = token.body_pos if token.body_pos is not None else 7
        r = Reader(token.data, body_pos, self._table)
        if token.body_pos is None:
            _read_defs(r, self._table)
            body_pos = r.pos
        if opcode == OP_LIVENESS_QUERY and self._fast_query is not None:
            fast = self._fast_liveness(r, clock, start)
            if fast is not None:
                return fast
            # Fall through re-reads the body generically below.
            r = Reader(token.data, body_pos, self._table)
        try:
            request = _read_body(_BIN2_REQUEST_DECODERS, opcode, r, "request")
        except ProtocolError as exc:
            return self._error_frame(exc.error)
        self._bin2_decode_observe(clock() - start)
        response = self._dispatch(request)
        start = clock()
        try:
            frame = encode_response_bin2(response)
        except ProtocolError as exc:
            return self._error_frame(exc.error)
        self._bin2_encode_observe(clock() - start)
        self._bin2_out_add(len(frame))
        return frame

    def _fast_liveness(self, r: Reader, clock, start: float) -> bytes | None:
        """Hand-rolled hot lane for ``LivenessQuery`` frames.

        Parses the five fields without building request objects, asks the
        injected ``fast_query``, and answers from a pre-encoded response
        frame.  Returns ``None`` on *any* unusual condition so the
        generic path (and its exact error semantics) takes over.
        """
        try:
            name = self._table.lookup(r.uvarint())
            revision = r.svarint() if r.u8() else None
            kind = r.u8()
            variable = r.str_()
            block = r.str_()
            if kind > 1 or r.pos != r.end:
                return None
        except ProtocolError:
            return None
        self._bin2_decode_observe(clock() - start)
        try:
            value = self._fast_query(name, revision, kind == 0, variable, block)
        except Exception:  # noqa: BLE001 — the lean lane must stay safe
            value = None
        if value is None:
            return None
        start = clock()
        frame = _FAST_LIVENESS_FRAMES[value]
        self._bin2_encode_observe(clock() - start)
        self._bin2_out_add(len(frame))
        return frame

    def _complete_json(self, data: bytes) -> bytes:
        from repro.api.client import dispatch_json_via

        clock = self.obs.clock
        start = clock()
        parsed = None
        try:
            parsed = json.loads(data)
        except (ValueError, UnicodeDecodeError):
            parsed = None
        if (
            isinstance(parsed, dict)
            and parsed.get("type") == HELLO_TYPE
            and parsed.get("api") == PROTOCOL_VERSION
        ):
            return self._hello(parsed)
        self._decode_seconds[CODEC_JSON].observe(clock() - start)
        envelope = dispatch_json_via(
            self._dispatch, parsed if parsed is not None else data,
            obs=self.obs,
        )
        start = clock()
        out = dumps_compact(envelope).encode("utf-8")
        self._encode_seconds[CODEC_JSON].observe(clock() - start)
        self._bytes_out[CODEC_JSON].add(len(out))
        return out

    def _hello(self, parsed: dict) -> bytes:
        # A hello starts a (logical) connection: reset the string table
        # so a reconnecting client's fresh interner can never collide
        # with refs a previous life of the connection defined.
        self.reset()
        chosen = choose_codec(parsed.get("codecs"))
        out = hello_reply(chosen)
        self._bytes_out[CODEC_JSON].add(len(out))
        return out

    def _error_frame(self, error: ApiError) -> bytes:
        frame = encode_response_bin2(ErrorResponse(error=error))
        self._bytes_out[CODEC_BIN2].add(len(frame))
        return frame

    def _json_error(self, error: ApiError) -> bytes:
        out = dumps_compact(encode_response(ErrorResponse(error=error))).encode(
            "utf-8"
        )
        self._bytes_out[CODEC_JSON].add(len(out))
        return out


#: Pre-encoded answers for the lean liveness lane (responses carry no
#: connection state, so the ok frames are constants).
_FAST_LIVENESS_FRAMES = {
    True: encode_response_bin2(LivenessResponse(value=True)),
    False: encode_response_bin2(LivenessResponse(value=False)),
}

_INTERNAL_ERROR_FRAME = encode_response_bin2(
    ErrorResponse(error=ApiError(ErrorCode.INTERNAL, "encoder failure"))
)


# ----------------------------------------------------------------------
# Client side: a negotiating byte-level caller
# ----------------------------------------------------------------------
class BytesClient:
    """The client half of one connection over a ``bytes -> bytes`` transport.

    Sends a JSON ``hello`` offering ``offer`` (most preferred first) and
    speaks whatever the server picked: ``bin2`` against a binary-capable
    server, JSON against an older one (whose structured rejection of the
    unknown ``hello`` type *is* the fallback signal) or one that knows
    none of the offered codecs.  ``dispatch`` is typed-in/typed-out and
    never raises — transport failures and undecodable replies come back
    as structured errors in the matching response type.

    One instance is one connection (it owns the send-side string
    interner), and like a real connection it is not meant to be shared
    between threads — give each thread its own.
    """

    def __init__(
        self,
        transport: Callable[[bytes], bytes],
        offer: Sequence[str] = (CODEC_BIN2, CODEC_JSON),
    ) -> None:
        self._transport = transport
        self._interner = StringInterner()
        self.codec = negotiate_codec(transport, tuple(offer))

    def dispatch(self, request: Request) -> Response:
        """Answer one typed request over the wire; never raises."""
        from repro.api.client import failure_response

        try:
            if self.codec == CODEC_BIN2:
                raw = self._transport(
                    encode_request_bin2(request, self._interner)
                )
                if is_bin2_frame(raw):
                    return decode_response_bin2(raw)
                # A server that lost the negotiation state (or answered
                # garbage with a JSON error) still gets decoded.
                return decode_response(raw)
            raw = self._transport(encode_request_json(request))
            return decode_response(raw)
        except ProtocolError as exc:
            return failure_response(request, exc.error)
        except Exception as exc:  # noqa: BLE001 — the boundary must hold
            return failure_response(
                request,
                ApiError(ErrorCode.INTERNAL, f"{type(exc).__name__}: {exc}"),
            )

    def __repr__(self) -> str:
        return f"BytesClient(codec={self.codec!r})"
