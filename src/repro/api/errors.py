"""Structured errors of the compiler-server protocol.

Nothing below the API boundary is allowed to leak a raw ``KeyError`` or
``ValueError`` to a protocol client: every failure is mapped to an
:class:`ApiError` — a machine-readable error *code* plus a human-readable
detail string — carried inside the matching response.  Inside the server
the same information travels as a :class:`ProtocolError` exception, which
the dispatcher catches at the boundary and converts; it never crosses it.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum, unique


@unique
class ErrorCode(str, Enum):
    """Every failure class a protocol response may carry."""

    #: The request itself is malformed (bad tag, missing field, wrong
    #: protocol version, unknown query kind…).
    INVALID_REQUEST = "invalid_request"
    #: The addressed function is not registered with the server.
    UNKNOWN_FUNCTION = "unknown_function"
    #: The requested liveness/interference engine is not in the registry.
    UNKNOWN_ENGINE = "unknown_engine"
    #: The named variable does not exist in the addressed function.
    UNKNOWN_VARIABLE = "unknown_variable"
    #: The named block does not exist in the addressed function.
    UNKNOWN_BLOCK = "unknown_block"
    #: The request carries a :class:`~repro.api.handles.FunctionHandle`
    #: whose revision predates an edit notification — the paper's
    #: invalidation contract, enforced at the API boundary.
    STALE_HANDLE = "stale_handle"
    #: The request is well-formed but the engine/input combination is
    #: unsupported (e.g. an engine without a liveness oracle asked to
    #: answer point queries).
    UNSUPPORTED = "unsupported"
    #: Front-end compilation failed (lexer, parser or lowering).
    COMPILE_ERROR = "compile_error"
    #: A function with the same name is already registered.
    DUPLICATE_FUNCTION = "duplicate_function"
    #: Anything unexpected; the detail carries the exception text.
    INTERNAL = "internal"


@dataclass(frozen=True)
class ApiError:
    """One structured failure: a stable code plus a free-form detail."""

    code: ErrorCode
    detail: str = ""

    def to_json(self) -> dict:
        """Plain-dict view for the wire format."""
        return {"code": self.code.value, "detail": self.detail}

    @classmethod
    def from_json(cls, payload: dict) -> "ApiError":
        """Inverse of :meth:`to_json` (lossless); rejects mistyped fields."""
        code, detail = ErrorCode(payload["code"]), payload.get("detail", "")
        if type(detail) is not str:
            raise TypeError(f"error detail must be a string, got {detail!r}")
        return cls(code=code, detail=detail)


class ProtocolError(Exception):
    """Internal signal carrying an :class:`ApiError` to the boundary.

    Raised inside the server stack, caught by
    :meth:`repro.api.client.CompilerClient.dispatch`, and converted into
    the error channel of the matching response — it must never escape a
    ``dispatch`` call.
    """

    def __init__(self, code: ErrorCode, detail: str = "") -> None:
        super().__init__(detail or code.value)
        self.error = ApiError(code=code, detail=detail)


class StaleHandleError(ProtocolError):
    """A request addressed a function through an out-of-date handle."""

    def __init__(self, detail: str) -> None:
        super().__init__(ErrorCode.STALE_HANDLE, detail)
