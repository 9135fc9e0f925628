"""The message instances whose wire bytes ``test_golden_frames`` pins.

Every protocol message type appears at least once, together with the
edge values each encoding treats specially: every revision form (absent,
zero, negative, beyond 32 bits), absent optionals, an omitted versus an
empty CFG delta, empty and odd-sized batch bitsets, an error on every
response, and stats blobs set and absent.

``python -m tests.api.golden_cases`` prints the golden table for the
current code.  Use it only to pin a *new* case: the point of the stored
bytes is that existing entries never change.
"""

from repro.api.errors import ApiError, ErrorCode
from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    AllocateResponse,
    AllocationSummary,
    BatchLiveness,
    BatchLivenessResponse,
    CompileSourceRequest,
    CompileSourceResponse,
    DestructRequest,
    DestructResponse,
    DestructStats,
    ErrorResponse,
    EvictRequest,
    EvictResponse,
    LivenessQuery,
    LivenessResponse,
    LiveSetRequest,
    LiveSetResponse,
    NotifyRequest,
    NotifyResponse,
    StatsRequest,
    StatsResponse,
)
from repro.core.incremental import CfgDelta

_UNVERSIONED = FunctionHandle("kernel")
_ZERO = FunctionHandle("kernel", 0)
_NEGATIVE = FunctionHandle("kernel", -3)
_HUGE = FunctionHandle("kernel", 2**40)
_OTHER = FunctionHandle("other_fn", 7)
_ERROR = ApiError(ErrorCode.STALE_HANDLE, "kernel is at r5, handle says r4")

_STATS = DestructStats(
    engine="fast",
    critical_edges_split=3,
    phis_isolated=5,
    parallel_copies=4,
    pairs_inserted=12,
    pairs_coalesced=9,
    classes_merged=6,
    interference_tests=148,
    liveness_queries=200,
    copies_emitted=7,
    temps_inserted=2,
    phis_removed=5,
)

_ALLOCATION = AllocationSummary(
    registers={"acc": 0, "idx": 1, "limit": 130},
    spill_slots={"tmp0": 0},
    registers_used=3,
    max_live=4,
    max_live_before_spill=5,
    spilled=("tmp0",),
    reconstructed_ssa=True,
)

#: ``(case id, "request" | "response", message)``.
CASES = (
    # -- requests ------------------------------------------------------
    ("liveness_query.unversioned", "request",
     LivenessQuery(_UNVERSIONED, "in", "acc", "body3")),
    ("liveness_query.rev0", "request",
     LivenessQuery(_ZERO, "out", "x", "entry")),
    ("liveness_query.negative_rev", "request",
     LivenessQuery(_NEGATIVE, "in", "vé", "bö")),
    ("liveness_query.huge_rev", "request",
     LivenessQuery(_HUGE, "out", "acc", "exit")),
    ("batch_liveness.empty", "request", BatchLiveness(queries=())),
    ("batch_liveness.two_functions", "request",
     BatchLiveness(queries=(
         LivenessQuery(_ZERO, "in", "acc", "entry"),
         LivenessQuery(_OTHER, "out", "i", "loop"),
         LivenessQuery(_ZERO, "out", "acc", "exit"),
     ))),
    ("live_set.default_kind", "request", LiveSetRequest(_UNVERSIONED, "body3")),
    ("live_set.out", "request", LiveSetRequest(_HUGE, "exit", kind="out")),
    ("destruct.defaults", "request", DestructRequest(_ZERO)),
    ("destruct.verify", "request",
     DestructRequest(_NEGATIVE, engine="dataflow", verify=True)),
    ("allocate.no_registers", "request", AllocateRequest(_UNVERSIONED)),
    ("allocate.registers", "request",
     AllocateRequest(_HUGE, num_registers=200, engine="mask", destruct=True)),
    ("notify.no_delta", "request", NotifyRequest(_ZERO, kind="instructions")),
    ("notify.empty_delta", "request",
     NotifyRequest(_ZERO, kind="cfg", delta=CfgDelta())),
    ("notify.delta", "request",
     NotifyRequest(_NEGATIVE, kind="cfg", delta=CfgDelta(
         added_edges=(("a", "b"), ("c", "d")),
         removed_edges=(("e", "f"),),
         added_blocks=("g",),
         removed_blocks=("h", "i"),
     ))),
    ("evict.unversioned", "request", EvictRequest(_UNVERSIONED)),
    ("evict.rev0", "request", EvictRequest(_ZERO)),
    ("compile_source.default_module", "request",
     CompileSourceRequest("func f(a) { return a; }")),
    ("compile_source.named", "request",
     CompileSourceRequest("func g(x, y) { z = x + y; return z; }", "modüle")),
    ("stats.no_reset", "request", StatsRequest()),
    ("stats.reset", "request", StatsRequest(reset=True)),
    # -- responses -----------------------------------------------------
    ("liveness_query.true", "response", LivenessResponse(value=True)),
    ("liveness_query.false", "response", LivenessResponse(value=False)),
    ("liveness_query.none", "response", LivenessResponse()),
    ("liveness_query.error", "response", LivenessResponse(error=_ERROR)),
    ("batch_liveness.zero_bits", "response", BatchLivenessResponse(values=())),
    ("batch_liveness.nine_bits", "response",
     BatchLivenessResponse(values=(True, False, True, True, False,
                                   False, False, True, True))),
    ("batch_liveness.error", "response", BatchLivenessResponse(error=_ERROR)),
    ("live_set.variables", "response",
     LiveSetResponse(variables=("acc", "idx", "limit"))),
    ("live_set.empty", "response", LiveSetResponse(variables=())),
    ("live_set.error", "response", LiveSetResponse(error=_ERROR)),
    ("destruct.stats", "response", DestructResponse(_ZERO, _STATS)),
    ("destruct.error", "response", DestructResponse(error=_ERROR)),
    ("allocate.summary", "response", AllocateResponse(_HUGE, _ALLOCATION)),
    ("allocate.empty_summary", "response",
     AllocateResponse(_NEGATIVE, AllocationSummary())),
    ("allocate.error", "response",
     AllocateResponse(error=ApiError(ErrorCode.UNSUPPORTED))),
    ("notify.handle", "response", NotifyResponse(_NEGATIVE)),
    ("notify.error", "response", NotifyResponse(error=_ERROR)),
    ("evict.handle", "response", EvictResponse(_UNVERSIONED)),
    ("evict.error", "response",
     EvictResponse(error=ApiError(ErrorCode.UNKNOWN_FUNCTION, "gone"))),
    ("compile_source.handles", "response",
     CompileSourceResponse(functions=(_ZERO, _OTHER, _UNVERSIONED))),
    ("compile_source.error", "response",
     CompileSourceResponse(error=ApiError(ErrorCode.COMPILE_ERROR, "1:3: bad"))),
    ("stats.blobs", "response",
     StatsResponse(
         snapshot={"counters": {"wire.bytes_in{codec=bin2}": 4096}, "gauges": {}},
         stats={"queries": 512, "hit_rate": 0.97, "shards": [1, 2]},
     )),
    ("stats.no_blobs", "response", StatsResponse()),
    ("stats.error", "response", StatsResponse(error=_ERROR)),
    ("error.error", "response",
     ErrorResponse(error=ApiError(ErrorCode.INVALID_REQUEST, "envelope must be an object"))),
    ("error.none", "response", ErrorResponse()),
)


def wire_forms(kind: str, message) -> tuple[str, str, str | None]:
    """``(compact JSON text, bin2 hex, interned second-frame hex)``.

    Responses inline every string, so they have no interned form.
    """
    from repro.api.codec import (
        StringInterner,
        encode_request_bin2,
        encode_request_json,
        encode_response_bin2,
        encode_response_json,
    )

    if kind == "response":
        return (
            encode_response_json(message).decode("utf-8"),
            encode_response_bin2(message).hex(),
            None,
        )
    interner = StringInterner()
    encode_request_bin2(message, interner)
    return (
        encode_request_json(message).decode("utf-8"),
        encode_request_bin2(message).hex(),
        encode_request_bin2(message, interner).hex(),
    )


if __name__ == "__main__":  # pragma: no cover - pinning helper
    for case_id, kind, message in CASES:
        print(f"    {case_id!r}: {wire_forms(kind, message)!r},")
