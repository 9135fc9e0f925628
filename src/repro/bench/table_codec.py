"""Table W — wire codec microbench: bin2 vs. JSON, per message type.

Two questions about :mod:`repro.api.codec`, answered without a service
behind the wire (pure encode/decode, no dispatch):

* **size** — how many bytes does each protocol message cost in compact
  JSON text vs. the ``bin2`` binary framing?  The guard asserts bin2 is
  strictly smaller for *every* message type — if a protocol change ever
  makes the binary framing lose to text, the smoke run fails loudly.
* **speed** — what do encode and decode cost per message, per codec?
  These are the per-request constants that bound the wire loop in
  Table C (``BENCH_concurrency.json``).

A third mini-table isolates **name interning**: the same request
re-encoded over one connection's :class:`~repro.api.codec.StringInterner`
shrinks to ref-only frames; the report records the first-frame size
(definitions included) against the steady-state repeat size.

Run directly with ``python -m repro.bench.table_codec [scale]``;
``--smoke`` selects short timing loops **and enforces the size guard**,
``--json PATH`` overrides where the machine-readable report (default
``BENCH_codec.json``) is written.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass

from repro.api.codec import (
    StringInterner,
    StringTable,
    decode_request_bin2,
    decode_request_json,
    decode_response_bin2,
    decode_response_json,
    encode_request_bin2,
    encode_request_json,
    encode_response_bin2,
    encode_response_json,
)
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
from repro.bench.reporting import format_table, parse_bench_argv, write_json_report

#: Default output path of the machine-readable report.
DEFAULT_JSON_PATH = "BENCH_codec.json"

_HANDLE = FunctionHandle("hot_loop_kernel", 7)
_QUERY = LivenessQuery(function=_HANDLE, kind="in", variable="acc", block="body3")

#: One representative instance per protocol message type, realistic
#: field sizes (the corpus the size guard quantifies over).
SAMPLE_MESSAGES: tuple[tuple[str, str, object], ...] = (
    ("liveness_query", "request", _QUERY),
    (
        "batch_liveness",
        "request",
        BatchLiveness(
            queries=tuple(
                LivenessQuery(_HANDLE, kind, variable, block)
                for kind in ("in", "out")
                for variable in ("acc", "idx")
                for block in ("entry", "body3", "exit")
            )
        ),
    ),
    (
        "live_set_request",
        "request",
        LiveSetRequest(function=_HANDLE, block="body3", kind="out"),
    ),
    (
        "destruct_request",
        "request",
        DestructRequest(function=_HANDLE, engine="fast", verify=True),
    ),
    (
        "allocate_request",
        "request",
        AllocateRequest(function=_HANDLE, num_registers=8, engine="fast"),
    ),
    ("notify_request", "request", NotifyRequest(function=_HANDLE, kind="cfg")),
    ("evict_request", "request", EvictRequest(function=_HANDLE)),
    (
        "compile_source",
        "request",
        CompileSourceRequest(
            source="func f(a, b) { c = a + b; return c; }",
            module_name="bench",
        ),
    ),
    ("stats_request", "request", StatsRequest(reset=False)),
    ("liveness_response", "response", LivenessResponse(value=True)),
    (
        "batch_liveness_response",
        "response",
        BatchLivenessResponse(values=[bool(i % 3) for i in range(24)]),
    ),
    (
        "live_set_response",
        "response",
        LiveSetResponse(variables=("acc", "idx", "limit", "tmp0")),
    ),
    (
        "destruct_response",
        "response",
        DestructResponse(
            function=_HANDLE,
            stats=DestructStats(
                engine="fast",
                critical_edges_split=3,
                phis_isolated=5,
                parallel_copies=4,
                pairs_inserted=12,
                pairs_coalesced=9,
                classes_merged=6,
                interference_tests=148,
                liveness_queries=96,
                copies_emitted=7,
                temps_inserted=2,
                phis_removed=5,
            ),
        ),
    ),
    (
        "allocate_response",
        "response",
        AllocateResponse(
            function=_HANDLE,
            allocation=AllocationSummary(
                registers={"acc": 0, "idx": 1, "limit": 2},
                spill_slots={"tmp0": 0},
                registers_used=3,
                max_live=4,
                max_live_before_spill=5,
                spilled=("tmp0",),
                reconstructed_ssa=True,
            ),
        ),
    ),
    ("notify_response", "response", NotifyResponse(function=_HANDLE)),
    ("evict_response", "response", EvictResponse(function=_HANDLE)),
    (
        "compile_source_response",
        "response",
        CompileSourceResponse(
            functions=(FunctionHandle("f", 0), FunctionHandle("g", 0))
        ),
    ),
    (
        "stats_response",
        "response",
        StatsResponse(
            snapshot={"counters": {"wire.bytes_in{codec=bin2}": 4096}},
            stats={"queries": 512, "hits": 498, "hit_rate": 0.97},
        ),
    ),
    (
        "error_response",
        "response",
        ErrorResponse(
            error=ApiError(ErrorCode.UNKNOWN_FUNCTION, "no function 'gone'")
        ),
    ),
)


@dataclass
class TableCodecRow:
    """One message type's size and per-op cost in both codecs."""

    message: str
    kind: str
    json_bytes: int
    bin2_bytes: int
    json_encode_us: float
    bin2_encode_us: float
    json_decode_us: float
    bin2_decode_us: float

    @property
    def size_ratio(self) -> float:
        """bin2 size as a fraction of the JSON text size."""
        return self.bin2_bytes / self.json_bytes

    def as_dict(self) -> dict:
        return {
            "message": self.message,
            "kind": self.kind,
            "json_bytes": self.json_bytes,
            "bin2_bytes": self.bin2_bytes,
            "size_ratio": self.size_ratio,
            "json_encode_us": self.json_encode_us,
            "bin2_encode_us": self.bin2_encode_us,
            "json_decode_us": self.json_decode_us,
            "bin2_decode_us": self.bin2_decode_us,
        }


def _best_us(repeats: int, number: int, run) -> float:
    """Best-of-``repeats`` mean microseconds over ``number`` calls."""
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        for _ in range(number):
            run()
        best = min(best, time.perf_counter() - start)
    return best * 1e6 / number


def measure_message(
    name: str, kind: str, message, repeats: int = 5, number: int = 2000
) -> TableCodecRow:
    """Size and per-op encode/decode cost of one message, both codecs."""
    if kind == "request":
        enc_json, dec_json = encode_request_json, decode_request_json
        enc_bin2, dec_bin2 = encode_request_bin2, decode_request_bin2
    else:
        enc_json, dec_json = encode_response_json, decode_response_json
        enc_bin2, dec_bin2 = encode_response_bin2, decode_response_bin2
    json_frame = enc_json(message)
    bin2_frame = enc_bin2(message)
    if dec_json(json_frame) != message or dec_bin2(bin2_frame) != message:
        raise AssertionError(f"codec roundtrip mismatch for {name}")
    return TableCodecRow(
        message=name,
        kind=kind,
        json_bytes=len(json_frame),
        bin2_bytes=len(bin2_frame),
        json_encode_us=_best_us(repeats, number, lambda: enc_json(message)),
        bin2_encode_us=_best_us(repeats, number, lambda: enc_bin2(message)),
        json_decode_us=_best_us(repeats, number, lambda: dec_json(json_frame)),
        bin2_decode_us=_best_us(repeats, number, lambda: dec_bin2(bin2_frame)),
    )


def measure_interning(stream_len: int = 64) -> dict:
    """First-frame vs. steady-state size of a repeated interned query."""
    interner = StringInterner()
    table = StringTable()
    sizes = []
    for _ in range(stream_len):
        frame = encode_request_bin2(_QUERY, interner)
        if decode_request_bin2(frame, table) != _QUERY:
            raise AssertionError("interned stream roundtrip mismatch")
        sizes.append(len(frame))
    return {
        "stream_len": stream_len,
        "self_contained_bytes": len(encode_request_bin2(_QUERY)),
        "first_frame_bytes": sizes[0],
        "steady_state_bytes": sizes[-1],
        "json_bytes": len(encode_request_json(_QUERY)),
    }


def compute_table_codec(
    scale: int = 1, repeats: int = 5, number: int = 2000
) -> list[TableCodecRow]:
    number = max(100, number * scale)
    return [
        measure_message(name, kind, message, repeats=repeats, number=number)
        for name, kind, message in SAMPLE_MESSAGES
    ]


def format_table_codec(rows: list[TableCodecRow]) -> str:
    headers = [
        "Message",
        "JSON B",
        "bin2 B",
        "ratio",
        "enc js us",
        "enc b2 us",
        "dec js us",
        "dec b2 us",
    ]
    table_rows = [
        [
            row.message,
            row.json_bytes,
            row.bin2_bytes,
            row.size_ratio,
            row.json_encode_us,
            row.bin2_encode_us,
            row.json_decode_us,
            row.bin2_decode_us,
        ]
        for row in rows
    ]
    return format_table(
        headers,
        table_rows,
        title="Table W — wire codec: frame size and per-op cost, bin2 vs. JSON",
    )


def write_report(
    rows: list[TableCodecRow],
    interning: dict,
    path: str = DEFAULT_JSON_PATH,
) -> str:
    payload = {
        "rows": [row.as_dict() for row in rows],
        "interning": interning,
    }
    return write_json_report(path, "table_codec", payload)


def main(argv: list[str] | None = None) -> int:
    scale, smoke, json_path = parse_bench_argv(
        argv if argv is not None else sys.argv[1:], DEFAULT_JSON_PATH
    )
    repeats, number = (3, 200) if smoke else (5, 2000)
    rows = compute_table_codec(scale=scale, repeats=repeats, number=number)
    interning = measure_interning()
    print(format_table_codec(rows))
    mean_ratio = sum(row.size_ratio for row in rows) / len(rows)
    print(
        f"\nbin2 frames average {mean_ratio:.0%} of compact JSON; a repeated "
        f"liveness query shrinks {interning['self_contained_bytes']} B -> "
        f"{interning['steady_state_bytes']} B once its names are interned "
        f"(JSON: {interning['json_bytes']} B)"
    )
    written = write_report(rows, interning, json_path)
    print(f"json report: {written}")
    if smoke:
        # The size guard: the binary framing must beat compact JSON text
        # for every message type — no exceptions, no averaging.
        failed = [row for row in rows if row.bin2_bytes >= row.json_bytes]
        for row in failed:
            print(
                f"FAIL: {row.message} is {row.bin2_bytes} B in bin2 but "
                f"{row.json_bytes} B in JSON"
            )
        if failed:
            return 1
        if interning["steady_state_bytes"] >= interning["self_contained_bytes"]:
            print(
                "FAIL: interning does not shrink repeat frames "
                f"({interning['steady_state_bytes']} B steady vs. "
                f"{interning['self_contained_bytes']} B self-contained)"
            )
            return 1
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    raise SystemExit(main())
