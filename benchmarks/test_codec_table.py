"""Table W — the wire codec microbench and its committed report.

Regenerates :mod:`repro.bench.table_codec` (short timing loops — the
assertions are about sizes and schema, not about absolute speed) and
validates the committed ``BENCH_codec.json`` so the cross-PR tracker
cannot silently drift from what the bench actually emits.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.bench.table_codec import (
    SAMPLE_MESSAGES,
    compute_table_codec,
    format_table_codec,
    measure_interning,
)

BENCH_JSON = Path(__file__).resolve().parent.parent / "BENCH_codec.json"

ROW_KEYS = {
    "message",
    "kind",
    "json_bytes",
    "bin2_bytes",
    "size_ratio",
    "json_encode_us",
    "bin2_encode_us",
    "json_decode_us",
    "bin2_decode_us",
}


@pytest.fixture(scope="module")
def codec_rows():
    return compute_table_codec(scale=1, repeats=2, number=100)


def test_table_codec_report(codec_rows, record_table):
    record_table("table_codec", format_table_codec(codec_rows))
    assert {row.message for row in codec_rows} == {
        name for name, _kind, _message in SAMPLE_MESSAGES
    }
    for row in codec_rows:
        assert row.kind in ("request", "response")
        assert row.json_encode_us > 0
        assert row.bin2_encode_us > 0
        assert row.json_decode_us > 0
        assert row.bin2_decode_us > 0


def test_every_message_type_is_covered(codec_rows):
    kinds = {row.kind for row in codec_rows}
    assert kinds == {"request", "response"}
    # Every protocol message family appears: 9 requests, 10 responses.
    assert sum(1 for row in codec_rows if row.kind == "request") == 9
    assert sum(1 for row in codec_rows if row.kind == "response") == 10


def test_bin2_strictly_smaller_than_json_per_message_type(codec_rows):
    """The point of the binary framing, asserted with no averaging."""
    for row in codec_rows:
        assert row.bin2_bytes < row.json_bytes, (
            f"{row.message}: bin2 is {row.bin2_bytes} B but compact JSON "
            f"is {row.json_bytes} B"
        )
        assert 0.0 < row.size_ratio < 1.0, row.message


def test_interning_shrinks_repeat_frames():
    interning = measure_interning()
    assert (
        interning["steady_state_bytes"] < interning["self_contained_bytes"]
    )
    assert interning["first_frame_bytes"] >= interning["steady_state_bytes"]
    assert interning["steady_state_bytes"] < interning["json_bytes"]


def test_committed_bench_codec_json_schema():
    """The repository-root report matches what the bench emits today."""
    document = json.loads(BENCH_JSON.read_text(encoding="utf-8"))
    assert document["bench"] == "table_codec"
    assert document["schema"] == 1
    rows = document["rows"]
    assert {row["message"] for row in rows} == {
        name for name, _kind, _message in SAMPLE_MESSAGES
    }
    for row in rows:
        assert set(row) == ROW_KEYS, row["message"]
        assert row["bin2_bytes"] < row["json_bytes"], row["message"]
        assert 0.0 < row["size_ratio"] < 1.0
        assert row["json_encode_us"] > 0
        assert row["bin2_decode_us"] > 0
    interning = document["interning"]
    assert interning["steady_state_bytes"] < interning["self_contained_bytes"]
    assert interning["steady_state_bytes"] < interning["json_bytes"]
