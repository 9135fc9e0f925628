"""Write-ahead log: round-trips, rotation, damage, repair, compaction.

The WAL body is the request's bin2 wire frame, so the hypothesis
round-trip here covers *every* record type the log can hold: one
strategy per mutating (and, for completeness, read) request type,
appended and read back bit-identically — compared as canonical wire
JSON, the same identity the differential harness asserts.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro.api.handles import FunctionHandle
from repro.api.protocol import (
    AllocateRequest,
    BatchLiveness,
    CompileSourceRequest,
    DestructRequest,
    EvictRequest,
    LivenessQuery,
    LiveSetRequest,
    NotifyRequest,
    StatsRequest,
    encode_request,
)
from repro.persist.wal import (
    FSYNC_POLICIES,
    WriteAheadLog,
    decode_wal_body,
    encode_wal_record,
    list_segments,
    prune_segments,
    read_wal,
    repair,
    segment_path,
)
from repro.persist.records import scan_records

# ----------------------------------------------------------------------
# One strategy per request type the log can carry
# ----------------------------------------------------------------------
names = st.text(min_size=1, max_size=12).filter(lambda s: s == s.strip())
handles = st.builds(
    FunctionHandle,
    name=names,
    revision=st.one_of(st.none(), st.integers(0, 2**32)),
)
liveness_queries = st.builds(
    LivenessQuery,
    function=handles,
    kind=st.sampled_from(("in", "out")),
    variable=names,
    block=names,
)
requests = st.one_of(
    st.builds(
        NotifyRequest,
        function=handles,
        kind=st.sampled_from(("cfg", "instructions")),
    ),
    st.builds(
        DestructRequest,
        function=handles,
        engine=st.sampled_from(("fast", "dataflow")),
        verify=st.booleans(),
    ),
    st.builds(
        AllocateRequest,
        function=handles,
        num_registers=st.one_of(st.none(), st.integers(0, 64)),
        engine=st.sampled_from(("fast", "dataflow")),
        destruct=st.booleans(),
    ),
    st.builds(
        CompileSourceRequest, source=st.text(max_size=80), module_name=names
    ),
    st.builds(EvictRequest, function=handles),
    liveness_queries,
    st.builds(BatchLiveness, queries=st.lists(liveness_queries, max_size=4)),
    st.builds(
        LiveSetRequest,
        function=handles,
        block=names,
        kind=st.sampled_from(("in", "out")),
    ),
    st.builds(StatsRequest, reset=st.booleans()),
)


def canonical(request) -> str:
    return json.dumps(encode_request(request), sort_keys=True)


def sample_requests(count: int) -> list:
    return [
        NotifyRequest(function=FunctionHandle(f"fn{i}"), kind="cfg")
        for i in range(count)
    ]


# ----------------------------------------------------------------------
# Round-trips
# ----------------------------------------------------------------------
@given(st.integers(1, 2**40), requests)
@settings(max_examples=80)
def test_every_record_type_round_trips(seq, request):
    record = encode_wal_record(seq, request)
    scan = scan_records(record)
    assert scan.damage is None and len(scan.records) == 1
    got_seq, got_request = decode_wal_body(scan.records[0][1])
    assert got_seq == seq
    assert canonical(got_request) == canonical(request)


@given(st.lists(requests, max_size=12), st.sampled_from(FSYNC_POLICIES))
@settings(max_examples=40, deadline=None)
def test_log_round_trips_under_every_fsync_policy(tmp_path_factory, reqs, fsync):
    directory = str(tmp_path_factory.mktemp("wal"))
    with WriteAheadLog(directory, fsync=fsync, fsync_interval=3) as wal:
        seqs = [wal.append(request) for request in reqs]
    assert seqs == list(range(1, len(reqs) + 1))
    scan = read_wal(directory)
    assert scan.damage == ()
    assert [seq for seq, _ in scan.entries] == seqs
    assert [canonical(r) for _, r in scan.entries] == [
        canonical(r) for r in reqs
    ]
    assert scan.last_seq == len(reqs)


def test_start_seq_continues_numbering(tmp_path):
    with WriteAheadLog(str(tmp_path), start_seq=41) as wal:
        assert wal.append(sample_requests(1)[0]) == 42
        assert wal.last_seq == 42


def test_read_wal_after_seq_filters(tmp_path):
    with WriteAheadLog(str(tmp_path)) as wal:
        for request in sample_requests(6):
            wal.append(request)
    scan = read_wal(str(tmp_path), after_seq=4)
    assert [seq for seq, _ in scan.entries] == [5, 6]


# ----------------------------------------------------------------------
# Rotation and segments
# ----------------------------------------------------------------------
def test_rotation_splits_segments_and_read_spans_them(tmp_path):
    with WriteAheadLog(str(tmp_path), segment_bytes=1) as wal:
        for request in sample_requests(5):
            wal.append(request)
    segments = list_segments(str(tmp_path))
    assert len(segments) == 5  # 1-byte budget: every append rotates
    assert [first for first, _ in segments] == [1, 2, 3, 4, 5]
    scan = read_wal(str(tmp_path))
    assert [seq for seq, _ in scan.entries] == [1, 2, 3, 4, 5]


def test_explicit_rotate_forces_segment_boundary(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.append(sample_requests(1)[0])
    wal.rotate()
    assert [first for first, _ in list_segments(str(tmp_path))] == [1, 2]
    wal.append(NotifyRequest(function=FunctionHandle("late"), kind="cfg"))
    wal.close()
    segments = list_segments(str(tmp_path))
    assert [first for first, _ in segments] == [1, 2]
    assert read_wal(str(tmp_path)).last_seq == 2


def test_rotate_on_empty_log_is_noop(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.rotate()
    assert list_segments(str(tmp_path)) == []
    wal.close()


def test_close_is_idempotent_and_fences_appends(tmp_path):
    wal = WriteAheadLog(str(tmp_path))
    wal.append(sample_requests(1)[0])
    wal.close()
    wal.close()
    with pytest.raises(ValueError):
        wal.append(sample_requests(1)[0])


# ----------------------------------------------------------------------
# Damage: torn tails, mid-log corruption, repair
# ----------------------------------------------------------------------
def torn_log(tmp_path, count: int = 4, cut: int = 3) -> str:
    directory = str(tmp_path)
    with WriteAheadLog(directory) as wal:
        for request in sample_requests(count):
            wal.append(request)
    _first, path = list_segments(directory)[-1]
    data = Path(path).read_bytes()
    with open(path, "wb") as handle:
        handle.write(data[:-cut])
    return directory


def test_torn_tail_yields_clean_prefix(tmp_path):
    directory = torn_log(tmp_path, count=4, cut=3)
    scan = read_wal(directory)
    assert [seq for seq, _ in scan.entries] == [1, 2, 3]
    assert len(scan.damage) == 1 and scan.damage[0].kind == "torn"


@given(st.integers(1, 200))
@settings(max_examples=25, deadline=None)
def test_any_torn_tail_never_raises(tmp_path_factory, cut):
    directory = str(tmp_path_factory.mktemp("wal"))
    with WriteAheadLog(directory) as wal:
        for request in sample_requests(3):
            wal.append(request)
    _first, path = list_segments(directory)[0]
    data = Path(path).read_bytes()
    with open(path, "wb") as handle:
        handle.write(data[: max(0, len(data) - cut)])
    scan = read_wal(directory)  # must not raise
    assert len(scan.entries) <= 3
    assert all(seq == i + 1 for i, (seq, _) in enumerate(scan.entries))


def test_corruption_in_older_segment_skips_newer_ones(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory, segment_bytes=1) as wal:
        for request in sample_requests(4):
            wal.append(request)
    segments = list_segments(directory)
    assert len(segments) == 4
    _first, victim = segments[1]
    data = bytearray(Path(victim).read_bytes())
    data[-1] ^= 0xFF
    Path(victim).write_bytes(bytes(data))
    scan = read_wal(directory)
    # Records past the damage would leave a sequence gap; classic rule
    # says discard them.
    assert [seq for seq, _ in scan.entries] == [1]
    kinds = {d.kind for d in scan.damage}
    assert "crc" in kinds and "gap" in kinds


def test_repair_truncates_and_deletes(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory, segment_bytes=1) as wal:
        for request in sample_requests(3):
            wal.append(request)
    segments = list_segments(directory)
    _first, victim = segments[0]
    data = bytearray(Path(victim).read_bytes())
    data[-1] ^= 0xFF
    Path(victim).write_bytes(bytes(data))
    actions = repair(directory)
    assert actions, "repair should have acted on the damage"
    # After repair the directory reads clean — and stays clean.
    assert read_wal(directory).damage == ()
    assert repair(directory) == []


def test_repair_on_clean_directory_is_noop(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory) as wal:
        for request in sample_requests(2):
            wal.append(request)
    assert repair(directory) == []
    assert [seq for seq, _ in read_wal(directory).entries] == [1, 2]


def test_appends_resume_after_repair(tmp_path):
    directory = torn_log(tmp_path, count=4, cut=3)
    repair(directory)
    last = read_wal(directory).last_seq
    with WriteAheadLog(directory, start_seq=last) as wal:
        wal.append(NotifyRequest(function=FunctionHandle("resumed"), kind="cfg"))
    scan = read_wal(directory)
    assert scan.damage == ()
    assert [seq for seq, _ in scan.entries] == [1, 2, 3, 4]


# ----------------------------------------------------------------------
# Compaction
# ----------------------------------------------------------------------
def test_prune_deletes_only_fully_covered_segments(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory, segment_bytes=1) as wal:
        for request in sample_requests(5):
            wal.append(request)
    # Segments hold seqs [1], [2], [3], [4], [5]; a snapshot covering 3
    # may delete the first three, keeping [4] and the active [5].
    deleted = prune_segments(directory, covered_seq=3)
    assert [os.path.basename(p) for p in deleted] == [
        os.path.basename(segment_path(directory, s)) for s in (1, 2, 3)
    ]
    scan = read_wal(directory, after_seq=3)
    assert [seq for seq, _ in scan.entries] == [4, 5]


def test_prune_never_deletes_the_active_segment(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory) as wal:  # one segment holds everything
        for request in sample_requests(4):
            wal.append(request)
    assert prune_segments(directory, covered_seq=100) == []
    assert len(list_segments(directory)) == 1


def test_prune_respects_uncovered_tail(tmp_path):
    directory = str(tmp_path)
    with WriteAheadLog(directory, segment_bytes=1) as wal:
        for request in sample_requests(4):
            wal.append(request)
    # Covering seq 0 covers nothing: no deletion.
    assert prune_segments(directory, covered_seq=0) == []
    assert len(list_segments(directory)) == 4
