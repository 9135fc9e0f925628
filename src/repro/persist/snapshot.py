"""The versioned snapshot format: module IR, revisions, service state.

A snapshot is a flat file of :mod:`repro.persist.records` records::

    HEADER    | topology (shards, capacity, strategy), counts, last_seq
    FUNCTION* | one per registered function, in registration order:
              |   name, revision, printed IR
    PRECOMP*  | one per resident checker with a built precomputation,
              |   in shard order then LRU order (least-recent first):
              |   the flat numeric arrays (see repro.persist.precomp)
    END       | state digest + record count (the completeness witness)

Two properties the tests pin down:

* **Fixpoint.**  Restoring a snapshot and re-snapshotting produces the
  identical bytes.  Functions round-trip through the IR printer/parser
  (a proven fixpoint, including destructed non-SSA programs), revisions
  are copied verbatim, and precomputation arrays are re-exported from
  the restore shim which holds the deserialized values themselves.
* **Cache geometry is unobservable.**  PRECOMP records change which
  checkers are *resident* after restore — never what any query answers.
  Evictions and LRU churn before a snapshot therefore cannot change a
  restored replica's responses (the differential suite proves it).

The ``last_seq`` field names the WAL sequence number the snapshot
includes; recovery replays only strictly newer log records, and
compaction may delete segments at or below it.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, replace

from repro.api.errors import ProtocolError
from repro.api.schema import Reader, write_str, write_uvarint
from repro.persist.precomp import PrecompState
from repro.persist.records import RecordDamage, encode_record, scan_records

#: Record types inside a snapshot file.
REC_HEADER = 0x01
REC_FUNCTION = 0x02
REC_PRECOMP = 0x03
REC_END = 0x0F

#: Human-readable record-type names (inspect CLI).
SNAPSHOT_RECORD_NAMES = {
    REC_HEADER: "header",
    REC_FUNCTION: "function",
    REC_PRECOMP: "precomp",
    REC_END: "end",
}


@dataclass(frozen=True)
class FunctionState:
    """One registered function's durable identity."""

    name: str
    #: Current edit revision — restored exactly, because ``STALE_HANDLE``
    #: semantics depend on it.
    revision: int
    #: Printed IR (the print/parse fixpoint is the cloning mechanism).
    source: str


@dataclass(frozen=True)
class SnapshotState:
    """Everything one snapshot file carries, as plain values."""

    #: Shard / worker count the server was built with.
    shards: int
    #: Total resident-checker budget (sum of per-shard capacities).
    capacity: int
    #: ``TargetSets`` strategy.
    strategy: str
    #: Highest WAL sequence number included in this state.
    last_seq: int
    #: Registered functions, in registration order.
    functions: tuple[FunctionState, ...]
    #: Resident precomputations, shard order then LRU order.
    precomps: tuple[PrecompState, ...]

    def digest(self) -> str:
        """The observable-state digest (see :func:`state_digest`)."""
        return state_digest(self.functions)


def state_digest(functions) -> str:
    """SHA-256 over ``(name, revision, source)`` in registration order.

    This is the *observable* state — what decides every response — so it
    is also the replica divergence check: two servers with equal digests
    answer every request identically (cache geometry, which the digest
    deliberately ignores, is unobservable by protocol design).
    """
    hasher = hashlib.sha256()
    for entry in functions:
        name, revision, source = (
            (entry.name, entry.revision, entry.source)
            if isinstance(entry, FunctionState)
            else entry
        )
        hasher.update(name.encode("utf-8"))
        hasher.update(b"\x00")
        hasher.update(str(revision).encode("ascii"))
        hasher.update(b"\x00")
        hasher.update(source.encode("utf-8"))
        hasher.update(b"\x01")
    return hasher.hexdigest()


# ----------------------------------------------------------------------
# Encoding
# ----------------------------------------------------------------------
def _w_mask(out: bytearray, value: int) -> None:
    raw = value.to_bytes((value.bit_length() + 7) // 8, "little")
    write_uvarint(out, len(raw))
    out += raw


def _r_mask(r: Reader) -> int:
    return int.from_bytes(r.blob(), "little")


def encode_snapshot(state: SnapshotState) -> bytes:
    """The complete snapshot file for ``state``, deterministically."""
    chunks: list[bytes] = []
    header = bytearray()
    write_uvarint(header, state.shards)
    write_uvarint(header, state.capacity)
    write_str(header, state.strategy)
    write_uvarint(header, len(state.functions))
    write_uvarint(header, len(state.precomps))
    write_uvarint(header, state.last_seq)
    chunks.append(encode_record(REC_HEADER, header))
    for fn in state.functions:
        body = bytearray()
        write_str(body, fn.name)
        write_uvarint(body, fn.revision)
        write_str(body, fn.source)
        chunks.append(encode_record(REC_FUNCTION, body))
    for pre in state.precomps:
        body = bytearray()
        write_str(body, pre.name)
        write_str(body, pre.strategy)
        body.append(1 if pre.reducible else 0)
        write_uvarint(body, len(pre.order))
        for block in pre.order:
            write_str(body, block)
        for value in pre.maxnums:
            write_uvarint(body, value)
        for mask in pre.r_masks:
            _w_mask(body, mask)
        for mask in pre.t_masks:
            _w_mask(body, mask)
        _w_mask(body, pre.back_mask)
        chunks.append(encode_record(REC_PRECOMP, body))
    end = bytearray()
    write_str(end, state.digest())
    write_uvarint(end, len(chunks) + 1)  # every record, END included
    chunks.append(encode_record(REC_END, end))
    return b"".join(chunks)


# ----------------------------------------------------------------------
# Decoding (never raises: structured damage instead)
# ----------------------------------------------------------------------
def decode_snapshot(data: bytes) -> tuple[SnapshotState | None, RecordDamage | None]:
    """Parse one snapshot byte string.

    Returns ``(state, None)`` on success and ``(None, damage)`` for any
    byte-level damage, structural violation, missing END record or
    digest mismatch — a snapshot is all-or-nothing (unlike the WAL,
    whose clean prefix is still useful).
    """
    scan = scan_records(data)
    if scan.damage is not None:
        return None, scan.damage
    records = scan.records
    if not records:
        return None, RecordDamage("torn", 0, "empty snapshot file")
    try:
        rectype, body, _offset = records[0]
        if rectype != REC_HEADER:
            return None, RecordDamage(
                "malformed", 0, f"first record type {rectype:#04x} is not a header"
            )
        r = Reader(body)
        shards = r.uvarint()
        capacity = r.uvarint()
        strategy = r.str_()
        n_functions = r.uvarint()
        n_precomps = r.uvarint()
        last_seq = r.uvarint()
        r.expect_end()
        if records[-1][0] != REC_END:
            return None, RecordDamage(
                "torn",
                len(data),
                "snapshot has no END record (writer died mid-snapshot?)",
            )
        functions: list[FunctionState] = []
        precomps: list[PrecompState] = []
        for rectype, body, offset in records[1:-1]:
            r = Reader(body)
            if rectype == REC_FUNCTION:
                name = r.str_()
                revision = r.uvarint()
                source = r.str_()
                r.expect_end()
                functions.append(FunctionState(name, revision, source))
            elif rectype == REC_PRECOMP:
                name = r.str_()
                pre_strategy = r.str_()
                reducible = bool(r.u8())
                count = r.uvarint()
                order = tuple(r.str_() for _ in range(count))
                maxnums = tuple(r.uvarint() for _ in range(count))
                r_masks = tuple(_r_mask(r) for _ in range(count))
                t_masks = tuple(_r_mask(r) for _ in range(count))
                back_mask = _r_mask(r)
                r.expect_end()
                precomps.append(
                    PrecompState(
                        name=name,
                        strategy=pre_strategy,
                        reducible=reducible,
                        order=order,
                        maxnums=maxnums,
                        r_masks=r_masks,
                        t_masks=t_masks,
                        back_mask=back_mask,
                    )
                )
            else:
                return None, RecordDamage(
                    "malformed",
                    offset,
                    f"unexpected record type {rectype:#04x} in snapshot body",
                )
        if len(functions) != n_functions or len(precomps) != n_precomps:
            return None, RecordDamage(
                "malformed",
                0,
                f"header promises {n_functions} functions / {n_precomps} "
                f"precomps, file has {len(functions)} / {len(precomps)}",
            )
        r = Reader(records[-1][1])
        declared_digest = r.str_()
        declared_records = r.uvarint()
        r.expect_end()
        if declared_records != len(records):
            return None, RecordDamage(
                "malformed",
                records[-1][2],
                f"END record promises {declared_records} records, "
                f"file has {len(records)}",
            )
        state = SnapshotState(
            shards=shards,
            capacity=capacity,
            strategy=strategy,
            last_seq=last_seq,
            functions=tuple(functions),
            precomps=tuple(precomps),
        )
        if state.digest() != declared_digest:
            return None, RecordDamage(
                "digest",
                records[-1][2],
                f"state digest {state.digest()[:12]}… does not match the "
                f"recorded {declared_digest[:12]}…",
            )
        return state, None
    except ProtocolError as exc:
        return None, RecordDamage("malformed", 0, str(exc.error.detail))


# ----------------------------------------------------------------------
# Files
# ----------------------------------------------------------------------
#: Snapshot filename pattern; the zero-padded field is ``last_seq`` so a
#: lexicographic sort is a recency sort.
SNAPSHOT_PATTERN = "snap-{seq:016d}.snap"


def snapshot_path(directory: str, last_seq: int) -> str:
    return os.path.join(directory, SNAPSHOT_PATTERN.format(seq=last_seq))


def list_snapshots(directory: str) -> list[tuple[int, str]]:
    """``(last_seq, path)`` of every snapshot file, oldest first."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith("snap-") and name.endswith(".snap"):
            try:
                seq = int(name[5:-5])
            except ValueError:
                continue
            found.append((seq, os.path.join(directory, name)))
    return sorted(found)


def write_snapshot(directory: str, state: SnapshotState) -> str:
    """Atomically write ``state``; returns the snapshot's path.

    Write-to-temp + ``fsync`` + ``rename`` — a crash mid-write leaves the
    previous snapshot untouched and at worst an orphan temp file.
    """
    os.makedirs(directory, exist_ok=True)
    data = encode_snapshot(state)
    path = snapshot_path(directory, state.last_seq)
    tmp = path + ".tmp"
    with open(tmp, "wb") as handle:
        handle.write(data)
        handle.flush()
        os.fsync(handle.fileno())
    os.replace(tmp, path)
    return path


def load_snapshot(path: str) -> tuple[SnapshotState | None, RecordDamage | None]:
    """Read and decode one snapshot file; never raises on damage."""
    try:
        with open(path, "rb") as handle:
            data = handle.read()
    except OSError as exc:
        return None, RecordDamage("unreadable", 0, str(exc))
    return decode_snapshot(data)


def load_newest_snapshot(
    directory: str,
) -> tuple[SnapshotState | None, str | None, list[RecordDamage]]:
    """The newest *valid* snapshot in ``directory``.

    Damaged candidates are skipped (recorded in the returned damage
    list) and the next-newest is tried — a torn snapshot from a crash
    mid-compaction must never mask an older good one.
    """
    damage: list[RecordDamage] = []
    for _seq, path in reversed(list_snapshots(directory)):
        state, bad = load_snapshot(path)
        if state is not None:
            return state, path, damage
        assert bad is not None
        damage.append(
            RecordDamage(bad.kind, bad.offset, f"{os.path.basename(path)}: {bad.detail}")
        )
    return None, None, damage


def make_snapshot_state(
    shards: int,
    capacity: int,
    strategy: str,
    functions,
    precomps=(),
    last_seq: int = 0,
) -> SnapshotState:
    """Build a :class:`SnapshotState` from raw export tuples."""
    return SnapshotState(
        shards=shards,
        capacity=capacity,
        strategy=strategy,
        last_seq=last_seq,
        functions=tuple(
            entry
            if isinstance(entry, FunctionState)
            else FunctionState(*entry)
            for entry in functions
        ),
        precomps=tuple(precomps),
    )


def with_last_seq(state: SnapshotState, last_seq: int) -> SnapshotState:
    """``state`` with its WAL position replaced."""
    return replace(state, last_seq=last_seq)
