"""The write-ahead log: mutating requests, append-only, in commit order.

Appends happen at the serving layer's existing linearization point — the
``observer`` hook fires with ``(request, response)`` while the request's
shard locks (or worker mutex) are still held — so WAL order *is* a valid
linearization of the run; the log's own lock only orders appends of
requests on disjoint shards, which commute.  Each record's body is the
request's self-contained bin2 wire frame (throwaway interner), prefixed
with the record's sequence number: the exact encoding the wire already
round-trips under hypothesis, reused rather than reinvented.

Durability knobs:

* ``fsync="always"`` — one ``fsync`` per append (every confirmed
  mutation survives power loss; slowest);
* ``fsync="batch"`` — ``fsync`` every ``fsync_interval`` appends and on
  rotation/close (bounded loss window; the default);
* ``fsync="never"`` — leave flushing to the OS (fastest; crash-consistent
  thanks to per-record CRCs, but the tail may be lost).

Segments rotate at ``segment_bytes``; each file is named by the sequence
number of its *first* record (``wal-<seq016>.log``) so recovery and
compaction order and prune them by name alone.  Compaction — deleting
every segment whose records a snapshot already covers — lives here as
:func:`prune_segments`; taking the snapshot itself is the front door's
job (:class:`repro.persist.durability.Durability`).
"""

from __future__ import annotations

import os
import threading
from dataclasses import dataclass

from repro.api.codec import decode_request_bin2, encode_request_bin2
from repro.api.errors import ProtocolError
from repro.api.protocol import Request
from repro.api.schema import Reader, write_uvarint
from repro.obs import Observability
from repro.persist.records import RecordDamage, encode_record, scan_records

#: The one WAL record type: a sequenced request frame.
REC_REQUEST = 0x10

#: WAL segment filename pattern (field = first sequence number inside).
SEGMENT_PATTERN = "wal-{seq:016d}.log"

#: Valid fsync policies.
FSYNC_POLICIES = ("always", "batch", "never")

#: Default appends between fsyncs under the ``batch`` policy.
DEFAULT_FSYNC_INTERVAL = 64

#: Default segment rotation threshold.
DEFAULT_SEGMENT_BYTES = 4 * 1024 * 1024


def segment_path(directory: str, first_seq: int) -> str:
    return os.path.join(directory, SEGMENT_PATTERN.format(seq=first_seq))


def list_segments(directory: str) -> list[tuple[int, str]]:
    """``(first_seq, path)`` of every WAL segment, oldest first."""
    found = []
    try:
        names = os.listdir(directory)
    except FileNotFoundError:
        return []
    for name in names:
        if name.startswith("wal-") and name.endswith(".log"):
            try:
                seq = int(name[4:-4])
            except ValueError:
                continue
            found.append((seq, os.path.join(directory, name)))
    return sorted(found)


def encode_wal_record(seq: int, request: Request) -> bytes:
    """One framed WAL record for ``request`` at sequence ``seq``."""
    body = bytearray()
    write_uvarint(body, seq)
    frame = encode_request_bin2(request)
    write_uvarint(body, len(frame))
    body += frame
    return encode_record(REC_REQUEST, body)


def decode_wal_body(body: bytes) -> tuple[int, Request]:
    """Inverse of the body half of :func:`encode_wal_record`; raises
    :class:`ProtocolError` on malformed input (callers convert to
    structured damage)."""
    r = Reader(body)
    seq = r.uvarint()
    frame = r.take(r.uvarint())
    r.expect_end()
    return seq, decode_request_bin2(frame)


class WriteAheadLog:
    """Appender over a directory of rotating, CRC-framed segments.

    Thread-safe: one internal lock serializes append/rotate/fsync.  It
    is always the *last* lock acquired (the observer already holds the
    request's shard locks) and never held while any other lock is taken,
    so it cannot participate in a deadlock cycle.
    """

    def __init__(
        self,
        directory: str,
        fsync: str = "batch",
        fsync_interval: int = DEFAULT_FSYNC_INTERVAL,
        segment_bytes: int = DEFAULT_SEGMENT_BYTES,
        start_seq: int = 0,
        obs: Observability | None = None,
    ) -> None:
        if fsync not in FSYNC_POLICIES:
            raise ValueError(
                f"fsync must be one of {FSYNC_POLICIES}, got {fsync!r}"
            )
        if fsync_interval < 1:
            raise ValueError(
                f"fsync_interval must be at least 1, got {fsync_interval}"
            )
        os.makedirs(directory, exist_ok=True)
        self.directory = directory
        self._fsync = fsync
        self._fsync_interval = fsync_interval
        self._segment_bytes = segment_bytes
        self._lock = threading.Lock()
        #: Sequence number of the most recent append (``start_seq`` when
        #: none yet) — recovery passes the replayed position back in so
        #: new appends continue the numbering.
        self._last_seq = start_seq
        self._handle = None
        self._written = 0
        self._unsynced = 0
        self._closed = False
        obs = obs if obs is not None else Observability()
        self._obs_appends = obs.counter("wal.appends")
        self._obs_bytes = obs.counter("wal.append_bytes")
        self._obs_fsyncs = obs.counter("wal.fsyncs")
        self._obs_rotations = obs.counter("wal.rotations")
        self._obs_last_seq = obs.gauge("wal.last_seq")
        self._obs_last_seq.set(start_seq)

    # ------------------------------------------------------------------
    # Appending
    # ------------------------------------------------------------------
    @property
    def last_seq(self) -> int:
        """Sequence number of the most recent append."""
        return self._last_seq

    def append(self, request: Request) -> int:
        """Durably append one request; returns its sequence number."""
        with self._lock:
            if self._closed:
                raise ValueError("write-ahead log is closed")
            seq = self._last_seq + 1
            record = encode_wal_record(seq, request)
            if self._handle is None or self._written >= self._segment_bytes:
                self._rotate_locked(seq)
            self._handle.write(record)
            self._written += len(record)
            self._last_seq = seq
            self._unsynced += 1
            if self._fsync == "always" or (
                self._fsync == "batch"
                and self._unsynced >= self._fsync_interval
            ):
                self._sync_locked()
            self._obs_appends.add(1)
            self._obs_bytes.add(len(record))
            self._obs_last_seq.set(seq)
            return seq

    def _rotate_locked(self, first_seq: int) -> None:
        if self._handle is not None:
            self._sync_locked()
            self._handle.close()
            self._obs_rotations.add(1)
        self._handle = open(segment_path(self.directory, first_seq), "ab")
        self._written = self._handle.tell()

    def _sync_locked(self) -> None:
        if self._handle is None or self._unsynced == 0:
            return
        self._handle.flush()
        if self._fsync != "never":
            os.fsync(self._handle.fileno())
            self._obs_fsyncs.add(1)
        self._unsynced = 0

    def sync(self) -> None:
        """Flush (and, policy permitting, fsync) any buffered appends."""
        with self._lock:
            self._sync_locked()

    def rotate(self) -> None:
        """Force a segment boundary at the current position.

        Called after a snapshot so the just-covered segment stops being
        the append target and becomes prunable.  A no-op when the active
        segment is empty (or the log has never been written).
        """
        with self._lock:
            if self._closed or self._handle is None or self._written == 0:
                return
            self._rotate_locked(self._last_seq + 1)

    def close(self) -> None:
        """Flush and close the active segment; idempotent."""
        with self._lock:
            if self._closed:
                return
            self._closed = True
            if self._handle is not None:
                # Close must not lose buffered appends even under
                # fsync="never": flush always, fsync per policy.
                self._handle.flush()
                if self._fsync != "never" and self._unsynced:
                    os.fsync(self._handle.fileno())
                    self._obs_fsyncs.add(1)
                self._unsynced = 0
                self._handle.close()
                self._handle = None

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:
        return (
            f"WriteAheadLog({self.directory!r}, last_seq={self._last_seq}, "
            f"fsync={self._fsync!r})"
        )


# ----------------------------------------------------------------------
# Reading (never raises)
# ----------------------------------------------------------------------
@dataclass(frozen=True)
class WalScan:
    """Every readable WAL entry plus a report of anything unreadable."""

    #: ``(seq, request)`` in log order.
    entries: tuple[tuple[int, Request], ...]
    #: Damage reports, one per affected segment (path prefixed).
    damage: tuple[RecordDamage, ...]
    #: Highest sequence number read (0 when the log is empty).
    last_seq: int


def read_wal(directory: str, after_seq: int = 0) -> WalScan:
    """Read every entry with ``seq > after_seq``; never raises.

    Damage semantics follow the classic WAL rule: within a segment,
    records after the first damaged one are discarded (a torn tail from
    a crash mid-append truncates cleanly; a CRC hit poisons the rest of
    that file), and any *later* segments are skipped entirely — their
    records would leave a gap in the sequence.
    """
    entries: list[tuple[int, Request]] = []
    damage: list[RecordDamage] = []
    last = after_seq
    segments = list_segments(directory)
    for position, (first_seq, path) in enumerate(segments):
        try:
            with open(path, "rb") as handle:
                data = handle.read()
        except OSError as exc:
            damage.append(RecordDamage("unreadable", 0, f"{path}: {exc}"))
            break
        scan = scan_records(data)
        for rectype, body, offset in scan.records:
            if rectype != REC_REQUEST:
                damage.append(
                    RecordDamage(
                        "malformed",
                        offset,
                        f"{os.path.basename(path)}: unexpected record "
                        f"type {rectype:#04x} in WAL segment",
                    )
                )
                break
            try:
                seq, request = decode_wal_body(body)
            except ProtocolError as exc:
                damage.append(
                    RecordDamage(
                        "malformed",
                        offset,
                        f"{os.path.basename(path)}: {exc.error.detail}",
                    )
                )
                break
            if seq > last:
                entries.append((seq, request))
                last = seq
        else:
            if scan.damage is not None:
                bad = scan.damage
                damage.append(
                    RecordDamage(
                        bad.kind,
                        bad.offset,
                        f"{os.path.basename(path)}: {bad.detail}",
                    )
                )
                if position + 1 < len(segments):
                    damage.append(
                        RecordDamage(
                            "gap",
                            0,
                            f"{len(segments) - position - 1} newer segment(s) "
                            "skipped after damage (their records would leave "
                            "a sequence gap)",
                        )
                    )
                break
            continue
        break
    return WalScan(tuple(entries), tuple(damage), last)


def repair(directory: str) -> list[str]:
    """Physically truncate torn tails and delete post-damage segments.

    Returns a description of each action taken.  Idempotent; safe to run
    before re-arming a :class:`WriteAheadLog` over a recovered directory
    so fresh appends land after a clean tail instead of after garbage.
    """
    actions: list[str] = []
    segments = list_segments(directory)
    for position, (_first_seq, path) in enumerate(segments):
        with open(path, "rb") as handle:
            data = handle.read()
        scan = scan_records(data)
        if scan.damage is None:
            continue
        keep = scan.clean_length
        if keep:
            with open(path, "r+b") as handle:
                handle.truncate(keep)
                handle.flush()
                os.fsync(handle.fileno())
            actions.append(
                f"truncated {os.path.basename(path)} to {keep} clean bytes "
                f"({scan.damage.kind} damage at {scan.damage.offset})"
            )
        else:
            os.unlink(path)
            actions.append(
                f"deleted {os.path.basename(path)} (no clean records)"
            )
        for _seq, later in segments[position + 1 :]:
            os.unlink(later)
            actions.append(
                f"deleted {os.path.basename(later)} (follows damage)"
            )
        break
    return actions


def prune_segments(directory: str, covered_seq: int) -> list[str]:
    """Delete segments every record of which is ``<= covered_seq``.

    The compaction half of snapshotting: once a snapshot includes
    sequence ``covered_seq``, any segment whose *successor's* first
    sequence is ``<= covered_seq + 1`` holds only covered records.  The
    newest segment is always kept (it is the append target).  Returns
    the deleted paths.
    """
    segments = list_segments(directory)
    deleted: list[str] = []
    for position, (first_seq, path) in enumerate(segments):
        if position + 1 >= len(segments):
            break  # never delete the active (newest) segment
        next_first = segments[position + 1][0]
        if next_first <= covered_seq + 1 and first_seq <= covered_seq:
            os.unlink(path)
            deleted.append(path)
        else:
            break
    return deleted
