"""Write-ahead job journal: the service's single source of truth.

Every job-state transition is appended to ``journal.jsonl`` *before*
the manager acts on it, so a killed-and-restarted manager rebuilds the
exact job table by replay.  Framing is one self-checking JSON line per
record::

    {"seq": 17, "crc": "9a2b...", "rec": {"t": "admit", "job": 3, ...}}

``crc`` is the CRC-32 of ``seq`` plus the canonical encoding of
``rec``, so torn tails, bit flips, and interleaved garbage are all
detected per record.  Recovery (:meth:`JobJournal.recover`) replays
the longest valid prefix — records must also arrive in contiguous
``seq`` order — and truncates the file back to it, which makes *any*
prefix truncation of the journal a consistent state (the property test
in ``tests/test_service_journal.py`` drives this with hypothesis).

Durability stance: appends are flushed to the OS on every write (the
failure model is process death, same as the checkpoint layer); pass
``fsync=True`` to survive machine death too, at real I/O cost.

The ``service.journal`` fault site strikes mid-append: a ``"raise"``
spec writes *half* the encoded line and kills the manager (torn
write); a ``"zero"`` spec kills it before any bytes land (lost
record).  Both leave the on-disk prefix consistent by construction.

Resource pressure (PR 10): the journal is a **class-0 durable**
artifact.  An append that fails with ``ENOSPC``/``EDQUOT``/``EIO``
(real, or via the ``io.*`` fault sites) asks the
:class:`~repro.resources.governor.ResourceGovernor` to evict junior
artifacts, truncates any torn partial line back to the valid prefix,
and retries exactly once before surfacing the error.  Unbounded growth
is handled by :meth:`JobJournal.compact`: the live job table is
serialized as a single CRC'd ``snapshot`` record into a sibling temp
file, verified by a full re-scan, and atomically swapped in — the old
history is destroyed only after the snapshot is durable, so a crash at
*any* byte offset of the protocol recovers either the full old journal
or the verified snapshot (hypothesis-tested in
``tests/test_service_compaction.py``).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.resilience.faults import fire_fault
from repro.resources.iofaults import check_io_faults
from repro.service.errors import ManagerKilled

__all__ = ["JobJournal", "JournalRecord", "SNAPSHOT_KIND"]

#: Record type written by :meth:`JobJournal.compact` as sequence 1.
SNAPSHOT_KIND = "snapshot"

JournalRecord = Dict[str, Any]


def _encode(seq: int, rec: JournalRecord) -> bytes:
    body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(f"{seq}:{body}".encode("utf-8")) & 0xFFFFFFFF
    line = json.dumps(
        {"seq": seq, "crc": f"{crc:08x}", "rec": json.loads(body)},
        sort_keys=True,
        separators=(",", ":"),
    )
    return line.encode("utf-8") + b"\n"


def _decode(line: bytes) -> Optional[Tuple[int, JournalRecord]]:
    """Parse + verify one framed line; ``None`` when invalid/torn."""
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if not isinstance(doc, dict) or set(doc) != {"seq", "crc", "rec"}:
        return None
    seq, rec = doc["seq"], doc["rec"]
    if not isinstance(seq, int) or not isinstance(rec, dict):
        return None
    body = json.dumps(rec, sort_keys=True, separators=(",", ":"))
    crc = zlib.crc32(f"{seq}:{body}".encode("utf-8")) & 0xFFFFFFFF
    if doc["crc"] != f"{crc:08x}":
        return None
    return seq, rec


class JobJournal:
    """Append-only, CRC-framed, crash-recoverable job log."""

    def __init__(
        self,
        path: Union[str, Path],
        *,
        fsync: bool = False,
        governor: Optional[Any] = None,
    ) -> None:
        self.path = Path(path)
        self.fsync = bool(fsync)
        self.governor = governor
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._fh = None
        self._seq = 0

    # ------------------------------------------------------------------
    @staticmethod
    def scan(path: Union[str, Path]) -> Tuple[List[JournalRecord], int]:
        """Replay ``path``: ``(records, valid_bytes)`` of the longest
        valid prefix.  Read-only — never mutates the file, so it is
        safe for the ``jobs`` CLI against a live journal.
        """
        path = Path(path)
        records: List[JournalRecord] = []
        offset = 0
        if not path.exists():
            return records, offset
        data = path.read_bytes()
        expect = 1
        while True:
            end = data.find(b"\n", offset)
            if end < 0:  # trailing partial line (torn write): stop here
                break
            decoded = _decode(data[offset:end])
            if decoded is None:
                break
            seq, rec = decoded
            if seq != expect:  # replayed/missing record: prefix ends
                break
            records.append(rec)
            offset = end + 1
            expect += 1
        return records, offset

    def recover(self) -> List[JournalRecord]:
        """Replay the journal, truncate any torn tail, open for append.

        Returns the replayed records; afterwards :meth:`append`
        continues the sequence numbering where the valid prefix ended.
        """
        records, valid = self.scan(self.path)
        if self.path.exists() and valid < self.path.stat().st_size:
            with open(self.path, "rb+") as fh:
                fh.truncate(valid)
        self._seq = len(records)
        return records

    # ------------------------------------------------------------------
    def _handle(self):
        if self._fh is None or self._fh.closed:
            self._fh = open(self.path, "ab")
        return self._fh

    def append(self, rec: JournalRecord) -> int:
        """Durably append one record; returns its sequence number.

        The ``service.journal`` fault site fires *inside* the append —
        see the module docstring for the torn/lost-write semantics.
        """
        seq = self._seq + 1
        payload = _encode(seq, rec)
        fh = self._handle()
        spec = fire_fault("service.journal", seq=seq)
        if spec is not None:
            if spec.kind == "raise":  # torn write: half the line, no \n
                fh.write(payload[: max(1, len(payload) // 2)])
                fh.flush()
            self.close()
            raise ManagerKilled(
                f"manager killed mid-journal-append (seq {seq}, "
                f"{'torn' if spec.kind == 'raise' else 'lost'} write)"
            )
        try:
            check_io_faults(self.path, writer="journal", seq=seq)
            fh.write(payload)
            fh.flush()
        except OSError:
            self._retry_append(payload)
            fh = self._fh  # the retry reopened the handle
        if self.fsync:
            os.fsync(fh.fileno())
        self._seq = seq
        return seq

    def _retry_append(self, payload: bytes) -> None:
        """Recover a class-0 append from a full disk: release + retry.

        The failed write may have landed a partial line, so the file is
        first truncated back to its longest valid prefix (re-scanned;
        this is a rare error path) before the single retry.  A second
        failure propagates — the journal never degrades silently.
        """
        self.close()
        if self.governor is not None:
            self.governor.emergency_release(max(len(payload) * 4, 1 << 16))
        _, valid = self.scan(self.path)
        if self.path.exists() and valid < self.path.stat().st_size:
            with open(self.path, "rb+") as fh:
                fh.truncate(valid)
        fh = self._handle()
        check_io_faults(self.path, writer="journal_retry")
        fh.write(payload)
        fh.flush()

    # ------------------------------------------------------------------
    def size_bytes(self) -> int:
        """Current on-disk size of the journal (0 when absent)."""
        try:
            return self.path.stat().st_size
        except OSError:
            return 0

    def compact(
        self,
        snapshot: JournalRecord,
        *,
        kill_after_bytes: Optional[int] = None,
        kill_before_replace: bool = False,
        kill_after_replace: bool = False,
    ) -> int:
        """Replace the whole history with one verified snapshot record.

        Protocol (crash-safe at every byte):

        1. write ``snapshot`` as sequence 1 into ``<journal>.compact``
           in the same directory, flush + fsync;
        2. **verify** by fully re-scanning the temp file (exactly one
           record, zero torn bytes, payload round-trips);
        3. ``os.replace`` it over the journal, fsync the directory;
        4. resume appending at sequence 2.

        A crash before step 3 leaves the old journal untouched (the
        stale ``.compact`` temp is ignored by recovery and unlinked by
        the next compaction); a crash after step 3 leaves the verified
        snapshot.  Either way recovery rebuilds the same job table.

        The ``kill_*`` hooks crash the manager at the named point (for
        the hypothesis crash-equivalence tests).  Returns the new
        journal size in bytes.
        """
        tmp = self.path.with_name(self.path.name + ".compact")
        tmp.unlink(missing_ok=True)
        payload = _encode(1, snapshot)
        check_io_faults(tmp, writer="journal_compact")
        with open(tmp, "wb") as fh:
            if kill_after_bytes is not None and kill_after_bytes < len(
                payload
            ):
                fh.write(payload[:kill_after_bytes])
                fh.flush()
                raise ManagerKilled(
                    f"manager killed mid-compaction (snapshot torn at "
                    f"byte {kill_after_bytes})"
                )
            fh.write(payload)
            fh.flush()
            os.fsync(fh.fileno())
        records, valid = self.scan(tmp)
        if (
            len(records) != 1
            or records[0] != snapshot
            or valid != tmp.stat().st_size
        ):
            tmp.unlink(missing_ok=True)
            raise OSError(f"compaction snapshot failed verification: {tmp}")
        if kill_before_replace:
            raise ManagerKilled(
                "manager killed after snapshot verify, before swap"
            )
        # Imported here, not at module top, as in the telemetry
        # exporter: repro.io pulls in the whole repro package root.
        from repro.io import fsync_dir

        self.close()
        os.replace(tmp, self.path)
        fsync_dir(self.path)
        self._seq = 1
        if kill_after_replace:
            raise ManagerKilled("manager killed after compaction swap")
        return self.size_bytes()

    def close(self) -> None:
        if self._fh is not None and not self._fh.closed:
            self._fh.close()
        self._fh = None

    def __enter__(self) -> "JobJournal":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
