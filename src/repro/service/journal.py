"""Write-ahead job journal: the service's single source of truth.

Every job-state transition is appended to ``journal.jsonl`` *before*
the manager acts on it, so a killed-and-restarted manager rebuilds the
exact job table by replay.  Framing is one self-checking JSON line per
record::

    {"seq": 17, "crc": "9a2b...", "rec": {"t": "admit", "job": 3, ...}}

``crc`` is the CRC-32 of ``seq`` plus the canonical encoding of
``rec``, so torn tails, bit flips, and interleaved garbage are all
detected per record.  Recovery (:meth:`JobJournal.recover`) replays
the longest valid prefix (:func:`repro.durable.scan`; ``seq`` must
also be contiguous) and repairs the file's tail, which makes *any*
prefix truncation of the journal a consistent state.

Durability stance: appends are flushed to the OS on every write (the
failure model is process death, same as the checkpoint layer); pass
``fsync=True`` to survive machine death too, at real I/O cost.

The ``service.journal`` fault site strikes mid-append: a ``"raise"``
spec writes *half* the encoded line and kills the manager (torn
write); a ``"zero"`` spec kills it before any bytes land (lost
record).  Both leave the on-disk prefix consistent by construction.

Resource pressure: the journal is a **class-0 durable** artifact.  An
append that fails with an ``OSError`` asks the
:class:`~repro.resources.governor.ResourceGovernor` to evict junior
artifacts, repairs the tail and retries exactly once before surfacing
the error.  :meth:`JobJournal.compact` bounds growth by publishing the
live job table as one verified ``snapshot`` record.
"""

from __future__ import annotations

import glob
import itertools
import json
import os
import zlib
from pathlib import Path
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.durable import publish, remove_orphans, repair_tail, scan
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


def _scan(data: bytes) -> Tuple[List[JournalRecord], int]:
    """:func:`repro.durable.scan` with the journal's decoder: a line
    counts only if its CRC checks and its ``seq`` continues the prefix."""
    expected = itertools.count(1)

    def decode(line: bytes) -> JournalRecord:
        decoded = _decode(line)
        if decoded is None or decoded[0] != next(expected):
            raise ValueError("torn, corrupt or out-of-sequence record")
        return decoded[1]

    return scan(data, decode)


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
        """``(records, valid_bytes)`` of the longest valid prefix.
        Read-only, so safe for the ``jobs`` CLI against a live journal."""
        path = Path(path)
        return _scan(path.read_bytes()) if path.exists() else ([], 0)

    def recover(self) -> List[JournalRecord]:
        """Replay the journal and repair its tail
        (:func:`repro.durable.repair_tail`), and remove the temp file a
        compaction killed mid-publish left; :meth:`append` then
        continues the numbering after the valid prefix."""
        remove_orphans(self.path.parent, glob.escape(self.path.name))
        data = self.path.read_bytes() if self.path.exists() else b""
        records, valid = _scan(data)
        repair_tail(self.path, data, valid)
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
            self._retry_append(seq, payload)
            fh = self._fh  # the retry reopened the handle
        if self.fsync:
            os.fsync(fh.fileno())
        self._seq = seq
        return seq

    def _retry_append(self, seq: int, payload: bytes) -> None:
        """Recover a class-0 append from a full disk: release, repair
        the tail the failed write may have torn, and retry once unless
        the whole record had landed.  A second failure propagates."""
        self.close()
        if self.governor is not None:
            self.governor.emergency_release(max(len(payload) * 4, 1 << 16))
        landed = len(self.recover()) == seq
        fh = self._handle()
        if landed:
            return
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

        One :func:`repro.durable.publish`: the snapshot (sequence 1) is
        written to a temporary file, re-read and re-scanned (exactly one
        record, no torn bytes), then fsynced and swapped in.  A crash
        before the swap leaves the old journal, one after it the
        verified snapshot; either replays to the same job table.  The
        ``kill_*`` hooks crash the manager at the named points (for the
        crash-equivalence tests).  Returns the new journal size.
        """
        payload = _encode(1, snapshot)

        def write(fh) -> None:
            torn = kill_after_bytes is not None and kill_after_bytes < len(
                payload
            )
            fh.write(payload[:kill_after_bytes] if torn else payload)
            if torn:
                raise ManagerKilled(
                    f"manager killed mid-compaction (snapshot torn at "
                    f"byte {kill_after_bytes})"
                )
            fh.seek(0)
            data = fh.read()
            records, valid = _scan(data)
            if records != [snapshot] or valid != len(data):
                raise OSError("compaction snapshot failed verification")
            if kill_before_replace:
                raise ManagerKilled(
                    "manager killed after snapshot verify, before swap"
                )

        self.close()
        publish(self.path, write, writer="journal_compact")
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
