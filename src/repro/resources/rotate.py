"""Size-bounded rotation of append-only JSONL streams.

Every append-only stream in the stack (``trace.jsonl``,
``events.jsonl``, ``metrics.jsonl``) historically grew without bound.
A :class:`RotatingJsonlWriter` caps the *active* file at
``StreamBudget.max_segment_bytes``: when an append crosses the budget
the file is **sealed** — a final CRC line recording the segment's line
count and a CRC-32 over every preceding byte::

    {"__seal__": {"crc": "9a2b01ff", "lines": 4181}}

— and renamed to a numbered segment (``trace.000001.jsonl``), leaving
a fresh active file for the next append.  Only the newest
``keep_segments`` sealed segments are retained; older ones are pruned
(telemetry is the most junior seniority class — see
:mod:`repro.resources.governor`).

Readers (:func:`read_jsonl_stream`, backing ``read_trace`` and
``read_events``) span segments oldest first; only the newest segment,
the one a crash can tear, gets the longest-valid-prefix rule.  The
writer repairs the active file's tail before appending to it
(:mod:`repro.durable`).

Degraded mode: when an append fails with an :class:`OSError` (real
``ENOSPC``/``EDQUOT``/``EIO``, or the injectable ``io.*`` fault sites)
the writer *sheds* — lines divert to a bounded in-memory ring, counted
under the ``telemetry.shed`` metric, and the disk is re-probed every
``retry_every`` appends.  Telemetry loss is the designed failure mode;
it must never cascade into the simulation or the journal.
"""

from __future__ import annotations

import json
import logging
import os
import zlib
from collections import deque
from dataclasses import dataclass
from pathlib import Path
from typing import (
    Any,
    Callable,
    Dict,
    Iterable,
    List,
    Optional,
    Set,
    Tuple,
    Union,
)

from repro.durable import DECODE_ERRORS, repair_tail, scan, tail_end
from repro.resources.iofaults import check_io_faults

__all__ = [
    "DEFAULT_STREAM_BUDGET",
    "RotatingJsonlWriter",
    "SEAL_KEY",
    "StreamBudget",
    "parse_size",
    "read_jsonl_stream",
    "seal_valid",
    "sealed_segments",
    "stream_segments",
]

logger = logging.getLogger(__name__)

SEAL_KEY = "__seal__"

#: Streams that have already logged their one-time rotation/shed WARN.
_WARNED: Set[str] = set()

_SIZE_SUFFIXES = {"k": 1 << 10, "m": 1 << 20, "g": 1 << 30}


def parse_size(text: str) -> int:
    """Parse ``"4096"`` / ``"64k"`` / ``"16m"`` / ``"2g"`` into bytes."""
    raw = str(text).strip().lower().rstrip("b")
    if not raw:
        raise ValueError(f"empty size {text!r}")
    mult = 1
    if raw[-1] in _SIZE_SUFFIXES:
        mult = _SIZE_SUFFIXES[raw[-1]]
        raw = raw[:-1]
    try:
        value = float(raw)
    except ValueError as exc:
        raise ValueError(f"unparseable size {text!r}") from exc
    if value <= 0:
        raise ValueError(f"size must be positive (got {text!r})")
    return int(value * mult)


@dataclass(frozen=True)
class StreamBudget:
    """Retention budget for one append-only JSONL stream.

    The conservative defaults bound every stream at roughly
    ``max_segment_bytes * (keep_segments + 1)`` on disk (sealed
    segments plus the active file) — about 80 MiB per stream — without
    any configuration.  Override per run with ``--stream-budget``.
    """

    max_segment_bytes: int = 16 << 20
    keep_segments: int = 4

    def __post_init__(self) -> None:
        if self.max_segment_bytes < 1024:
            raise ValueError("max_segment_bytes must be >= 1024")
        if self.keep_segments < 1:
            raise ValueError("keep_segments must be >= 1")

    @classmethod
    def parse(cls, text: str) -> Optional["StreamBudget"]:
        """Parse the CLI form ``SIZE[:KEEP]`` (``"16m:4"``, ``"512k"``).

        ``"0"``, ``"off"``, ``"none"`` and ``"unbounded"`` return
        ``None`` — rotation disabled, the pre-rotation behaviour.
        """
        raw = str(text).strip().lower()
        if raw in ("0", "off", "none", "unbounded"):
            return None
        keep = cls.keep_segments
        if ":" in raw:
            raw, keep_raw = raw.rsplit(":", 1)
            keep = int(keep_raw)
        return cls(max_segment_bytes=parse_size(raw), keep_segments=keep)


DEFAULT_STREAM_BUDGET = StreamBudget()


# ----------------------------------------------------------------------
# segment naming + discovery
# ----------------------------------------------------------------------
def _segment_path(path: Path, index: int) -> Path:
    return path.with_name(f"{path.stem}.{index:06d}{path.suffix}")


def _segment_index(path: Path, segment: Path) -> Optional[int]:
    name = segment.name
    prefix, suffix = path.stem + ".", path.suffix
    if not (name.startswith(prefix) and name.endswith(suffix)):
        return None
    middle = name[len(prefix) : len(name) - len(suffix)]
    return int(middle) if middle.isdigit() else None


def sealed_segments(path: Union[str, Path]) -> List[Path]:
    """Sealed segments of the stream at ``path``, oldest first."""
    path = Path(path)
    found: List[Tuple[int, Path]] = []
    for candidate in path.parent.glob(f"{path.stem}.*{path.suffix}"):
        index = _segment_index(path, candidate)
        if index is not None:
            found.append((index, candidate))
    return [p for _, p in sorted(found)]


def stream_segments(path: Union[str, Path]) -> List[Path]:
    """All on-disk pieces of the stream, oldest first, active file last."""
    path = Path(path)
    segments = sealed_segments(path)
    if path.exists():
        segments.append(path)
    return segments


def _parse_seal(line: bytes) -> Optional[Dict[str, Any]]:
    """The seal payload when ``line`` is a seal line, else ``None``."""
    if SEAL_KEY.encode() not in line:
        return None
    try:
        doc = json.loads(line.decode("utf-8"))
    except (ValueError, UnicodeDecodeError):
        return None
    if isinstance(doc, dict) and set(doc) == {SEAL_KEY}:
        payload = doc[SEAL_KEY]
        return payload if isinstance(payload, dict) else {}
    return None


def seal_valid(segment: Union[str, Path]) -> bool:
    """Verify a sealed segment's trailing CRC line against its content."""
    raw = Path(segment).read_bytes()
    head, _, tail = raw.rstrip(b"\n").rpartition(b"\n")
    seal = _parse_seal(tail)
    if seal is None:
        return False
    body = head + b"\n" if head else b""
    crc = zlib.crc32(body) & 0xFFFFFFFF
    lines = sum(1 for ln in body.split(b"\n") if ln.strip())
    return seal.get("crc") == f"{crc:08x}" and seal.get("lines") == lines


# ----------------------------------------------------------------------
# segment-spanning reader
# ----------------------------------------------------------------------
_SKIP = object()  # a blank or seal line: neither data nor an error


def read_jsonl_stream(
    path: Union[str, Path],
    decode: Callable[[bytes], Any],
    *,
    missing_ok: bool = True,
) -> Tuple[List[Any], int]:
    """Read a (possibly rotated) JSONL stream; ``(items, skipped)``.

    Segments are concatenated oldest first.  The newest segment is read
    by :func:`repro.durable.scan` (its undecodable remainder counts as
    skipped); sealed segments skip bad lines one by one.  Seal lines,
    possible on the active file too (crash before the rename), are
    consumed silently.
    """
    path = Path(path)
    segments = stream_segments(path)
    if not segments:
        if missing_ok:
            return [], 0
        raise FileNotFoundError(str(path))

    def data_line(line: bytes) -> Any:
        if not line.strip() or _parse_seal(line) is not None:
            return _SKIP
        return decode(line)

    items: List[Any] = []
    skipped = 0
    for segment in segments[:-1]:
        try:
            raw = segment.read_bytes()
        except OSError:
            continue  # pruned between listing and read
        for line in raw.split(b"\n"):
            try:
                items.append(data_line(line))
            except DECODE_ERRORS:
                skipped += 1
    try:
        raw = segments[-1].read_bytes()
    except OSError:
        raw = b""
    prefix, end = scan(raw, data_line)
    items.extend(prefix)
    skipped += sum(
        1 for line in raw[end:].split(b"\n")
        if line.strip() and _parse_seal(line) is None
    )
    return [item for item in items if item is not _SKIP], skipped


# ----------------------------------------------------------------------
# the rotating writer
# ----------------------------------------------------------------------
class RotatingJsonlWriter:
    """Append-only JSONL writer with size-bounded rotation + shedding.

    Parameters
    ----------
    path:
        The active stream file (``trace.jsonl`` etc.); sealed segments
        land beside it as ``<stem>.NNNNNN<suffix>``.
    budget:
        Rotation budget; ``None`` disables rotation entirely (the
        stream grows without bound, the pre-PR-10 behaviour).
    governor:
        Optional :class:`~repro.resources.governor.ResourceGovernor`
        notified of rotations and shed transitions (counters + events).
    stream:
        Short label for metrics/warnings; defaults to the file stem.
    ring:
        Lines retained in memory while shedding (newest win).
    retry_every:
        While shedding, the disk is re-probed every this many appends.
    """

    def __init__(
        self,
        path: Union[str, Path],
        *,
        budget: Optional[StreamBudget] = DEFAULT_STREAM_BUDGET,
        governor: Optional[Any] = None,
        stream: Optional[str] = None,
        ring: int = 1024,
        retry_every: int = 64,
    ) -> None:
        if retry_every < 1:
            raise ValueError("retry_every must be >= 1")
        self.path = Path(path)
        self.budget = budget
        self.governor = governor
        self.stream = stream if stream is not None else self.path.stem
        self.ring: "deque[str]" = deque(maxlen=int(ring))
        self.retry_every = int(retry_every)
        self.rotations = 0
        self.shed_lines = 0
        self.shedding = False
        self._fh = None
        self._bytes = 0
        self._lines = 0
        self._crc = 0
        self._since_retry = 0

    # ------------------------------------------------------------------
    def _handle(self):
        """Open the active file for append, first repairing a torn tail
        (:func:`repro.durable.repair_tail`, judged by the final line
        alone) and resuming byte/line/CRC accounting over what is kept."""
        if self._fh is None:
            self.path.parent.mkdir(parents=True, exist_ok=True)
            raw = b""
            if self.path.exists():
                raw = self.path.read_bytes()
                raw = repair_tail(self.path, raw, tail_end(raw, json.loads))
            self._bytes = len(raw)
            self._crc = zlib.crc32(raw) & 0xFFFFFFFF
            self._lines = sum(1 for ln in raw.split(b"\n") if ln.strip())
            self._fh = open(self.path, "ab")
        return self._fh

    def _close_handle(self) -> None:
        if self._fh is not None:
            try:
                self._fh.close()
            except OSError:  # pragma: no cover - close-on-error path
                pass
            self._fh = None

    # ------------------------------------------------------------------
    def write_line(self, text: str) -> None:
        """Append one JSON line (newline added if missing)."""
        if not text.endswith("\n"):
            text += "\n"
        if self.shedding:
            self._since_retry += 1
            if self._since_retry < self.retry_every:
                self._shed(text)
                return
            self._since_retry = 0  # probe the disk again below
        data = text.encode("utf-8")
        try:
            check_io_faults(self.path, stream=self.stream)
            fh = self._handle()
            fh.write(data)
            fh.flush()
        except OSError as exc:
            self._enter_shed(exc, text)
            return
        self._bytes += len(data)
        self._lines += 1
        self._crc = zlib.crc32(data, self._crc) & 0xFFFFFFFF
        if self.shedding:
            self.shedding = False
            logger.info(
                "stream %r recovered from shed mode (%d lines lost)",
                self.stream, self.shed_lines,
            )
            if self.governor is not None:
                self.governor.note_stream_recovered(self.stream)
        if (
            self.budget is not None
            and self._bytes >= self.budget.max_segment_bytes
        ):
            self._rotate()

    def write_lines(self, texts: Iterable[str]) -> None:
        for text in texts:
            self.write_line(text)

    # ------------------------------------------------------------------
    def _shed(self, text: str) -> None:
        self.ring.append(text)
        self.shed_lines += 1
        if self.governor is not None:
            self.governor.count_shed_line(self.stream)

    def _enter_shed(self, exc: OSError, text: Optional[str]) -> None:
        self._close_handle()
        first = not self.shedding
        self.shedding = True
        self._since_retry = 0
        if text is not None:
            self._shed(text)
        if not first:
            return
        key = f"shed:{self.stream}"
        if key not in _WARNED:
            _WARNED.add(key)
            logger.warning(
                "stream %r cannot reach disk (%s); shedding to an "
                "in-memory ring of %d lines (counted under "
                "telemetry.shed)",
                self.stream, exc, self.ring.maxlen,
            )
        if self.governor is not None:
            self.governor.note_stream_shed(self.stream, self.path, exc)

    # ------------------------------------------------------------------
    def _rotate(self) -> None:
        """Seal the active file and start a fresh one."""
        try:
            fh = self._handle()
            seal = json.dumps(
                {
                    SEAL_KEY: {
                        "crc": f"{self._crc:08x}",
                        "lines": self._lines,
                    }
                },
                sort_keys=True,
            )
            fh.write((seal + "\n").encode("utf-8"))
            fh.flush()
            self._close_handle()
            existing = sealed_segments(self.path)
            last = _segment_index(self.path, existing[-1]) if existing else 0
            target = _segment_path(self.path, (last or 0) + 1)
            os.replace(self.path, target)
        except OSError as exc:
            self._enter_shed(exc, None)
            return
        self._bytes = self._lines = self._crc = 0
        self.rotations += 1
        freed = self._prune()
        if self.stream not in _WARNED:
            _WARNED.add(self.stream)
            logger.warning(
                "stream %r reached its %d-byte segment budget and "
                "rotated (keeping the newest %s sealed segments; older "
                "history is pruned)",
                self.stream,
                self.budget.max_segment_bytes,
                self.budget.keep_segments,
            )
        if self.governor is not None:
            self.governor.note_rotation(self.stream, target, freed)

    def _prune(self) -> int:
        """Drop sealed segments beyond ``keep_segments``; bytes freed."""
        if self.budget is None:
            return 0
        freed = 0
        segments = sealed_segments(self.path)
        for old in segments[: max(0, len(segments) - self.budget.keep_segments)]:
            try:
                freed += old.stat().st_size
                old.unlink()
            except OSError:  # pragma: no cover - racing cleanup
                pass
        return freed

    # ------------------------------------------------------------------
    def close(self) -> None:
        self._close_handle()
