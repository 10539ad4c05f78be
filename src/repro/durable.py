"""Durable I/O: one atomic-publish path and one torn-tail rule.

Every kept file is either *published* whole or *appended* line by
line; each rule has one implementation here (DESIGN.md §18):

* :func:`publish` — the only atomic write (temp file, ``os.replace``),
  and :func:`remove_orphans` — the only cleanup of the temp file a
  killed publish leaves behind;
* :func:`scan` — the only longest-valid-prefix reader;
* :func:`repair_tail` — the only tail repair before an append.

A leaf module: it imports nothing from :mod:`repro` at module level.
"""

from __future__ import annotations

import os
import re
import tempfile
import threading
from pathlib import Path
from typing import IO, Any, Callable, List, Set, Tuple, Union

__all__ = [
    "DECODE_ERRORS", "fsync_dir", "is_publish_temp", "publish",
    "remove_orphans", "repair_tail", "scan", "tail_end",
]

PathLike = Union[str, Path]

#: What a line decoder raises to reject a line.
DECODE_ERRORS = (ValueError, KeyError, TypeError, UnicodeDecodeError)

#: ``<name>.<mkstemp random>.tmp`` — the temp file of a :func:`publish`.
_TEMP_NAME = re.compile(r".+\.[A-Za-z0-9_]{8}\.tmp")

#: Temps of the publishes running in this process, guarded by
#: ``_TEMPS_LOCK`` so :func:`remove_orphans` never takes a live one.
_IN_FLIGHT: Set[str] = set()
_TEMPS_LOCK = threading.Lock()


def fsync_dir(path: PathLike) -> None:
    """fsync the directory containing ``path``: ``os.replace`` is atomic
    but not durable until the parent's metadata reaches the disk."""
    fd = os.open(Path(path).parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def publish(
    path: PathLike,
    write: Callable[[IO[bytes]], Any],
    *,
    writer: str,
    fsync: bool = True,
) -> Path:
    """Atomically replace ``path`` with what ``write(fh)`` writes.

    ``mkstemp`` beside ``path``, the ``io.*`` fault sites (labelled
    ``writer``), ``write`` to a binary read/write handle (a caller may
    read its bytes back to verify them), flush, fsync, ``os.replace``,
    directory fsync.  Any exception removes the temporary file and
    leaves ``path`` untouched.  ``fsync=False`` skips both fsyncs: the
    swap stays atomic against process death, not power loss.
    """
    # Imported per call: repro.resources imports this module, so a
    # module-level import of its fault sites would be circular.
    from repro.resources.iofaults import check_io_faults

    path = Path(path)
    with _TEMPS_LOCK:
        fd, tmp = tempfile.mkstemp(
            dir=path.parent, prefix=path.name + ".", suffix=".tmp"
        )
        _IN_FLIGHT.add(os.path.abspath(tmp))
    try:
        with os.fdopen(fd, "w+b") as fh:
            check_io_faults(path, writer=writer)
            write(fh)
            fh.flush()
            if fsync:
                os.fsync(fh.fileno())
        os.replace(tmp, path)
        if fsync:
            fsync_dir(path)
    except BaseException:
        Path(tmp).unlink(missing_ok=True)
        raise
    finally:
        _IN_FLIGHT.discard(os.path.abspath(tmp))
    return path


def is_publish_temp(path: PathLike) -> bool:
    """Is ``path`` named like a :func:`publish` temp file?"""
    return _TEMP_NAME.fullmatch(Path(path).name) is not None


def remove_orphans(directory: PathLike, pattern: str) -> List[Path]:
    """Delete the temps that killed publishes of ``directory/<pattern>``
    left behind (``pattern`` is a glob over destination names) and
    return them.  Temps of publishes still running in this process are
    kept; the caller vouches that no other process publishes there —
    recovery of a single-writer file at start-up."""
    removed = []
    with _TEMPS_LOCK:
        for tmp in Path(directory).glob(pattern + ".*.tmp"):
            if not is_publish_temp(tmp) or os.path.abspath(tmp) in _IN_FLIGHT:
                continue
            try:
                tmp.unlink()
            except OSError:
                continue
            removed.append(tmp)
    return removed


def scan(
    data: bytes, decode: Callable[[bytes], Any]
) -> Tuple[List[Any], int]:
    """The longest valid prefix of newline-separated ``data``:
    ``(items, valid_end)``.  A line counts if and only if ``decode``
    accepts it (rejection = raising one of :data:`DECODE_ERRORS`),
    whether or not it ends in a newline; the first rejection ends the
    prefix."""
    items: List[Any] = []
    offset = 0
    while offset < len(data):
        end = data.find(b"\n", offset)
        if end < 0:
            end = len(data)
        try:
            items.append(decode(data[offset:end]))
        except DECODE_ERRORS:
            break
        offset = end + 1
    return items, min(offset, len(data))


def tail_end(data: bytes, decode: Callable[[bytes], Any]) -> int:
    """:func:`scan`'s valid end judged by the final line alone — a
    crash tears at most that line, and the cost stays flat in size."""
    start = data.rfind(b"\n", 0, max(len(data) - 1, 0)) + 1
    return start + scan(data[start:], decode)[1]


def repair_tail(path: PathLike, data: bytes, valid_end: int) -> bytes:
    """Make ``path`` (content ``data``) safe to append to: truncate to
    ``valid_end``, newline-terminate the kept last line.  Returns the
    content now on disk."""
    kept = data[:valid_end]
    if kept and not kept.endswith(b"\n"):
        kept += b"\n"
    if kept != data:
        with open(path, "r+b") as fh:
            fh.truncate(valid_end)
            fh.seek(valid_end)
            fh.write(kept[valid_end:])
    return kept
