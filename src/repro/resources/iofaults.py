"""Injectable I/O fault sites shared by every durable-artifact writer.

Three sites model the ways a filesystem says "no more":

* ``io.enospc`` — the disk is full (``ENOSPC``);
* ``io.edquot`` — a quota was exhausted (``EDQUOT``);
* ``io.eio``    — the device itself failed the write (``EIO``).

:func:`check_io_faults` fires before every durable write, with a
label a drill can target through ``at={...}``: each
:func:`repro.durable.publish` (``writer=`` ``atomic_savez``,
``atomic_write_text``, ``exporter``, ``telemetry_hub``,
``journal_compact``), the job-journal append (``writer="journal"``,
``seq``) and its retry (``"journal_retry"``), the rotating JSONL
streams (``stream=<name>``) and flight bundles (``"flight_dump"``).
It raises a real :class:`OSError` carrying the matching ``errno``, so
the degraded-mode ladders are exercised by the exact exception a real
exhausted disk produces.  Callers therefore need no fault-specific
handling: one ``except OSError`` covers the drill and the real thing.
"""

from __future__ import annotations

import errno
import os
from typing import Dict

from repro.resilience.faults import fire_fault, register_fault_site

__all__ = ["IO_FAULT_SITES", "check_io_faults"]

#: ``site name -> errno`` for the injectable I/O failure modes.
IO_FAULT_SITES: Dict[str, int] = {
    "io.enospc": errno.ENOSPC,
    "io.edquot": errno.EDQUOT,
    "io.eio": errno.EIO,
}

for _site, _raises in (
    ("io.enospc", "ENOSPC"),
    ("io.edquot", "EDQUOT: disk quota exhausted"),
    ("io.eio", "EIO: device-level write failure"),
):
    register_fault_site(
        _site,
        "resources",
        "every durable writer (publishes: atomic_savez, atomic_write_text, "
        "exporter, telemetry_hub, journal_compact; journal "
        f"append/retry; JSONL streams; flight_dump) — raises "
        f"OSError({_raises})",
    )


def check_io_faults(path, **context) -> None:
    """Fire the ``io.*`` fault sites for one write to ``path``.

    Raises :class:`OSError` with the site's errno when an armed spec
    matches; a no-op (one global load per site) otherwise.  ``context``
    is forwarded to the injector so campaign specs can target a
    specific write (e.g. ``at={"seq": 7}`` for one journal append).
    """
    for site, err in IO_FAULT_SITES.items():
        if fire_fault(site, **context) is not None:
            raise OSError(err, os.strerror(err), str(path))
