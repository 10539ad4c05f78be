"""Resource governance: budgets, seniority, rotation, and I/O faults.

See DESIGN.md §17.  The package sits *below* :mod:`repro.io` and
:mod:`repro.telemetry` in the import graph (both import from here), so
nothing in it may import those modules at the top level.
"""

from repro.resources.governor import (
    CLASS_DURABLE,
    CLASS_FLIGHT,
    CLASS_TELEMETRY,
    CLASS_TEMP,
    MemoryGuard,
    ResourceExhausted,
    ResourceGovernor,
    read_rss_bytes,
)
from repro.resources.iofaults import IO_FAULT_SITES, check_io_faults
from repro.resources.rotate import (
    DEFAULT_STREAM_BUDGET,
    RotatingJsonlWriter,
    SEAL_KEY,
    StreamBudget,
    parse_size,
    read_jsonl_stream,
    seal_valid,
    sealed_segments,
    stream_segments,
)

__all__ = [
    "CLASS_DURABLE",
    "CLASS_FLIGHT",
    "CLASS_TELEMETRY",
    "CLASS_TEMP",
    "DEFAULT_STREAM_BUDGET",
    "IO_FAULT_SITES",
    "MemoryGuard",
    "ResourceExhausted",
    "ResourceGovernor",
    "RotatingJsonlWriter",
    "SEAL_KEY",
    "StreamBudget",
    "check_io_faults",
    "parse_size",
    "read_jsonl_stream",
    "read_rss_bytes",
    "seal_valid",
    "sealed_segments",
    "stream_segments",
]
