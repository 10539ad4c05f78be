"""Shared benchmark report writer: one schema for every BENCH_*.json.

Every bench in this directory persists its numbers through
:func:`emit_report`, so the CI artifacts all parse the same way::

    {
      "name":      "health",            # bench identity
      "config":    {...},               # workload parameters
      "metrics":   {...},               # measured numbers / outcomes
      "timestamp": "2026-01-01T00:00Z", # supplied by the caller
      "passed":    true                 # acceptance verdict, if any
    }

The timestamp is passed in by the caller (not read from the clock here)
so deterministic harnesses and replays stay in control of it.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Any, Dict, Iterable, List, Optional, Union

__all__ = ["OUT_DIR", "bench_document", "emit_report", "utc_now"]

OUT_DIR = Path(__file__).parent / "out"


def utc_now() -> str:
    """ISO-8601 UTC timestamp for callers that want wall-clock now."""
    import datetime

    return (
        datetime.datetime.now(datetime.timezone.utc)
        .strftime("%Y-%m-%dT%H:%M:%SZ")
    )


def bench_document(
    name: str,
    *,
    config: Dict[str, Any],
    metrics: Dict[str, Any],
    timestamp: str,
    passed: Optional[bool] = None,
) -> Dict[str, Any]:
    """Assemble the canonical report dict without writing it."""
    doc: Dict[str, Any] = {
        "name": name,
        "config": config,
        "metrics": metrics,
        "timestamp": timestamp,
    }
    if passed is not None:
        doc["passed"] = bool(passed)
    return doc


def emit_report(
    name: str,
    *,
    config: Dict[str, Any],
    metrics: Dict[str, Any],
    timestamp: str,
    passed: Optional[bool] = None,
    out_paths: Optional[Iterable[Union[str, Path]]] = None,
) -> List[Path]:
    """Write ``BENCH_<name>.json`` and return the paths written.

    By default the report lands in ``benchmarks/out/`` (the committed
    baselines); pass ``out_paths`` to write elsewhere instead.  Every
    script's ``main()`` writes only the CWD copy, so a local run never
    rewrites a baseline.
    """
    doc = bench_document(
        name, config=config, metrics=metrics, timestamp=timestamp,
        passed=passed,
    )
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    targets = (
        [Path(p) for p in out_paths]
        if out_paths is not None
        else [OUT_DIR / f"BENCH_{name}.json"]
    )
    for path in targets:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text, encoding="utf-8")
    return targets
