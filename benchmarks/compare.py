"""Perf-regression sentinel: diff a fresh BENCH_*.json against baseline.

Every benchmark in this directory emits the same report schema
(:mod:`benchmarks._emit`), so regressions are detectable generically::

    python benchmarks/compare.py \
        --baseline baseline_kernels.json --fresh out/BENCH_kernels.json

The sentinel walks both ``metrics`` trees, pairs numeric leaves by
dotted key, classifies each key's *direction* from its name, and flags
pairs whose movement in the bad direction exceeds a noise-aware
threshold.  Three key classes, three thresholds:

* **scale-free** keys (``speedup``, ``ratio``, ``deviation``,
  ``frac``) transfer across machines, so they get the tight default
  (``--threshold``, 15%);
* **percentage** keys (``*_pct``) are compared by absolute
  percentage-point delta (``--pct-points``, default 3.0) — a 1.9% ->
  2.3% overhead move is noise, 1.9% -> 6% is not;
* **raw timings** (``seconds``, ``*_s``, ``*_time``) are machine- and
  load-dependent, so they get the loose default (``--timing-threshold``,
  50%) plus an absolute floor (``--abs-floor-s``) below which jitter is
  ignored.  Gate tighter by passing a smaller value when baseline and
  fresh ran on the same machine.

Keys under ``machine.`` are the host's own quick probes (flop rate,
stream bandwidth) that a report records next to its results; they move
with the host's load, not with the code, so they are printed for
context and never gated.

Booleans must not flip from true to false, and a fresh report with
``"passed": false`` fails regardless of the numbers.  Exit status: 0
clean, 1 regressions (listed on stderr), 2 unusable input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path
from typing import Any, Dict, Iterator, List, Optional, Tuple

__all__ = ["classify", "compare_documents", "flatten_metrics", "main"]

#: Key patterns (matched against the full dotted key, case-insensitive).
_LOWER_IS_BETTER_TIMING = re.compile(
    r"(seconds|_s$|_s\.|_time|time_s|bench_s)", re.IGNORECASE
)
_LOWER_IS_BETTER_FREE = re.compile(
    r"(deviation|dropped|failures|retries|iterations)", re.IGNORECASE
)
_HIGHER_IS_BETTER = re.compile(
    r"(speedup|throughput|flop_rate|stream_bw|bw_scale|hits)", re.IGNORECASE
)
_PCT = re.compile(r"_pct(\.|$)", re.IGNORECASE)
#: Host probes recorded with a report: shown, never gated.
_HOST_PROBE = re.compile(r"^machine\.")


def classify(key: str) -> Optional[Tuple[str, int]]:
    """``(class, direction)`` for one dotted key, or ``None`` to skip.

    ``direction`` is +1 when larger is worse, -1 when smaller is worse.
    ``class`` picks the threshold: ``timing``, ``pct``, or ``free``.
    """
    if _PCT.search(key):
        return ("pct", +1)
    if _LOWER_IS_BETTER_TIMING.search(key):
        return ("timing", +1)
    if _HIGHER_IS_BETTER.search(key):
        return ("free", -1)
    if _LOWER_IS_BETTER_FREE.search(key):
        return ("free", +1)
    return None


def flatten_metrics(doc: Dict[str, Any]) -> Dict[str, Any]:
    """Numeric and boolean leaves of ``doc["metrics"]``, dotted keys."""
    out: Dict[str, Any] = {}

    def walk(node: Any, prefix: str) -> None:
        if isinstance(node, dict):
            for k, v in node.items():
                walk(v, f"{prefix}.{k}" if prefix else str(k))
        elif isinstance(node, bool) or isinstance(node, (int, float)):
            out[prefix] = node

    walk(doc.get("metrics", {}), "")
    return out


def _iter_regressions(
    base: Dict[str, Any],
    fresh: Dict[str, Any],
    *,
    threshold: float,
    timing_threshold: float,
    pct_points: float,
    abs_floor_s: float,
) -> Iterator[str]:
    for key in sorted(set(base) & set(fresh)):
        if _HOST_PROBE.match(key):
            continue
        b, f = base[key], fresh[key]
        if isinstance(b, bool) or isinstance(f, bool):
            if b is True and f is False:
                yield f"{key}: flipped true -> false"
            continue
        kind = classify(key)
        if kind is None:
            continue
        klass, direction = kind
        delta = (f - b) * direction  # positive = moved in bad direction
        if klass == "pct":
            if delta > pct_points:
                yield (
                    f"{key}: {b:.3g} -> {f:.3g} "
                    f"(+{delta:.2f} points > {pct_points:g})"
                )
            continue
        if abs(b) < 1e-30:
            continue  # zero baseline: relative change undefined
        rel = delta / abs(b)
        limit = timing_threshold if klass == "timing" else threshold
        if rel <= limit:
            continue
        if klass == "timing" and abs(delta) < abs_floor_s:
            continue  # under the jitter floor, whatever the ratio
        yield (
            f"{key}: {b:.4g} -> {f:.4g} "
            f"({'+' if rel >= 0 else ''}{100 * rel:.1f}% > "
            f"{100 * limit:.0f}%)"
        )


def compare_documents(
    baseline: Dict[str, Any],
    fresh: Dict[str, Any],
    *,
    threshold: float = 0.15,
    timing_threshold: float = 0.50,
    pct_points: float = 3.0,
    abs_floor_s: float = 1e-4,
) -> List[str]:
    """All regressions of ``fresh`` relative to ``baseline``."""
    problems: List[str] = []
    if fresh.get("passed") is False:
        problems.append("fresh report carries passed=false")
    problems.extend(
        _iter_regressions(
            flatten_metrics(baseline),
            flatten_metrics(fresh),
            threshold=threshold,
            timing_threshold=timing_threshold,
            pct_points=pct_points,
            abs_floor_s=abs_floor_s,
        )
    )
    return problems


def _host_probe_moves(
    baseline: Dict[str, Any], fresh: Dict[str, Any]
) -> List[str]:
    """One line per shared numeric ``machine.*`` key, for context."""
    base, new = flatten_metrics(baseline), flatten_metrics(fresh)
    return [
        f"{key}: {base[key]:.4g} -> {new[key]:.4g} (host probe, not gated)"
        for key in sorted(set(base) & set(new))
        if _HOST_PROBE.match(key) and not isinstance(base[key], bool)
    ]


def _load(path: Path) -> Dict[str, Any]:
    with path.open(encoding="utf-8") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "metrics" not in doc:
        raise ValueError(f"{path} is not a BENCH report (no 'metrics')")
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="fail when a fresh benchmark regresses its baseline"
    )
    parser.add_argument("--baseline", required=True, type=Path)
    parser.add_argument("--fresh", required=True, type=Path)
    parser.add_argument(
        "--threshold",
        type=float,
        default=0.15,
        help="relative limit for scale-free keys (default 0.15)",
    )
    parser.add_argument(
        "--timing-threshold",
        type=float,
        default=0.50,
        help="relative limit for raw timing keys (default 0.50; tighten "
        "when baseline and fresh ran on the same machine)",
    )
    parser.add_argument(
        "--pct-points",
        type=float,
        default=3.0,
        help="absolute limit for *_pct keys, in points (default 3.0)",
    )
    parser.add_argument(
        "--abs-floor-s",
        type=float,
        default=1e-4,
        help="ignore timing moves smaller than this many seconds",
    )
    args = parser.parse_args(argv)
    try:
        baseline = _load(args.baseline)
        fresh = _load(args.fresh)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    problems = compare_documents(
        baseline,
        fresh,
        threshold=args.threshold,
        timing_threshold=args.timing_threshold,
        pct_points=args.pct_points,
        abs_floor_s=args.abs_floor_s,
    )
    name = fresh.get("name", args.fresh.name)
    for line in _host_probe_moves(baseline, fresh):
        print(f"sentinel: {name}: {line}")
    if problems:
        print(
            f"PERF REGRESSION: {name}: {len(problems)} metric(s) "
            f"regressed vs {args.baseline}:",
            file=sys.stderr,
        )
        for p in problems:
            print(f"  {p}", file=sys.stderr)
        return 1
    compared = len(
        set(flatten_metrics(baseline)) & set(flatten_metrics(fresh))
    )
    print(f"sentinel: {name}: no regressions ({compared} shared keys)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
