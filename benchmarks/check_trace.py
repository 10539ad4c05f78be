"""Check a run's span tree: unique span ids, every step under a chunk.

    PYTHONPATH=src python benchmarks/check_trace.py <telemetry-dir>

Reads ``<telemetry-dir>/trace.jsonl`` (with its rotated segments) and
exits non-zero, naming the offenders, when two spans share an id, when
a step span's parent is missing or is not a chunk span, when a step
span under a chunk span carries no ``chunk`` correlation id, or when a
chunk span was closed as abandoned.  A trace that a killed run and its
resume both appended to must pass too.
"""

from __future__ import annotations

import argparse
import sys
from collections import Counter
from pathlib import Path
from typing import List, Sequence


def trace_problems(spans: Sequence) -> List[str]:
    """What is wrong with a trace's chunk/step nesting (empty: nothing)."""
    by_id = {s.span_id: s for s in spans}
    chunks = [s for s in spans if s.name == "chunk"]
    steps = [s for s in spans if s.name == "step"]
    problems = []
    if not (chunks and steps):
        problems.append("trace has no chunk or step spans")
    dup = sorted(i for i, c in Counter(s.span_id for s in spans).items() if c > 1)
    if dup:
        problems.append(f"{len(dup)} span ids used twice: {dup[:5]}")
    orphans = [
        s.attrs.get("step") for s in steps
        if s.parent_id not in by_id or by_id[s.parent_id].name != "chunk"
    ]
    if orphans:
        problems.append(f"step spans outside a chunk span: {orphans}")
    unstamped = [
        s.attrs.get("step") for s in steps
        if s.parent_id in by_id and by_id[s.parent_id].name == "chunk"
        and "chunk" not in s.attrs
    ]
    if unstamped:
        problems.append(f"step spans without a chunk id: {unstamped}")
    abandoned = [s.attrs for s in chunks if "abandoned" in s.attrs]
    if abandoned:
        problems.append(f"abandoned chunk spans: {abandoned}")
    return problems


def main(argv=None) -> int:
    from repro.telemetry import read_trace

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("telemetry_dir", type=Path)
    args = ap.parse_args(argv)
    spans = read_trace(args.telemetry_dir / "trace.jsonl")
    problems = trace_problems(spans)
    for p in problems:
        print(f"FAIL: {p}", file=sys.stderr)
    if not problems:
        n_chunks = sum(s.name == "chunk" for s in spans)
        n_steps = sum(s.name == "step" for s in spans)
        print(f"{len(spans)} spans with unique ids; {n_chunks} chunk spans, "
              f"{n_steps} step spans, all nested")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
