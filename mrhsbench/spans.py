"""In-memory span recording around calls into the program's layers.

The traced run replaces selected public functions and methods of the
``repro`` package with timing wrappers for its duration (see
``layers.py``).  Spans nest through a stack (the program is single
threaded), are kept in memory, and are written out once at the end.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
import threading
import time
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence

# One span: [name, start, end, parent index or -1, unit label, value,
# main thread?].  ``value`` is whatever the wrapper's probe extracted
# from the call (iterations, pairs, bytes, a kernel shape ...), or None.
# Spans opened on other threads (the runner's asynchronous checkpoint
# writer) nest on their own thread's stack and overlap the main
# thread's wall time, so wall-time accounting counts main-thread spans.
NAME, START, END, PARENT, UNIT, VALUE, MAIN = range(7)


class SpanRecorder:
    def __init__(self) -> None:
        self.spans: List[list] = []
        self.unit = ""
        self._local = threading.local()
        self._patches: List[tuple] = []
        self.active = False

    def _stack(self) -> List[tuple]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- recording ------------------------------------------------------
    def open(self, name: str) -> list:
        stack = self._stack()
        span = [name, time.perf_counter(), 0.0, stack[-1][0] if stack else -1,
                self.unit, None, threading.current_thread() is threading.main_thread()]
        stack.append((len(self.spans), span))
        self.spans.append(span)
        return span

    def close(self, span: list, value: Any = None) -> None:
        span[END] = time.perf_counter()
        span[VALUE] = value
        self._stack().pop()

    def span(self, name: str):
        return _SpanContext(self, name)

    @contextlib.contextmanager
    def paused(self, name: str):
        """One span for a block whose inner calls are not recorded (the
        benchmark's own output checks)."""
        with self.span(name):
            was, self.active = self.active, False
            try:
                yield
            finally:
                self.active = was

    def take(self) -> List[list]:
        """Hand over the recorded spans and start a fresh list."""
        if self._stack():
            raise RuntimeError("cannot take spans while spans are open")
        out, self.spans = self.spans, []
        return out

    # -- wrapping -------------------------------------------------------
    def timed(
        self,
        func: Callable,
        name: Any,
        probe: Optional[Callable[..., Any]] = None,
    ) -> Callable:
        """A wrapper recording one span per call of ``func``.

        ``name`` is a string or a callable of the call's arguments;
        ``probe(result, *args, **kwargs)`` extracts the span value.
        """
        rec = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if not rec.active:
                return func(*args, **kwargs)
            label = name(*args, **kwargs) if callable(name) else name
            span = rec.open(label)
            try:
                result = func(*args, **kwargs)
            except BaseException:
                rec.close(span)
                raise
            end = time.perf_counter()
            # The probe runs after the span's end so its cost lands in
            # the caller's self time, not this layer's.
            value = None if probe is None else probe(result, *args, **kwargs)
            rec.close(span, value)
            span[END] = end
            return result

        return wrapper

    def patch(self, owner: Any, attr: str, replacement: Any) -> None:
        """Set ``owner.attr`` and remember the old value for :meth:`unpatch`."""
        self._patches.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def patch_function(
        self,
        func: Callable,
        name_for_module: Callable[[str], Optional[str]],
        probe: Optional[Callable[..., Any]] = None,
    ) -> None:
        """Replace every module-level reference to ``func`` in the loaded
        ``repro`` modules.  ``name_for_module(modname)`` labels the span
        by the module that calls it, or returns None to leave that
        module's reference alone."""
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "repro" or modname.startswith("repro.")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is func:
                    label = name_for_module(modname)
                    if label is not None:
                        self.patch(mod, attr, self.timed(func, label, probe))

    def unpatch(self) -> None:
        while self._patches:
            owner, attr, old = self._patches.pop()
            setattr(owner, attr, old)


class _SpanContext:
    def __init__(self, rec: SpanRecorder, name: str) -> None:
        self.rec, self.name, self.span = rec, name, None

    def __enter__(self):
        if self.rec.active:
            self.span = self.rec.open(self.name)
        return self

    def __exit__(self, *exc) -> None:
        if self.span is not None:
            self.rec.close(self.span)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def _covered(intervals: Sequence[tuple], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


def self_times(spans: Sequence[Sequence]) -> List[float]:
    """Per span: its duration minus the time its child spans cover."""
    children: Dict[int, List[tuple]] = {}
    for s in spans:
        if s[PARENT] >= 0:
            children.setdefault(s[PARENT], []).append((s[START], s[END]))
    out = []
    for i, s in enumerate(spans):
        dur = s[END] - s[START]
        kids = children.get(i)
        out.append(dur - (_covered(kids, s[START], s[END]) if kids else 0.0))
    return out


def root_time(spans: Sequence[Sequence]) -> float:
    """Wall time covered by top-level spans of the main thread."""
    roots = [(s[START], s[END]) for s in spans if s[PARENT] < 0 and s[MAIN]]
    return _covered(roots, float("-inf"), float("inf"))


def self_time_table(spans: Sequence[Sequence], wall: float) -> List[tuple]:
    """Rows ``(name, calls, self seconds)`` of the main thread sorted by
    self time, plus a final ``unaccounted`` row; the seconds column sums
    to ``wall``.  Other threads' spans are left out (see
    :func:`thread_rows`)."""
    selfs = self_times(spans)
    agg: Dict[str, list] = {}
    for s, t in zip(spans, selfs):
        if not s[MAIN]:
            continue
        row = agg.setdefault(s[NAME], [0, 0.0])
        row[0] += 1
        row[1] += t
    rows = sorted(((k, v[0], v[1]) for k, v in agg.items()), key=lambda r: -r[2])
    rows.append(("unaccounted", 0, wall - root_time(spans)))
    return rows


def thread_rows(spans: Sequence[Sequence]) -> List[tuple]:
    """``(name, calls, self seconds)`` of spans on other threads; their
    time overlaps the main thread's."""
    agg: Dict[str, list] = {}
    for s, t in zip(spans, self_times(spans)):
        if not s[MAIN]:
            row = agg.setdefault(s[NAME], [0, 0.0])
            row[0] += 1
            row[1] += t
    return sorted(((k, v[0], v[1]) for k, v in agg.items()), key=lambda r: -r[2])


def write_spans(path: Path, spans: Sequence[Sequence]) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", encoding="utf-8") as fh:
        for i, s in enumerate(spans):
            value = s[VALUE]
            if not isinstance(value, (int, float, str, type(None))):
                value = repr(value)
            fh.write(json.dumps({
                "id": i, "name": s[NAME], "start": s[START], "end": s[END],
                "parent": s[PARENT], "unit": s[UNIT], "value": value,
                "main_thread": s[MAIN],
            }) + "\n")
