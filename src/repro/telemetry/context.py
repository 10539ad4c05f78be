"""Cross-layer correlation context: ``job_id`` → ``run_id`` → ``chunk/step``.

One in-process (single-threaded, like the rest of the runtime) mapping
of correlation ids, propagated *implicitly*: the :class:`JobManager`
opens a :func:`scope` naming the job before dispatching a slice, the
:class:`~repro.resilience.runner.ResilientRunner` ensures a ``run_id``
and :func:`annotate`\\ s the live ``chunk``/``step``, and both the span
tracer and the event bus stamp whatever is current onto everything
they emit.  The result: a single ``job_id`` grep over ``events.jsonl``
(or ``trace.jsonl``) reconstructs one job's full causal story —
admission, dispatches, preemptions, resumes, checkpoints, kernel
spans, engine quarantines — without any call site threading ids
through a dozen signatures.

Propagation rules (DESIGN.md §16):

* ``scope(**ids)`` saves the whole context and restores it on exit, so
  a slice's ids can never leak into the next job's events;
* ``annotate(**ids)`` mutates in place — used for the fast-moving
  ``chunk``/``step`` fields *inside* a scope, which rolls them back;
* explicit keyword ids passed to an emit site always win over the
  ambient context (the manager knows best which job an event is for).
"""

from __future__ import annotations

import itertools
import secrets
from contextlib import contextmanager
from typing import Any, Dict, Iterator

__all__ = [
    "CORRELATION_FIELDS",
    "annotate",
    "correlation",
    "next_run_id",
    "scope",
]

#: The correlation triple (plus tenant) in stamp order.
CORRELATION_FIELDS = ("job_id", "tenant", "run_id", "chunk", "step")

#: The live context.  Read directly (not copied) by the tracer's span
#: hot path; treat as read-only outside this module.
_context: Dict[str, Any] = {}

_run_ids = itertools.count(1)
_process = secrets.token_hex(4)


def correlation() -> Dict[str, Any]:
    """A copy of the current correlation ids (empty when none set)."""
    return dict(_context)


def annotate(**ids: Any) -> None:
    """Update fields in place (``chunk``/``step`` as the run advances).

    Outside any :func:`scope` the annotation is still applied — solo
    (non-service) runs stamp their spans too — and cleared by the next
    ``scope`` exit above it, if any.
    """
    _context.update(ids)


@contextmanager
def scope(**ids: Any) -> Iterator[Dict[str, Any]]:
    """Install ``ids`` for the duration of the block.

    The *entire* context is saved and restored, so annotations made
    inside the block (``step``, ``chunk``) are rolled back with it.
    ``None`` values are skipped rather than stamped.
    """
    saved = dict(_context)
    _context.update({k: v for k, v in ids.items() if v is not None})
    try:
        yield _context
    finally:
        _context.clear()
        _context.update(saved)


def next_run_id(prefix: str = "run") -> str:
    """A fresh run id, ``<prefix>-<process token>-<n>``.  The random
    token differs between processes, so a resumed run never reuses
    the id of the run it continues."""
    return f"{prefix}-{_process}-{next(_run_ids)}"
