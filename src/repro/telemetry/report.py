"""Measured-vs-model reports built from recorded traces.

:class:`RooflineReport` reproduces the paper's Section IV.B validation
from a live run: every ``gspmv``/``spmv`` span in the trace carries the
matrix structure (``nb``, ``nnzb``, ``b``) and vector count ``m``, so
the report can group measurements per ``m``, evaluate the
:mod:`repro.perfmodel` prediction ``T(m) = max(Tbw(m), Tcomp(m))`` for
the same structure on a chosen :class:`MachineSpec`, and flag rows
whose measured mean deviates from the model by more than a threshold
(default 25%).

The module also renders the ``repro trace`` view: the parent/child span
tree and per-phase wall-time totals (the Tables VI/VII breakdown).

Kept out of ``repro.telemetry``'s eager imports: this module pulls in
:mod:`repro.perfmodel`, which the instrumented kernels must not.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import (
    TYPE_CHECKING,
    Any,
    Dict,
    Iterable,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perfmodel.engines import EngineProfile

from repro.perfmodel.machine import (
    SANDY_BRIDGE,
    WESTMERE,
    MachineSpec,
    host_machine,
)
from repro.perfmodel.roofline import (
    MatrixShape,
    time_bandwidth,
    time_compute,
)
from repro.telemetry.hub import METRICS_FILENAME, TRACE_FILENAME
from repro.telemetry.tracer import SpanEvent, read_trace

__all__ = [
    "RooflineRow",
    "RooflineReport",
    "resolve_machine",
    "build_tree",
    "render_trace_tree",
    "phase_totals",
    "render_phase_totals",
    "load_run_metrics",
    "render_failover_table",
    "render_engine_table",
    "render_jobs_table",
    "render_top",
]

#: Span names treated as generalized SPMV measurements.
KERNEL_SPAN_NAMES = ("gspmv", "spmv")


def resolve_machine(name: str) -> MachineSpec:
    """Map a CLI ``--machine`` value to a :class:`MachineSpec`."""
    table = {"wsm": WESTMERE, "westmere": WESTMERE, "snb": SANDY_BRIDGE, "sandybridge": SANDY_BRIDGE}
    key = name.strip().lower()
    if key in table:
        return table[key]
    if key == "host":
        return host_machine(quick=True)
    raise ValueError(f"unknown machine {name!r}; expected wsm, snb, or host")


@dataclass(frozen=True)
class RooflineRow:
    """One measured-vs-model line of the report."""

    kind: str
    m: int
    calls: int
    measured_mean: float
    """Mean measured seconds per call at this m."""
    predicted: float
    """Model ``T(m) = max(Tbw, Tcomp)`` for the same structure."""
    tbw: float
    tcomp: float
    deviation: float
    """``measured/predicted - 1`` (signed fraction)."""
    flagged: bool
    """True when ``|deviation|`` exceeds the report threshold."""
    bound: str
    """``"bw"`` or ``"comp"`` — which term the model says dominates."""
    engine: str = ""
    """Kernel engine that produced the measurements ("" when the span
    predates engine labelling)."""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "kind": self.kind,
            "engine": self.engine,
            "m": self.m,
            "calls": self.calls,
            "measured_mean_s": self.measured_mean,
            "predicted_s": self.predicted,
            "tbw_s": self.tbw,
            "tcomp_s": self.tcomp,
            "deviation": self.deviation,
            "flagged": self.flagged,
            "bound": self.bound,
        }


class RooflineReport:
    """Measured GSPMV/SPMV timings joined against the perfmodel."""

    def __init__(
        self,
        rows: Sequence[RooflineRow],
        machine: MachineSpec,
        *,
        threshold: float = 0.25,
    ) -> None:
        self.rows = sorted(rows, key=lambda r: (r.kind, r.engine, r.m))
        self.machine = machine
        self.threshold = threshold

    # ------------------------------------------------------------------
    @classmethod
    def from_events(
        cls,
        events: Iterable[SpanEvent],
        machine: MachineSpec,
        *,
        threshold: float = 0.25,
        k: float = 0.0,
        profiles: Optional[Dict[str, "EngineProfile"]] = None,
    ) -> "RooflineReport":
        """Join kernel spans against the model.

        Spans are grouped by ``(name, engine, m, nb, nnzb, b)``; each
        group becomes one row comparing the measured mean against
        ``time_gspmv`` for the same structure (cache-miss factor ``k``,
        default 0 — the lower-bound model the live counters also use).
        An aggregated kernel span (``calls`` attribute) contributes its
        total duration weighted by its call count.

        ``profiles`` optionally maps engine names to calibrated
        :class:`~repro.perfmodel.engines.EngineProfile` objects; rows
        whose engine has one are predicted with the engine-scaled model
        instead of the machine-peak bound, which is how an engine is
        validated (measured must fall *within* the threshold, not
        merely get flagged).
        """
        groups: Dict[Tuple[str, str, int, int, int, int], List[float]] = {}
        for ev in events:
            if ev.name not in KERNEL_SPAN_NAMES:
                continue
            a = ev.attrs
            try:
                key = (
                    ev.name,
                    str(a.get("backend", "")),
                    int(a["m"]),
                    int(a["nb"]),
                    int(a["nnzb"]),
                    int(a["b"]),
                )
            except (KeyError, TypeError, ValueError):
                continue  # span predates instrumentation or is foreign
            total, calls = groups.setdefault(key, [0.0, 0])
            groups[key] = [
                total + ev.duration, calls + int(a.get("calls", 1))
            ]

        rows: List[RooflineRow] = []
        for (kind, engine, m, nb, nnzb, b), (total, calls) in groups.items():
            shape = MatrixShape(
                nb=nb, blocks_per_row=nnzb / nb, block_size=b
            )
            profile = (profiles or {}).get(engine)
            if profile is not None:
                tbw = profile.time_bandwidth(shape, m, machine, k)
                tcomp = profile.time_compute(shape, m, machine)
            else:
                tbw = time_bandwidth(shape, m, machine, k)
                tcomp = time_compute(shape, m, machine)
            predicted = max(tbw, tcomp)
            measured = total / calls
            deviation = measured / predicted - 1.0 if predicted > 0 else 0.0
            rows.append(
                RooflineRow(
                    kind=kind,
                    m=m,
                    calls=calls,
                    measured_mean=measured,
                    predicted=predicted,
                    tbw=tbw,
                    tcomp=tcomp,
                    deviation=deviation,
                    flagged=abs(deviation) > threshold,
                    bound="bw" if tbw >= tcomp else "comp",
                    engine=engine,
                )
            )
        return cls(rows, machine, threshold=threshold)

    @classmethod
    def from_run(
        cls,
        run_dir: Union[str, Path],
        machine: MachineSpec,
        *,
        threshold: float = 0.25,
        k: float = 0.0,
        profiles: Optional[Dict[str, "EngineProfile"]] = None,
    ) -> "RooflineReport":
        """Build the report from a telemetry directory's (possibly
        rotated) ``trace.jsonl``; :class:`FileNotFoundError` if none."""
        return cls.from_events(
            read_trace(Path(run_dir) / TRACE_FILENAME), machine,
            threshold=threshold, k=k, profiles=profiles,
        )

    # ------------------------------------------------------------------
    @property
    def ms(self) -> List[int]:
        return sorted({r.m for r in self.rows})

    @property
    def flagged_rows(self) -> List[RooflineRow]:
        return [r for r in self.rows if r.flagged]

    def as_dict(self) -> Dict[str, Any]:
        return {
            "machine": self.machine.name,
            "threshold": self.threshold,
            "rows": [r.as_dict() for r in self.rows],
        }

    def to_json(self) -> str:
        return json.dumps(self.as_dict(), indent=2, sort_keys=True)

    def to_markdown(self) -> str:
        lines = [
            f"Roofline: measured vs model ({self.machine.name}, "
            f"flag > {self.threshold:.0%})",
            "",
            "| kernel | engine | m | calls | measured (s) | model (s) "
            "| Tbw (s) | Tcomp (s) | bound | dev | flag |",
            "|---|---|---|---|---|---|---|---|---|---|---|",
        ]
        for r in self.rows:
            lines.append(
                f"| {r.kind} | {r.engine or '-'} | {r.m} | {r.calls} "
                f"| {r.measured_mean:.3e} "
                f"| {r.predicted:.3e} | {r.tbw:.3e} | {r.tcomp:.3e} "
                f"| {r.bound} | {r.deviation:+.1%} "
                f"| {'**>**' if r.flagged else ''} |"
            )
        if not self.rows:
            lines.append("| (no kernel spans in trace) | | | | | | | | | | |")
        return "\n".join(lines)


# ----------------------------------------------------------------------
# `repro trace` rendering: span tree + phase totals
# ----------------------------------------------------------------------
def build_tree(
    events: Sequence[SpanEvent],
) -> Tuple[List[SpanEvent], Dict[int, List[SpanEvent]]]:
    """Return ``(roots, children)`` ordered by start time.

    Events whose parent is missing from the trace (dropped by the
    bounded buffer, or from before a resume boundary) are treated as
    roots so nothing disappears from the view.
    """
    by_id = {ev.span_id: ev for ev in events}
    roots: List[SpanEvent] = []
    children: Dict[int, List[SpanEvent]] = {}
    for ev in events:
        if ev.parent_id is not None and ev.parent_id in by_id:
            children.setdefault(ev.parent_id, []).append(ev)
        else:
            roots.append(ev)
    roots.sort(key=lambda e: e.start)
    for kids in children.values():
        kids.sort(key=lambda e: e.start)
    return roots, children


def render_trace_tree(
    events: Sequence[SpanEvent],
    *,
    max_depth: Optional[int] = None,
    collapse: Tuple[str, ...] = KERNEL_SPAN_NAMES,
) -> str:
    """ASCII span tree; runs of ``collapse``-named siblings fold into
    one ``name xN`` line (a chunk can contain thousands of kernel
    calls; the hub pre-aggregates consecutive ones into events carrying
    a ``calls`` count, which folds the same way)."""
    roots, children = build_tree(events)
    out: List[str] = []

    def visit(ev: SpanEvent, depth: int) -> None:
        if max_depth is not None and depth > max_depth:
            return
        indent = "  " * depth
        attrs = {
            k: v
            for k, v in ev.attrs.items()
            if k in ("m", "step", "chunk", "error", "converged", "iterations")
        }
        suffix = (
            " [" + ", ".join(f"{k}={v}" for k, v in sorted(attrs.items())) + "]"
            if attrs
            else ""
        )
        out.append(f"{indent}{ev.name}  {ev.duration * 1e3:.3f} ms{suffix}")
        kids = children.get(ev.span_id, [])
        i = 0
        while i < len(kids):
            kid = kids[i]
            if kid.name in collapse:
                j = i
                total = 0.0
                n = 0
                while j < len(kids) and kids[j].name == kid.name:
                    total += kids[j].duration
                    n += int(kids[j].attrs.get("calls", 1))
                    j += 1
                if n > 1:
                    out.append(
                        f"{'  ' * (depth + 1)}{kid.name} x{n}  "
                        f"{total * 1e3:.3f} ms total"
                    )
                    i = j
                    continue
            visit(kid, depth + 1)
            i += 1

    for root in roots:
        visit(root, 0)
    return "\n".join(out)


def phase_totals(events: Sequence[SpanEvent]) -> Dict[str, Tuple[int, float]]:
    """``{span name: (count, total seconds)}`` over the whole trace —
    the per-phase breakdown of Tables VI/VII.  Aggregated kernel events
    count as their ``calls`` attribute."""
    totals: Dict[str, Tuple[int, float]] = {}
    for ev in events:
        n, t = totals.get(ev.name, (0, 0.0))
        totals[ev.name] = (
            n + int(ev.attrs.get("calls", 1)), t + ev.duration
        )
    return totals


def render_phase_totals(events: Sequence[SpanEvent]) -> str:
    totals = phase_totals(events)
    order = sorted(totals.items(), key=lambda kv: -kv[1][1])
    width = max((len(name) for name in totals), default=4)
    lines = [f"{'phase':<{width}}  {'count':>7}  {'total (s)':>12}  {'mean (ms)':>12}"]
    for name, (count, total) in order:
        lines.append(
            f"{name:<{width}}  {count:>7}  {total:>12.4f}  "
            f"{total / count * 1e3:>12.4f}"
        )
    return "\n".join(lines)


def load_run_metrics(run_dir: Union[str, Path]) -> Optional[Dict[str, Any]]:
    """Read ``metrics.json`` from a telemetry directory, if present."""
    path = Path(run_dir) / METRICS_FILENAME
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


# ----------------------------------------------------------------------
# distributed fault-tolerance failover table
# ----------------------------------------------------------------------
_FAILOVER_COUNTERS = (
    ("dist.timeouts", "halo receives timed out"),
    ("dist.retries", "resend rounds"),
    ("dist.stragglers", "stragglers (late but delivered)"),
    ("dist.corrupt_blocks", "corrupt boundary blocks"),
    ("dist.repair_rounds", "repair rounds"),
    ("comm.repairs", "blocks repaired"),
    ("dist.rank_failures", "ranks declared failed"),
    ("recovery.events", "rank recoveries"),
    ("recovery.ranks_lost", "ranks lost"),
    ("recovery.rehomed_rows", "block rows re-homed"),
    ("recovery.replayed_steps", "steps replayed"),
)


def render_failover_table(
    metrics: Optional[Dict[str, Any]], *, markdown: bool = False
) -> Optional[str]:
    """The failover table: what the distributed fault machinery did.

    Joins the ``dist.*`` / ``recovery.*`` counters (and the
    ``recovery.seconds`` histogram) recorded by the robust halo
    exchange and the rank-recovery protocol into one table.  Returns
    ``None`` when the run recorded none of them — single-node runs get
    no empty section.
    """
    if not metrics:
        return None
    counters = metrics.get("counters", {})

    def total(name: str) -> float:
        return sum(
            v
            for k, v in counters.items()
            if k == name or k.startswith(name + "{")
        )

    rows = [
        (name, label, total(name))
        for name, label in _FAILOVER_COUNTERS
        if total(name) > 0
    ]
    rec = metrics.get("histograms", {}).get("recovery.seconds")
    if not rows and not rec:
        return None
    lines: List[str] = []
    if markdown:
        lines.append("| counter | event | total |")
        lines.append("|---|---|---:|")
        for name, label, value in rows:
            lines.append(f"| `{name}` | {label} | {value:g} |")
    else:
        lines.append("failover table:")
        width = max((len(label) for _, label, _ in rows), default=0)
        for name, label, value in rows:
            lines.append(f"  {label:<{width}}  {value:g}  [{name}]")
    if rec and rec.get("count"):
        lines.append(
            ("" if markdown else "  ")
            + f"mean recovery time: {rec['mean']:.3g}s over "
            f"{rec['count']} recovery(ies)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# engine watchdog table
# ----------------------------------------------------------------------
def render_engine_table(
    metrics: Optional[Dict[str, Any]], *, markdown: bool = False
) -> Optional[str]:
    """The engine-events table: what the kernel watchdog did.

    Joins the ``engine.events{engine=...,kind=...}`` counters recorded
    by :class:`~repro.sparse.enginewatch.EngineWatch` (demotions,
    miscompares, quarantines, cache recoveries) with the shadow
    verification totals.  Returns ``None`` when the run recorded
    neither — healthy unverified runs get no empty section.
    """
    if not metrics:
        return None
    counters = metrics.get("counters", {})
    rows: List[Tuple[str, str, float]] = []
    for key, value in sorted(counters.items()):
        if not key.startswith("engine.events{") or value <= 0:
            continue
        labels = dict(
            part.split("=", 1)
            for part in key[len("engine.events{"):-1].split(",")
            if "=" in part
        )
        rows.append(
            (labels.get("engine", "?"), labels.get("kind", "?"), value)
        )
    verify_calls = sum(
        v for k, v in counters.items()
        if k == "engine.verify.calls" or k.startswith("engine.verify.calls{")
    )
    verify_failures = sum(
        v for k, v in counters.items()
        if k == "engine.verify.failures"
        or k.startswith("engine.verify.failures{")
    )
    verify_seconds = counters.get("engine.verify.seconds", 0.0)
    if not rows and not verify_calls:
        return None
    lines: List[str] = []
    if markdown:
        lines.append("| engine | event | count |")
        lines.append("|---|---|---:|")
        for engine, kind, value in rows:
            lines.append(f"| `{engine}` | {kind} | {value:g} |")
    else:
        lines.append("engine events:")
        width = max(
            (len(f"{engine}: {kind}") for engine, kind, _ in rows), default=0
        )
        for engine, kind, value in rows:
            label = f"{engine}: {kind}"
            lines.append(f"  {label:<{width}}  {value:g}")
    if verify_calls:
        lines.append(
            ("" if markdown else "  ")
            + f"shadow checks: {verify_calls:g} "
            f"({verify_failures:g} failed, {verify_seconds:.3g}s total)"
        )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# job-service table
# ----------------------------------------------------------------------
_JOB_COLUMNS = (
    ("job", "job"),
    ("name", "name"),
    ("tenant", "tenant"),
    ("state", "state"),
    ("priority", "prio"),
    ("steps", "steps"),
    ("wait", "wait"),
    ("attempts", "attempts"),
    ("preemptions", "preempt"),
    ("digest", "digest"),
    ("reason", "reason"),
)


def render_jobs_table(
    rows: Sequence[Dict[str, Any]], *, markdown: bool = False
) -> Optional[str]:
    """The job-service table: one line per submitted job.

    ``rows`` is :meth:`repro.service.manager.JobManager.table` output
    (live or rebuilt read-only from the journal by the ``jobs`` CLI).
    Returns ``None`` for an empty table.
    """
    if not rows:
        return None

    def cell(row: Dict[str, Any], key: str) -> str:
        value = row.get(key)
        return "-" if value in (None, "") else str(value)

    lines: List[str] = []
    if markdown:
        lines.append("| " + " | ".join(h for _, h in _JOB_COLUMNS) + " |")
        lines.append("|" + "|".join("---" for _ in _JOB_COLUMNS) + "|")
        for row in rows:
            lines.append(
                "| " + " | ".join(cell(row, k) for k, _ in _JOB_COLUMNS) + " |"
            )
    else:
        widths = {
            key: max(
                len(header), max(len(cell(r, key)) for r in rows)
            )
            for key, header in _JOB_COLUMNS
        }
        lines.append(
            "  ".join(h.ljust(widths[k]) for k, h in _JOB_COLUMNS).rstrip()
        )
        for row in rows:
            lines.append(
                "  ".join(
                    cell(row, k).ljust(widths[k]) for k, _ in _JOB_COLUMNS
                ).rstrip()
            )
    return "\n".join(lines)


# ----------------------------------------------------------------------
# repro top
# ----------------------------------------------------------------------
def _by_label(
    family: Dict[str, float], name: str, label: str
) -> Dict[str, float]:
    """``{label value: sample}`` for one metric family, e.g. the
    per-state ``service.queue_depth`` gauges."""
    from repro.telemetry.exporter import _split_key

    out: Dict[str, float] = {}
    for key, value in family.items():
        base, labels = _split_key(key)
        if base == name and label in labels:
            out[labels[label]] = float(value)
    return out


def render_top(
    metrics: Optional[Dict[str, Any]],
    events: Optional[Sequence[Any]] = None,
    *,
    tail: int = 8,
    title: str = "",
) -> str:
    """One ``repro top`` frame from the exporter's latest snapshot.

    ``metrics`` is the ``metrics.json`` document (or the last
    ``metrics.jsonl`` line); ``events`` the newest
    :class:`~repro.telemetry.events.BusEvent` records.  Pure renderer —
    the CLI owns file reading and the refresh loop.
    """
    from repro.telemetry.exporter import _split_key

    lines: List[str] = [f"repro top — {title}" if title else "repro top"]
    if not metrics:
        lines.append("  (no exporter snapshot yet)")
        counters: Dict[str, float] = {}
        gauges: Dict[str, float] = {}
    else:
        counters = metrics.get("counters", {})
        gauges = metrics.get("gauges", {})
    depths = _by_label(gauges, "service.queue_depth", "state")
    if depths:
        lines.append(
            "  queue: "
            + "  ".join(f"{s}={int(v)}" for s, v in sorted(depths.items()))
        )
    # Per-tenant throughput and SLO burn.
    tenants: Dict[str, Dict[str, float]] = {}
    for key, value in counters.items():
        base, labels = _split_key(key)
        if base == "service.tenant_jobs" and "tenant" in labels:
            row = tenants.setdefault(labels["tenant"], {})
            row[labels.get("state", "?")] = row.get(
                labels.get("state", "?"), 0.0
            ) + float(value)
    for tenant, burn in _by_label(gauges, "slo.burn_rate", "tenant").items():
        tenants.setdefault(tenant, {})["burn"] = burn
    for tenant in sorted(tenants):
        row = tenants[tenant]
        done = int(row.get("done", 0))
        failed = int(row.get("failed", 0))
        burn = row.get("burn")
        text = f"  tenant {tenant}: done={done} failed={failed}"
        if burn is not None:
            text += f" slo_burn={burn:.2f}"
            if burn > 1.0:
                text += " (BURNING)"
        lines.append(text)
    # Engine trouble (demotions / miscompares / quarantines).
    engine = _by_label(counters, "engine.events", "kind")
    if engine:
        lines.append(
            "  engine: "
            + "  ".join(f"{k}={int(v)}" for k, v in sorted(engine.items()))
        )
    steps = counters.get("steps.completed")
    if steps is not None:
        lines.append(f"  steps completed: {int(steps)}")
    exports = counters.get("telemetry.exports")
    withdrawn = counters.get("telemetry.withdrawn")
    heartbeat = []
    if exports is not None:
        heartbeat.append(f"exports={int(exports)}")
    if withdrawn:
        heartbeat.append(f"withdrawn={int(withdrawn)}")
    if heartbeat:
        lines.append("  exporter: " + "  ".join(heartbeat))
    if events:
        lines.append(f"  last {min(tail, len(events))} event(s):")
        for ev in list(events)[-tail:]:
            corr = " ".join(
                f"{k}={v}"
                for k, v in sorted(ev.correlation.items())
                if v is not None
            )
            attrs = " ".join(
                f"{k}={v}" for k, v in sorted(ev.attrs.items())
            )
            text = f"    #{ev.seq} {ev.category}/{ev.kind}"
            if corr:
                text += f" [{corr}]"
            if attrs:
                text += f" {attrs}"
            lines.append(text[:120])
    return "\n".join(lines)
