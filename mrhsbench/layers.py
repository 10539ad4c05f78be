"""Which public calls of each ``repro`` layer the traced run times, and
the per-layer metrics derived from the resulting spans."""

from __future__ import annotations

from collections import Counter, defaultdict
from pathlib import Path
from types import SimpleNamespace
from typing import Any, Dict, List, Optional, Sequence

from spans import (END, NAME, START, VALUE, SpanRecorder, root_time, self_time_table,
                   self_times, thread_rows)

# Per-layer metrics, in the order BENCHMARK.json lists them; each maps
# to its unit.  Every traced run reports all of them (0 where the
# workload never enters the layer).
PER_LAYER = {
    "packing.s": "s", "packing.calls": "count",
    "neighbors.assembly_s": "s", "neighbors.displacement_s": "s",
    "neighbors.other_s": "s", "neighbors.calls": "count",
    "neighbors.pairs": "count",
    "assembly.self_s": "s", "assembly.calls": "count",
    "bcrs.from_coo_s": "s", "matrix.nnzb": "count", "matrix.mib_computed": "MiB",
    "brownian.s": "s", "brownian.calls": "count",
    "lanczos.s": "s", "lanczos.calls": "count",
    "spmv.calls": "count", "spmv.s": "s",
    "gspmv.calls": "count", "gspmv.s": "s", "gspmv.m": "count",
    "spmv.gbps_computed": "GB/s", "gspmv.gbps_computed": "GB/s",
    "gspmv.rel_time": "ratio",
    "cg.calls": "count", "cg.iters": "count", "cg.self_s": "s",
    "cg.iters_first_mrhs": "count", "cg.iters_first_orig": "count",
    "block_cg.calls": "count", "block_cg.iters": "count",
    "block_cg.s": "s", "block_cg.self_s": "s",
    "mrhs.speedup": "ratio", "mrhs.base_unit_s": "s",
    "mrhs.guess_error_mean": "ratio", "mrhs.fallback_columns": "count",
    "runner.s": "s", "checkpoint.saves": "count", "checkpoint.save_s": "s",
    "checkpoint.bytes": "B",
    "io.writes": "count", "io.write_s": "s", "io.bytes": "B",
    "service.submit_s": "s", "journal.appends": "count",
    "journal.append_s": "s", "journal.bytes": "B",
    "service.slices": "count", "service.preemptions": "count",
    "service.queue_wait_s_p50": "s", "service.turnaround_samples": "count",
    "service.jobs_per_s": "1/s", "service.turnaround_s_p50": "s",
    "service.turnaround_s_p90": "s",
    "telemetry.exports": "count", "telemetry.export_s": "s",
    "telemetry.events": "count",
    "resources.rotations": "count", "resources.releases": "count",
    "trace.wall_s": "s", "trace.unaccounted_s": "s",
    "trace.coverage": "frac", "trace.overhead_frac": "frac",
    "exact.mismatches": "count",
}


def _n_pairs(result, *a, **k):
    return result.n_pairs


def _nnzb(result, *a, **k):
    return result.nnzb


def _iters(result, *a, **k):
    return result.iterations


def _file_bytes(result, *a, **k):
    try:
        return Path(result).stat().st_size
    except (OSError, TypeError):
        return 0


def _kernel_label(A, x) -> str:
    return "spmv" if getattr(x, "ndim", 1) == 1 else "gspmv"


def _kernel_shape(result, A, x):
    m = 1 if getattr(x, "ndim", 1) == 1 else int(x.shape[1])
    return (m, A.nb_rows, A.nnzb, A.block_size)


def _neighbor_caller(modname: str) -> Optional[str]:
    if modname == "repro.stokesian.resistance":
        return "neighbors.assembly"
    if modname == "repro.stokesian.dynamics":
        return "neighbors.displacement"
    if modname in ("repro.stokesian.packing", "repro.stokesian",
                   "repro", "repro.stokesian.neighbors"):
        return None  # packing's own overlap relaxation stays in packing
    return "neighbors.other"


def _everywhere(label: str):
    return lambda _modname: label


def install(rec: SpanRecorder) -> None:
    """Wrap the timed calls of every layer (undone by ``rec.unpatch``)."""
    import repro  # noqa: F401  (loads the package modules being patched)
    import repro.io
    import repro.stokesian.chebyshev as chebyshev
    from repro.core.mrhs import MrhsStokesianDynamics
    from repro.resilience.checkpoint import CheckpointManager
    from repro.resilience.runner import ResilientRunner
    from repro.resources.governor import ResourceGovernor
    from repro.service.journal import JobJournal
    from repro.service.manager import JobManager
    from repro.service.worker import JobWorker
    from repro.solvers.block_cg import block_conjugate_gradient
    from repro.solvers.cg import conjugate_gradient
    from repro.sparse.bcrs import BCRSMatrix
    from repro.stokesian.brownian import BrownianForceGenerator
    from repro.stokesian.dynamics import StokesianDynamics
    from repro.stokesian.neighbors import neighbor_pairs
    from repro.stokesian.packing import random_configuration
    from repro.stokesian.resistance import build_resistance_matrix
    from repro.telemetry.events import EventBus
    from repro.telemetry.exporter import MetricsExporter

    rec.patch_function(random_configuration, _everywhere("packing"))
    rec.patch_function(neighbor_pairs, _neighbor_caller, _n_pairs)
    rec.patch_function(build_resistance_matrix, _everywhere("assembly"), _nnzb)
    rec.patch_function(chebyshev.lanczos_spectrum_bounds, _everywhere("lanczos"))
    rec.patch_function(conjugate_gradient, _everywhere("cg"), _iters)
    rec.patch_function(block_conjugate_gradient, _everywhere("block_cg"), _iters)
    rec.patch_function(repro.io.atomic_savez, _everywhere("io.write"), _file_bytes)
    rec.patch_function(repro.io.atomic_write_text, _everywhere("io.write"), _file_bytes)

    from_coo = BCRSMatrix.__dict__["from_block_coo"].__func__
    rec.patch(BCRSMatrix, "from_block_coo",
              classmethod(rec.timed(from_coo, "bcrs.from_coo")))
    methods = [
        (BCRSMatrix, "__matmul__", _kernel_label, _kernel_shape),
        (BrownianForceGenerator, "generate", "brownian", None),
        (MrhsStokesianDynamics, "run", "mrhs.run", None),
        (MrhsStokesianDynamics, "solve_auxiliary", "mrhs.solve_auxiliary", None),
        (StokesianDynamics, "run", "orig.run", None),
        (ResilientRunner, "run_steps", "runner", None),
        (CheckpointManager, "save", "checkpoint.save", _file_bytes),
        (JobManager, "submit", "service.submit", None),
        (JobManager, "run", "service.run", None),
        (JobJournal, "append", "journal.append", None),
        (JobWorker, "run", "service.slice", lambda r, w, *a, **k: w.spec.name),
        (MetricsExporter, "export", "telemetry.export", None),
        (EventBus, "emit", "telemetry.emit", None),
        (ResourceGovernor, "note_rotation", "resources.rotation", None),
        (ResourceGovernor, "emergency_release", "resources.release", None),
    ]
    for owner, attr, label, probe in methods:
        rec.patch(owner, attr, rec.timed(owner.__dict__[attr], label, probe))


# ----------------------------------------------------------------------
def exact_counts(spans: Sequence[Sequence]) -> Dict[str, Any]:
    """Counts a fixed amount of work must reproduce exactly."""
    c: Counter = Counter()
    for s in spans:
        name, value = s[NAME], s[VALUE]
        if name in ("spmv", "gspmv"):
            c[f"{name}.calls.m{value[0]}"] += 1
        elif name in ("cg", "block_cg"):
            c[f"{name}.calls"] += 1
            c[f"{name}.iters"] += value
        elif name.startswith("neighbors."):
            c["neighbors.calls"] += 1
            c["neighbors.pairs"] += value
        elif name == "assembly":
            c["assembly.calls"] += 1
            c["matrix.nnzb"] += value
        elif name in ("brownian", "lanczos", "checkpoint.save", "journal.append"):
            c[f"{name}.calls"] += 1
    return dict(c)


def _traffic_bytes(shape) -> float:
    from repro.sparse.traffic import memory_traffic_bytes

    m, nb, nnzb, b = shape
    fake = SimpleNamespace(nb_rows=nb, nnzb=nnzb, block_size=b)
    return memory_traffic_bytes(fake, m, k=0.0).total_bytes


def matrix_bytes(nb: int, nnzb: int, b: int = 3) -> int:
    """Computed BCRS footprint: blocks plus 4-byte row and column indices."""
    return nnzb * b * b * 8 + 4 * (nb + 1 + nnzb)


def layer_metrics(
    spans: Sequence[Sequence], wall: float, extra: Dict[str, float]
) -> Dict[str, float]:
    """All ``PER_LAYER`` values from one traced region of ``wall`` seconds;
    ``extra`` supplies what the workload measured itself."""
    selfs = self_times(spans)
    by = defaultdict(list)
    for s, t in zip(spans, selfs):
        by[s[NAME]].append((s, t))

    def calls(name):
        return len(by.get(name, ()))

    def total(name):
        return sum(s[END] - s[START] for s, _ in by.get(name, ()))

    def self_total(name):
        return sum(t for _, t in by.get(name, ()))

    def value_sum(name):
        return sum(s[VALUE] or 0 for s, _ in by.get(name, ()))

    out: Dict[str, float] = {k: 0.0 for k in PER_LAYER}
    out["packing.s"] = total("packing")
    out["packing.calls"] = calls("packing")
    nb_names = ("neighbors.assembly", "neighbors.displacement", "neighbors.other")
    out["neighbors.assembly_s"] = total("neighbors.assembly")
    out["neighbors.displacement_s"] = total("neighbors.displacement")
    out["neighbors.other_s"] = total("neighbors.other")
    out["neighbors.calls"] = sum(calls(n) for n in nb_names)
    out["neighbors.pairs"] = sum(value_sum(n) for n in nb_names)
    out["assembly.self_s"] = self_total("assembly")
    out["assembly.calls"] = calls("assembly")
    out["bcrs.from_coo_s"] = total("bcrs.from_coo")
    out["matrix.nnzb"] = value_sum("assembly")
    out["brownian.s"] = total("brownian")
    out["brownian.calls"] = calls("brownian")
    out["lanczos.s"] = total("lanczos")
    out["lanczos.calls"] = calls("lanczos")

    # Kernels: time per (kind, shape), computed traffic (k = 0:
    # compulsory traffic only, no cache-miss term) and the measured r(m).
    shapes = defaultdict(lambda: [0, 0.0])
    for kind in ("spmv", "gspmv"):
        for s, _ in by.get(kind, ()):
            row = shapes[kind, s[VALUE]]
            row[0] += 1
            row[1] += s[END] - s[START]
    for kind in ("spmv", "gspmv"):
        rows = [(sh, v) for (k, sh), v in shapes.items() if k == kind]
        t = sum(v[1] for _, v in rows)
        out[f"{kind}.calls"] = sum(v[0] for _, v in rows)
        out[f"{kind}.s"] = t
        if t > 0:
            out[f"{kind}.gbps_computed"] = (
                sum(_traffic_bytes(sh) * v[0] for sh, v in rows) / t / 1e9
            )
    out["matrix.mib_computed"] = max(
        (matrix_bytes(sh[1], sh[2], sh[3]) for _, sh in shapes), default=0
    ) / (1 << 20)
    per_m = defaultdict(lambda: [0, 0.0])
    for (kind, sh), v in shapes.items():
        if kind == "gspmv":
            per_m[sh[0]][0] += v[0]
            per_m[sh[0]][1] += v[1]
    if per_m:
        # The dominant block width; narrower blocks come from columns
        # that converged early inside block CG.
        m, (gn, gt) = max(per_m.items(), key=lambda kv: kv[1][0])
        out["gspmv.m"] = m
        if out["spmv.calls"]:
            # r(m): mean GSPMV time at that m over mean SPMV time.
            out["gspmv.rel_time"] = (gt / gn) / (out["spmv.s"] / out["spmv.calls"])

    out["cg.calls"] = calls("cg")
    out["cg.iters"] = value_sum("cg")
    out["cg.self_s"] = self_total("cg")
    out["block_cg.calls"] = calls("block_cg")
    out["block_cg.iters"] = value_sum("block_cg")
    out["block_cg.s"] = total("block_cg")
    out["block_cg.self_s"] = self_total("block_cg")

    out["runner.s"] = total("runner")
    out["checkpoint.saves"] = calls("checkpoint.save")
    out["checkpoint.save_s"] = total("checkpoint.save")
    out["checkpoint.bytes"] = value_sum("checkpoint.save")
    out["io.writes"] = calls("io.write")
    out["io.write_s"] = total("io.write")
    out["io.bytes"] = value_sum("io.write")
    out["service.submit_s"] = total("service.submit")
    out["journal.appends"] = calls("journal.append")
    out["journal.append_s"] = total("journal.append")
    out["service.slices"] = calls("service.slice")
    out["telemetry.exports"] = calls("telemetry.export")
    out["telemetry.export_s"] = total("telemetry.export")
    out["telemetry.events"] = calls("telemetry.emit")
    out["resources.rotations"] = calls("resources.rotation")
    out["resources.releases"] = calls("resources.release")

    covered = root_time(spans)
    out["trace.wall_s"] = wall
    out["trace.unaccounted_s"] = wall - covered
    out["trace.coverage"] = covered / wall if wall > 0 else 0.0
    out.update(extra)
    return {k: float(v) for k, v in out.items()}


def queue_waits(spans: Sequence[Sequence], submitted: Dict[str, float]) -> List[float]:
    """Wall seconds from each job's submission to its first slice."""
    first: Dict[str, float] = {}
    for s in spans:
        if s[NAME] == "service.slice" and s[VALUE] not in first:
            first[s[VALUE]] = s[START]
    return [first[k] - t for k, t in submitted.items() if k in first]


def render_table(spans: Sequence[Sequence], wall: float) -> str:
    """Self-time rows plus the unaccounted row, summing to ``wall``."""
    rows = self_time_table(spans, wall)
    lines = [f"{'span':<26}{'calls':>9}{'self s':>11}{'share':>8}"]
    for name, n, t in rows:
        lines.append(f"{name:<26}{n:>9}{t:>11.3f}{t / wall:>8.1%}")
    lines.append(f"{'total (= traced wall)':<26}{'':>9}{sum(r[2] for r in rows):>11.3f}")
    others = thread_rows(spans)
    if others:
        lines.append("other threads (overlapping the rows above):")
        for name, n, t in others:
            lines.append(f"  {name:<24}{n:>9}{t:>11.3f}")
    return "\n".join(lines)
