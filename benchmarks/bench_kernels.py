"""Kernel backend tier: auto-selection beats scipy, model converges.

The acceptance bar of the backend-registry PR (ISSUE 6 / DESIGN.md
§13), measured on the benchmark SD matrix (the mat2 analog of Table I):

1. **Auto-selection wins.**  The engine picked by the per-machine
   micro-benchmark must beat the ``scipy`` engine wall-clock at
   ``m >= 8`` (the regime the paper's MRHS algorithm runs in).
2. **The roofline converges.**  With an :class:`EngineProfile`
   calibrated from the endpoints (smallest and largest ``m``), the
   measured time of the *selected* engine must fall within the 25%
   roofline threshold at every benchmarked ``m`` — the report
   *validates* the selection instead of merely flagging the gap
   between peak model and real kernel (the PR 4 limitation).

The second check runs through the full production chain: telemetry hub
recording engine-labelled gspmv spans -> trace on disk ->
``RooflineReport.from_run`` with engine profiles.

Results persist as ``BENCH_kernels.json`` (uploaded by the CI
``kernels`` job)::

    PYTHONPATH=src python benchmarks/bench_kernels.py
"""

from __future__ import annotations

import tempfile
import time
from pathlib import Path

import numpy as np

from repro.perfmodel import calibrate_profile, host_machine
from repro.perfmodel.roofline import MatrixShape
from repro.sparse import available_engines, get_default_registry
from repro.sparse.autotune import AutoSelector
from repro.sparse.gspmv import gspmv
from repro.telemetry import TelemetryHub
from repro.telemetry.report import RooflineReport

try:
    from benchmarks._cases import scaled_paper_matrix
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _cases import scaled_paper_matrix
    from _emit import emit_report, utc_now

M_VALUES = (1, 2, 8, 16)
#: Calls per (m,) recorded through the telemetry hub for the roofline
#: validation (means over this many calls, like a production run).
VALIDATE_CALLS = 10
#: Minimum auto-over-scipy speedup at m >= 8 to count as "beats".
MIN_SPEEDUP = 1.05
#: Roofline threshold the selected engine must converge within.
THRESHOLD = 0.25


def collect() -> dict:
    A = scaled_paper_matrix("mat2")
    machine = host_machine(quick=True)
    shape = MatrixShape.of(A)
    registry = get_default_registry()
    # A fresh memory-only selector: always re-tunes on this host, so
    # the bench measures today's machine, not a cached verdict.
    selector = AutoSelector(registry)

    tunings = {m: selector.record(A, m) for m in M_VALUES}
    selected = {m: r["engine"] for m, r in tunings.items()}
    speedup_vs_scipy = {
        m: r["timings"]["scipy"] / r["timings"][r["engine"]]
        for m, r in tunings.items()
    }

    # Roofline validation through the production chain: record
    # engine-labelled spans for the auto-selected engine at each m.
    rng = np.random.default_rng(0)
    with tempfile.TemporaryDirectory() as run_dir:
        hub = TelemetryHub(run_dir)
        import repro.telemetry as _telemetry

        _telemetry.install(hub)
        try:
            for m in M_VALUES:
                X = rng.standard_normal((A.n_cols, m))
                gspmv(A, X, engine=selected[m])  # warm (compile etc.)
                for _ in range(VALIDATE_CALLS):
                    gspmv(A, X, engine=selected[m])
        finally:
            hub.close()
            _telemetry.uninstall()

        # Calibrate one profile per selected engine from the hub-measured
        # endpoint means, then let the report *predict* the interior m.
        peak = RooflineReport.from_run(run_dir, machine, threshold=THRESHOLD)
        means = {
            (r.engine, r.m): r.measured_mean
            for r in peak.rows
            if r.kind == "gspmv"
        }
        profiles = {}
        for engine in sorted(set(selected.values())):
            ms = sorted(m for (e, m) in means if e == engine)
            endpoints = {m: means[(engine, m)] for m in (ms[0], ms[-1])}
            profiles[engine] = calibrate_profile(
                engine, shape, machine, endpoints
            )
        report = RooflineReport.from_run(
            run_dir, machine, threshold=THRESHOLD, profiles=profiles
        )

    rows = [
        r.as_dict()
        for r in report.rows
        if r.kind == "gspmv" and r.engine == selected[r.m]
    ]
    return {
        "matrix": {
            "name": "mat2-analog",
            "nb": A.nb_rows,
            "nnzb": A.nnzb,
            "blocks_per_row": A.blocks_per_row,
            "block_size": A.block_size,
        },
        "machine": {
            "name": machine.name,
            "stream_bw": machine.stream_bw,
            "flop_rate": machine.flop_rate,
        },
        "engines_available": list(available_engines()),
        "selected_engine": {str(m): e for m, e in selected.items()},
        "timings_s": {
            str(m): dict(sorted(r["timings"].items()))
            for m, r in tunings.items()
        },
        "speedup_vs_scipy": {
            str(m): s for m, s in speedup_vs_scipy.items()
        },
        "profiles": {
            e: {
                "bw_scale": p.bw_scale,
                "flop_scale": p.flop_scale,
            }
            for e, p in profiles.items()
        },
        "roofline_rows": rows,
    }


def verdict(metrics: dict) -> dict:
    """The two acceptance checks, as recorded booleans."""
    beats_scipy = all(
        metrics["speedup_vs_scipy"][str(m)] >= MIN_SPEEDUP
        for m in M_VALUES
        if m >= 8
    )
    rows = metrics["roofline_rows"]
    converged = bool(rows) and all(
        abs(r["deviation"]) <= THRESHOLD for r in rows
    )
    return {
        "auto_beats_scipy_at_m8_plus": beats_scipy,
        "selected_engine_within_threshold": converged,
    }


def main() -> int:
    t0 = time.perf_counter()
    metrics = collect()
    checks = verdict(metrics)
    metrics["checks"] = checks
    metrics["bench_seconds"] = time.perf_counter() - t0
    passed = all(checks.values())
    emit_report(
        "kernels",
        config={
            "m_values": list(M_VALUES),
            "validate_calls": VALIDATE_CALLS,
            "min_speedup": MIN_SPEEDUP,
            "threshold": THRESHOLD,
        },
        metrics=metrics,
        timestamp=utc_now(),
        passed=passed,
        out_paths=[Path("BENCH_kernels.json")],
    )
    for m in M_VALUES:
        sel = metrics["selected_engine"][str(m)]
        print(
            f"m={m:2d}: selected={sel:8s} "
            f"speedup vs scipy {metrics['speedup_vs_scipy'][str(m)]:5.2f}x"
        )
    for r in metrics["roofline_rows"]:
        print(
            f"roofline m={r['m']:2d} engine={r['engine']:8s} "
            f"measured={r['measured_mean_s']:.3e}s "
            f"model={r['predicted_s']:.3e}s dev={r['deviation']:+.1%}"
        )
    print(f"checks: {checks}")
    print("PASS" if passed else "FAIL")
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
