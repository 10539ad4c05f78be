"""Kernel backend tier: the generated kernel beats scipy, model converges.

The acceptance bar of the kernel engines (DESIGN.md §13), measured on
the benchmark SD matrix (the mat2 analog of Table I):

1. **The generated kernel wins.**  ``cgen`` must beat the ``scipy``
   engine wall-clock (best of :data:`REPEATS` timings each) at
   ``m >= 8``, the regime the paper's MRHS algorithm runs in.
2. **The roofline converges.**  With an :class:`EngineProfile`
   calibrated from the endpoints (smallest and largest ``m``), the
   measured time of ``cgen`` must fall within the 25% roofline
   threshold at every benchmarked ``m`` — the report *validates* the
   engine instead of merely flagging the gap between peak model and
   real kernel.

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
import timeit
from pathlib import Path

import numpy as np

from repro.perfmodel import calibrate_profile, host_machine
from repro.perfmodel.roofline import MatrixShape
from repro.sparse import available_engines
from repro.sparse.gspmv import gspmv, gspmv_into
from repro.telemetry import TelemetryHub
from repro.telemetry.report import RooflineReport

try:
    from benchmarks._cases import scaled_paper_matrix
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _cases import scaled_paper_matrix
    from _emit import emit_report, utc_now

M_VALUES = (1, 2, 8, 16)
#: The timed engines: the generated kernel and the baseline it must beat.
ENGINES = ("scipy", "cgen")
#: Timings per (engine, m); the minimum is kept (best of k).
REPEATS = 5
#: Calls per (m,) recorded through the telemetry hub for the roofline
#: validation (means over this many calls, like a production run).
VALIDATE_CALLS = 10
#: Minimum cgen-over-scipy speedup at m >= 8 to count as "beats".
MIN_SPEEDUP = 1.05
#: Roofline threshold cgen must converge within.
THRESHOLD = 0.25


def best_time(A, X: np.ndarray, engine: str) -> float:
    """Best-of-:data:`REPEATS` seconds per product on ``engine``."""
    out = np.empty((A.n_rows, X.shape[1]))
    timer = timeit.Timer(lambda: gspmv_into(A, X, out, engine=engine))
    number, _ = timer.autorange()  # also warms: plans, compilation
    return min(timer.repeat(repeat=REPEATS, number=number)) / number


def collect() -> dict:
    if "cgen" not in available_engines():
        raise SystemExit("bench_kernels needs the cgen engine (a C compiler)")
    A = scaled_paper_matrix("mat2")
    machine = host_machine(quick=True)
    shape = MatrixShape.of(A)
    rng = np.random.default_rng(0)
    timings = {}
    for m in M_VALUES:
        X = rng.standard_normal((A.n_cols, m))
        timings[m] = {e: best_time(A, X, e) for e in ENGINES}
    speedup_vs_scipy = {
        m: t["scipy"] / t["cgen"] for m, t in timings.items()
    }

    # Roofline validation through the production chain: record
    # cgen-labelled spans at each m.
    with tempfile.TemporaryDirectory() as run_dir:
        hub = TelemetryHub(run_dir)
        import repro.telemetry as _telemetry

        _telemetry.install(hub)
        try:
            for m in M_VALUES:
                X = rng.standard_normal((A.n_cols, m))
                gspmv(A, X, engine="cgen")  # warm (compile etc.)
                for _ in range(VALIDATE_CALLS):
                    gspmv(A, X, engine="cgen")
        finally:
            hub.close()
            _telemetry.uninstall()

        # Calibrate cgen's profile from the hub-measured endpoint means,
        # then let the report *predict* the interior m.
        peak = RooflineReport.from_run(run_dir, machine, threshold=THRESHOLD)
        means = {
            r.m: r.measured_mean
            for r in peak.rows
            if r.kind == "gspmv" and r.engine == "cgen"
        }
        endpoints = {m: means[m] for m in (M_VALUES[0], M_VALUES[-1])}
        profile = calibrate_profile("cgen", shape, machine, endpoints)
        report = RooflineReport.from_run(
            run_dir, machine, threshold=THRESHOLD, profiles={"cgen": profile}
        )

    rows = [
        r.as_dict()
        for r in report.rows
        if r.kind == "gspmv" and r.engine == "cgen"
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
        "timings_s": {str(m): t for m, t in timings.items()},
        "speedup_vs_scipy": {
            str(m): s for m, s in speedup_vs_scipy.items()
        },
        "profiles": {
            "cgen": {
                "bw_scale": profile.bw_scale,
                "flop_scale": profile.flop_scale,
            }
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
        "cgen_beats_scipy_at_m8_plus": beats_scipy,
        "cgen_within_threshold": converged,
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
            "engines": list(ENGINES),
            "repeats": REPEATS,
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
        print(
            f"m={m:2d}: cgen speedup vs scipy "
            f"{metrics['speedup_vs_scipy'][str(m)]:5.2f}x"
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
