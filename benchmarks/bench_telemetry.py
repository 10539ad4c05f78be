"""Telemetry layer: tracing + metrics overhead on the MRHS workload.

The observability acceptance bar (DESIGN.md §11): with telemetry
disabled the instrumentation must be invisible (every hot call site
pays one module-attribute load and a ``None`` check), and a fully
enabled hub — span tracing to JSONL plus the metrics registry — must
cost **under 3% of one amortized MRHS step** at quickstart scale.
Both are measured here and persisted as ``BENCH_telemetry.json``
(uploaded as a CI artifact) so instrumentation creep shows up in the
numbers, not in campaign budgets.

Also runnable without the pytest harness (CI telemetry-smoke job)::

    PYTHONPATH=src python benchmarks/bench_telemetry.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.telemetry as telemetry
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration
from repro.telemetry import NULL_HUB, TelemetryHub

try:
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _emit import emit_report, utc_now

# examples/quickstart.py scale.
N_PARTICLES = 150
PHI = 0.4
M = 8
N_CHUNKS = 2
OVERHEAD_TARGET_PCT = 3.0

CONFIG = {
    "n_particles": N_PARTICLES,
    "phi": PHI,
    "m": M,
    "n_chunks": N_CHUNKS,
    "overhead_target_pct": OVERHEAD_TARGET_PCT,
}


def _chunk_step_times(telemetry_dir: Path | None, seed: int = 11) -> dict:
    """Per-chunk wall-clock / m, identical workload with/without a hub.

    The first chunk is warmup (neighbor build, Lanczos spectrum bounds,
    import costs) and is not timed — its cold-start scatter is several
    times the effect being measured.  Each remaining chunk is timed
    individually: the minimum is later taken over *chunks*, a much
    finer grain than whole-run averages, so a scheduler spike poisons
    one ~0.1 s sample instead of a whole repeat.
    """
    system = random_configuration(N_PARTICLES, PHI, rng=seed)
    hub = NULL_HUB if telemetry_dir is None else TelemetryHub(telemetry_dir)
    driver = MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1,
        telemetry=hub,
    )
    driver.run_chunk(M)  # warmup, untimed
    steps = []
    for _ in range(N_CHUNKS):
        t0 = time.perf_counter()
        driver.run_chunk(M)
        steps.append((time.perf_counter() - t0) / M)
    out = {"step_samples": steps}
    if telemetry_dir is not None:
        hub.close()
        telemetry.uninstall()
        out["events_emitted"] = hub.tracer.events_emitted
        out["events_dropped"] = hub.tracer.events_dropped
        out["trace_bytes"] = (telemetry_dir / "trace.jsonl").stat().st_size
    return out


def measure_overhead(base_dir: Path, repeats: int = 6) -> dict:
    """Best-of-samples enabled vs disabled step time.

    Interleaved runs (bare, traced, bare, ...) so thermal/cache drift
    hits both sides equally; the minimum over all per-chunk samples is
    the standard low-noise estimator for a fixed workload (everything
    above the minimum is scheduler/allocator interference, not the
    code).
    """
    bare, traced = [], []
    enabled_stats: dict = {}
    for i in range(repeats):
        bare.extend(_chunk_step_times(None)["step_samples"])
        enabled_stats = _chunk_step_times(base_dir / f"run{i}")
        traced.extend(enabled_stats["step_samples"])
    bare_min = float(np.min(bare))
    traced_min = float(np.min(traced))
    return {
        "step_time_s": bare_min,
        "traced_step_time_s": traced_min,
        "telemetry_overhead_pct": (
            100.0 * max(0.0, traced_min - bare_min) / bare_min
        ),
        "events_per_chunk": enabled_stats["events_emitted"] / (N_CHUNKS + 1),
        "events_dropped": enabled_stats["events_dropped"],
        "trace_bytes_per_chunk": (
            enabled_stats["trace_bytes"] / (N_CHUNKS + 1)
        ),
    }


def collect(base_dir: Path) -> dict:
    return measure_overhead(base_dir)


def _passed(results: dict) -> bool:
    return results["telemetry_overhead_pct"] < OVERHEAD_TARGET_PCT


def test_telemetry_overhead(benchmark, tmp_path):
    results = collect(tmp_path)
    assert _passed(results), results
    emit_report(
        "telemetry", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=True,
        out_paths=[tmp_path / "BENCH_telemetry.json"],
    )

    # Benchmark the per-event hot path itself: one record() into a
    # buffered tracer (what every instrumented GSPMV pays when enabled).
    from repro.telemetry import Tracer

    tracer = Tracer(buffer_size=1 << 16)
    benchmark(
        lambda: tracer.record("gspmv", 1e-4, nb=100, nnzb=2500, b=3, m=8)
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = collect(Path(tmp))
    ok = _passed(results)
    emit_report(
        "telemetry", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=ok,
        out_paths=[Path("BENCH_telemetry.json")],
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
