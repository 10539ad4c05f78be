"""Observability plane: full exporter + bus + recorder overhead.

PR 9's acceptance bar (DESIGN.md §16): the *entire* live observability
plane — span tracing teed into the flight-recorder ring, the unified
event bus, correlation-context merging on every span, and the periodic
metrics exporter pulsed from the step loop — must cost **under 3% of
one amortized MRHS step** against a telemetry-off run of the identical
workload.  This is the same paired best-of-samples protocol as
``bench_telemetry.py``, but through the :class:`ResilientRunner` so the
per-step ``pulse()`` and correlation annotations are on the measured
path, inside a correlation scope as a service dispatch would be.

Results persist as ``BENCH_observability.json`` (CI obs-smoke job, and
the ``compare.py`` sentinel's baseline)::

    PYTHONPATH=src python benchmarks/bench_observability.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

import repro.telemetry as telemetry
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience.runner import ResilientRunner
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration
from repro.telemetry import NULL_HUB, TelemetryHub
from repro.telemetry import context as obs_context
from repro.telemetry.events import EVENTS_FILENAME

try:
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _emit import emit_report, utc_now

# examples/quickstart.py scale, matching bench_telemetry.py.
N_PARTICLES = 150
PHI = 0.4
M = 8
N_CHUNKS = 2
EXPORT_INTERVAL_S = 0.25
OVERHEAD_TARGET_PCT = 3.0

CONFIG = {
    "n_particles": N_PARTICLES,
    "phi": PHI,
    "m": M,
    "n_chunks": N_CHUNKS,
    "export_interval_s": EXPORT_INTERVAL_S,
    "overhead_target_pct": OVERHEAD_TARGET_PCT,
}


def _chunk_step_times(telemetry_dir: Path | None, seed: int = 11) -> dict:
    """Per-chunk wall-clock / m through the resilient runner.

    First chunk is untimed warmup (neighbor build, spectrum bounds);
    the minimum over the per-chunk samples is later the low-noise
    estimator (see ``bench_telemetry.py`` for the rationale).
    """
    system = random_configuration(N_PARTICLES, PHI, rng=seed)
    hub = (
        NULL_HUB
        if telemetry_dir is None
        else TelemetryHub(telemetry_dir, export_interval=EXPORT_INTERVAL_S)
    )
    driver = MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1,
        telemetry=hub,
    )
    runner = ResilientRunner(driver)
    scope = (
        obs_context.scope(job_id=1, tenant="bench", run_id="bench.1")
        if telemetry_dir is not None
        else obs_context.scope()
    )
    with scope:
        runner.run_steps(M)  # warmup, untimed
        steps = []
        for _ in range(N_CHUNKS):
            t0 = time.perf_counter()
            runner.run_steps(M)
            steps.append((time.perf_counter() - t0) / M)
    out = {"step_samples": steps}
    if telemetry_dir is not None:
        hub.emit_event("bench", "end", chunks=N_CHUNKS)
        hub.close()  # drains the tracer through the recorder tee
        telemetry.uninstall()
        out["exports"] = hub.exporter.exports
        out["flight_spans"] = len(hub.recorder.spans)
        out["bus_events"] = hub.events.events_emitted
        out["events_dropped"] = hub.tracer.events_dropped
        out["trace_bytes"] = (telemetry_dir / "trace.jsonl").stat().st_size
        out["events_bytes"] = (
            (telemetry_dir / EVENTS_FILENAME).stat().st_size
        )
    return out


def measure_overhead(base_dir: Path, repeats: int = 6) -> dict:
    """Best-of-samples observability-on vs telemetry-off step time,
    interleaved so thermal/cache drift hits both sides equally."""
    bare, observed = [], []
    enabled_stats: dict = {}
    for i in range(repeats):
        bare.extend(_chunk_step_times(None)["step_samples"])
        enabled_stats = _chunk_step_times(base_dir / f"run{i}")
        observed.extend(enabled_stats["step_samples"])
    bare_min = float(np.min(bare))
    observed_min = float(np.min(observed))
    return {
        "step_time_s": bare_min,
        "observed_step_time_s": observed_min,
        "observability_overhead_pct": (
            100.0 * max(0.0, observed_min - bare_min) / bare_min
        ),
        "exports": enabled_stats["exports"],
        "bus_events": enabled_stats["bus_events"],
        "flight_spans": enabled_stats["flight_spans"],
        "events_dropped": enabled_stats["events_dropped"],
        "trace_bytes": enabled_stats["trace_bytes"],
        "events_bytes": enabled_stats["events_bytes"],
    }


def collect(base_dir: Path) -> dict:
    return measure_overhead(base_dir)


def _passed(results: dict) -> bool:
    return (
        results["observability_overhead_pct"] < OVERHEAD_TARGET_PCT
        and results["events_dropped"] == 0
    )


def test_observability_overhead(tmp_path):
    results = collect(tmp_path)
    assert _passed(results), results
    emit_report(
        "observability", config=CONFIG, metrics=results,
        timestamp=utc_now(), passed=True,
        out_paths=[tmp_path / "BENCH_observability.json"],
    )


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = collect(Path(tmp))
    ok = _passed(results)
    emit_report(
        "observability", config=CONFIG, metrics=results,
        timestamp=utc_now(), passed=ok,
        out_paths=[Path("BENCH_observability.json")],
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
