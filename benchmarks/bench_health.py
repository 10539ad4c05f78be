"""Health layer: monitor overhead and the rejection drill.

The health acceptance bar (DESIGN.md §10): running the full default
invariant catalogue every step at quickstart scale must cost **under 2%
of one time step**, and the mis-parameterized drill (dt 100x too large)
must end in either a finite trajectory via rejection/dt-halving or a
:class:`ResilienceExhausted` abort naming the violated invariant.  Both
are measured here and persisted as ``BENCH_health.json`` (uploaded as a
CI artifact), so monitor-cost regressions show up in the numbers before
they show up in campaign budgets.

Also runnable without the pytest harness (CI health-chaos job)::

    PYTHONPATH=src python benchmarks/bench_health.py
"""

from __future__ import annotations

import json
import time
from pathlib import Path

import numpy as np

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.health import HealthMonitor
from repro.resilience import ResilienceExhausted, ResilientRunner
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration

try:
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _emit import emit_report, utc_now

# examples/quickstart.py scale.
N_PARTICLES = 150
PHI = 0.4
M = 8
N_CHUNKS = 2
OVERHEAD_TARGET_PCT = 2.0

# Rejection drill: small dense system where dt=5.0 (100x the sane 0.05)
# makes the overlap limiter truncate displacements hard.
DRILL_N = 40
DRILL_PHI = 0.45
DRILL_DT = 5.0
DRILL_STEPS = 12

CONFIG = {
    "n_particles": N_PARTICLES,
    "phi": PHI,
    "m": M,
    "n_chunks": N_CHUNKS,
    "overhead_target_pct": OVERHEAD_TARGET_PCT,
    "drill_n": DRILL_N,
    "drill_phi": DRILL_PHI,
    "drill_dt": DRILL_DT,
    "drill_steps": DRILL_STEPS,
}


def _driver(seed: int = 11, monitor: HealthMonitor | None = None):
    system = random_configuration(N_PARTICLES, PHI, rng=seed)
    driver = MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1
    )
    driver.sd.health = monitor
    return driver


def _amortized_step_time(monitor: HealthMonitor | None) -> float:
    """Chunk wall-clock / m, identical noise with and without monitor."""
    driver = _driver(monitor=monitor)
    t0 = time.perf_counter()
    for _ in range(N_CHUNKS):
        driver.run_chunk(M)
    return (time.perf_counter() - t0) / (N_CHUNKS * M)


def measure_overhead(repeats: int = 3) -> dict:
    """Median-of-repeats monitored vs bare step time.

    Interleaved runs (bare, monitored, bare, ...) so thermal/cache
    drift hits both sides equally.
    """
    bare, monitored = [], []
    for _ in range(repeats):
        bare.append(_amortized_step_time(None))
        monitored.append(_amortized_step_time(HealthMonitor()))
    bare_med = float(np.median(bare))
    mon_med = float(np.median(monitored))
    return {
        "step_time_s": bare_med,
        "monitored_step_time_s": mon_med,
        "monitor_overhead_pct": 100.0 * max(0.0, mon_med - bare_med) / bare_med,
    }


def measure_rejection_drill() -> dict:
    """dt 100x too large under --reject-bad-steps semantics."""
    system = random_configuration(DRILL_N, DRILL_PHI, rng=3)
    driver = StokesianDynamics(system, SDParameters(dt=DRILL_DT), rng=4)
    monitor = HealthMonitor()
    runner = ResilientRunner(
        driver, max_retries=8, monitor=monitor
    )
    out = {}
    try:
        report = runner.run_steps(DRILL_STEPS)
    except ResilienceExhausted as exc:
        out.update(
            {
                "drill_outcome": "aborted",
                "drill_abort_message": str(exc),
                "drill_names_invariant": "invariant" in str(exc),
                "drill_finite": bool(
                    np.isfinite(driver.system.positions).all()
                ),
            }
        )
    else:
        out.update(
            {
                "drill_outcome": "completed",
                "drill_retries": report.retries,
                "drill_dt_backoffs": report.dt_backoffs,
                "drill_rejected_checks": sorted(set(report.rejected_checks)),
                "drill_finite": bool(
                    np.isfinite(driver.system.positions).all()
                ),
            }
        )
    out["drill_health_summary"] = monitor.report.summary()
    return out


def collect() -> dict:
    results = {}
    results.update(measure_overhead())
    results.update(measure_rejection_drill())
    return results


def _passed(results: dict) -> bool:
    drill_ok = results["drill_outcome"] == "completed" and results["drill_finite"]
    drill_ok = drill_ok or (
        results["drill_outcome"] == "aborted"
        and results["drill_names_invariant"]
    )
    return (
        results["monitor_overhead_pct"] < OVERHEAD_TARGET_PCT and drill_ok
    )


def test_health_overhead(benchmark, tmp_path):
    results = collect()
    assert _passed(results), results
    emit_report(
        "health", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=True,
        out_paths=[tmp_path / "BENCH_health.json"],
    )

    # Benchmark one full default-catalogue observation on a live state.
    from repro.health.invariants import HealthContext

    driver = _driver(seed=7)
    driver.run_chunk(4)
    monitor = HealthMonitor()
    sd = driver.sd
    u = np.random.default_rng(0).standard_normal(sd.system.dof)
    ctx = HealthContext(
        step_index=0,
        system=sd.system,
        dt=sd.params.dt,
        kT=sd.params.kT,
        arrays={"velocity": u, "displacement": sd.params.dt * u},
        bounds=(0.5, 50.0),
        R=sd.build_matrix(),
    )
    benchmark(lambda: monitor.observe_step(ctx))


def main() -> int:
    results = collect()
    ok = _passed(results)
    emit_report(
        "health", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=ok,
        out_paths=[Path("BENCH_health.json")],
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
