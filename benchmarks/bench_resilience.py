"""Resilience layer: checkpoint overhead and bit-exact resume.

The resilience acceptance bar (DESIGN.md §9): writing a checkpoint for
a quickstart-sized system must cost **under 5% of one time step**, and
a run killed mid-stream must resume to bit-identical final positions.
This bench measures both and persists them as ``BENCH_resilience.json``
(uploaded as a CI artifact), so checkpoint-cost regressions and any
drift in the resume contract show up in the numbers, not in a user's
crashed campaign.

Also runnable without the pytest harness (CI smoke job)::

    PYTHONPATH=src python benchmarks/bench_resilience.py
"""

from __future__ import annotations

import json
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import (
    CheckpointManager,
    FaultPlan,
    FaultSpec,
    ResilientRunner,
    SimulationKilled,
    resume_driver,
)
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration

try:
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _emit import emit_report, utc_now

# examples/quickstart.py scale.
N_PARTICLES = 150
PHI = 0.4
M = 8
N_STEPS = 8
KILL_AT = 5

CONFIG = {
    "n_particles": N_PARTICLES,
    "phi": PHI,
    "m": M,
    "n_steps": N_STEPS,
    "kill_at": KILL_AT,
}


def _driver(seed: int = 11) -> MrhsStokesianDynamics:
    system = random_configuration(N_PARTICLES, PHI, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1
    )


def measure_overhead(ckpt_dir: Path, repeats: int = 5) -> dict:
    """Amortized MRHS step time vs checkpoint cost, one warm driver.

    "Step time" is a full chunk divided by ``m`` — the block solve and
    guess construction amortized exactly as the paper (and the CLI
    summary) report it.  The headline overhead is the **critical-path**
    cost the runner actually pays per checkpoint: snapshot + enqueue
    (the pack/digest/write pipeline runs on the background writer
    thread, see ``CheckpointManager.save_async``).  The synchronous
    write cost is reported alongside for the disk-budget trajectory.
    """
    driver = _driver()
    # A run's true average step: two chunks from cold, so the one-time
    # and periodically-refreshed work (neighbor build, Lanczos spectrum
    # bounds) is amortized the way a real campaign amortizes it.
    t0 = time.perf_counter()
    driver.run_chunk(M)
    driver.run_chunk(M)
    step = (time.perf_counter() - t0) / (2 * M)
    manager = CheckpointManager(ckpt_dir)
    async_times = []
    sync_times = []
    for _ in range(repeats + 1):
        t0 = time.perf_counter()
        manager.save_async(driver.get_state(), step=driver.sd.step_index)
        async_times.append(time.perf_counter() - t0)
        manager.flush()
        t0 = time.perf_counter()
        manager.save(driver.get_state(), step=driver.sd.step_index)
        sync_times.append(time.perf_counter() - t0)
    save = float(np.median(async_times[1:]))  # first save pays imports
    sizes = manager.overhead_estimate()
    return {
        "step_time_s": step,
        "checkpoint_time_s": save,
        "checkpoint_sync_time_s": float(np.median(sync_times[1:])),
        "checkpoint_overhead_pct": 100.0 * save / step,
        "checkpoint_bytes": sizes["mean_bytes"],
    }


def measure_resume(ckpt_dir: Path) -> dict:
    """Kill an MRHS run mid-chunk, resume, compare to uninterrupted."""
    full = ResilientRunner(_driver())
    full.run_steps(N_STEPS)
    reference = full.driver.sd.system.positions

    manager = CheckpointManager(ckpt_dir)
    killed = ResilientRunner(
        _driver(),
        manager=manager,
        checkpoint_every=2,
        injector=FaultPlan(
            specs=(FaultSpec(site="runner.abort", at={"step": KILL_AT}),)
        ),
    )
    try:
        killed.run_steps(N_STEPS)
        raise AssertionError("kill fault did not fire")
    except SimulationKilled:
        pass
    state, meta, _path = manager.load_latest()
    resumed_driver = resume_driver(state)
    resumed = ResilientRunner(resumed_driver)
    resumed.run_steps(N_STEPS - resumed_driver.sd.step_index)
    return {
        "killed_at_step": KILL_AT,
        "resumed_from_step": int(meta["step"]),
        "resume_bitexact": bool(
            np.array_equal(resumed_driver.sd.system.positions, reference)
        ),
    }


def collect(base_dir: Path) -> dict:
    results = {}
    results.update(measure_overhead(base_dir / "overhead"))
    results.update(measure_resume(base_dir / "resume"))
    return results


def test_resilience_overhead(benchmark, tmp_path):
    results = collect(tmp_path)
    assert results["resume_bitexact"]
    assert results["checkpoint_overhead_pct"] < 5.0
    emit_report(
        "resilience", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=True,
        out_paths=[tmp_path / "BENCH_resilience.json"],
    )

    # Benchmark the checkpoint round-trip itself (save + verify-load).
    driver = _driver()
    driver.run_chunk(4)
    manager = CheckpointManager(tmp_path / "bench")

    def roundtrip():
        path = manager.save(driver.get_state(), step=driver.sd.step_index)
        manager.load(path)

    benchmark(roundtrip)


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        results = collect(Path(tmp))
    ok = results["resume_bitexact"] and results["checkpoint_overhead_pct"] < 5.0
    emit_report(
        "resilience", config=CONFIG, metrics=results, timestamp=utc_now(),
        passed=ok,
        out_paths=[Path("BENCH_resilience.json")],
    )
    print(json.dumps(results, indent=2, sort_keys=True))
    print("PASS" if ok else "FAIL")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
