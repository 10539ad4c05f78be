"""``service_mix``: four tenants driving the job service in a closed loop.

Each of four tenant clients keeps one MRHS job outstanding (n=32,
phi=0.3, m=4, 16 steps, seeds cycling over 8 values drawn from the
benchmark seed) and submits its next job only once it sees the last one
DONE.  The manager is set up the way ``repro serve --telemetry-dir``
sets it up: a ``TelemetryHub`` installed globally, ``HealthMonitor(
checks=())``, quantum=4 and checkpoint_every=2.  The loop advances the
scheduler with the public ``run(max_ticks=now + 2)`` (one slice per
call) and reads ``table()``.  At this size the platform -- checkpoints,
per-job packing, journal, exporter and event bus, preempt/resume -- does
a large share of the work.

The service runs MRHS jobs only, so after the window the same eight job
specs run once more with the original algorithm (Algorithm 1, a bare
``StokesianDynamics`` per spec, outside the service): one unit is one
pass over the eight specs, and ``orig_steps_per_s`` is their steps over
the median unit time.  The rates a client sees through the service --
jobs/s and turnaround p50/p90 -- are printed beside the gated figures,
and reported per layer from the untraced pass of ``--trace 1``.
"""

from __future__ import annotations

import gc
import hashlib
import time
from pathlib import Path
from typing import Any, Dict, List

import numpy as np

import repro
import repro.telemetry as telemetry
from repro import MrhsParameters, MrhsStokesianDynamics, SDParameters, StokesianDynamics
from repro.health import HealthMonitor
from repro.resilience import ResilientRunner
from repro.service import JobManager, JobSpec, ServiceConfig
from repro.telemetry import TelemetryHub

from protocol import median, percentile, samples_for_percentile
from workload import Workload

N, PHI, M, STEPS = 32, 0.3, 4, 16
CLIENTS = 4
N_SEEDS = 8
MIN_JOBS = samples_for_percentile(90)
"""Completed jobs the timed window needs, so ten lie beyond p90 (100)."""
MAX_WINDOW_S = 120.0
JOBS_PER_PASS = 16
ORIG_UNITS = 6
"""Original-algorithm units after the window (~0.7 s each)."""
CALIBRATE_EVERY_S = 0.5
"""Wall seconds between host-speed calibrations inside the loop."""
_TERMINAL = {"done", "failed", "shed", "rejected"}


def _digest(positions: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(positions).tobytes()).hexdigest()


class ServiceMix(Workload):
    name = "service_mix"

    def __init__(self, seed: int) -> None:
        super().__init__(seed)
        self.seeds = [N_SEEDS * self.seed + i for i in range(N_SEEDS)]
        self.reference: Dict[int, str] = {}

    def prepare_checks(self, work: Path) -> None:
        """The positions digest of a solo ``ResilientRunner`` run of each
        seed's spec: a job's digest through the service must equal it."""
        for seed in self.seeds:
            spec = self._spec("solo", seed)
            system = repro.random_configuration(spec.n, spec.phi, rng=spec.seed)
            driver = MrhsStokesianDynamics(
                system, SDParameters(dt=spec.dt), MrhsParameters(m=spec.m),
                rng=spec.seed + 1,
            )
            ResilientRunner(driver).run_steps(STEPS)
            self.reference[seed] = _digest(driver.sd.system.positions)

    def _spec(self, name: str, seed: int, **kw) -> JobSpec:
        return JobSpec(name=name, n=N, phi=PHI, m=M, steps=STEPS, seed=seed, **kw)

    def _orig_unit(self) -> float:
        """One pass of Algorithm 1 over the eight specs; returns its time.
        Packing and driver construction stay outside the timed part."""
        drivers = []
        for seed in self.seeds:
            spec = self._spec("orig", seed)
            system = repro.random_configuration(spec.n, spec.phi, rng=spec.seed)
            drivers.append(StokesianDynamics(system, SDParameters(dt=spec.dt),
                                             rng=spec.seed + 1))
        # A calibration between runs, so the clock follows the host's
        # speed within the unit.
        results, elapsed, start = [], 0.0, self.stamp()
        for driver in drivers:
            results.append(driver.run(STEPS))
            end = self.stamp()
            elapsed += end - start
            start = end
        with self.checking():
            for seed, driver, steps in zip(self.seeds, drivers, results):
                self.checks.expect(
                    len(steps) == STEPS and all(s.converged for s in steps)
                    and bool(np.isfinite(driver.system.positions).all()),
                    f"original run of seed {seed}: a solve did not converge "
                    "or positions are not finite",
                )
        return elapsed

    def _manager(self, directory: Path, hub: TelemetryHub) -> JobManager:
        return JobManager(
            directory,
            config=ServiceConfig(quantum=4, checkpoint_every=2),
            telemetry=hub,
            monitor=HealthMonitor(checks=()),
        )

    def setup(self, work: Path) -> Dict[str, Any]:
        hub = TelemetryHub(work / "telemetry")
        telemetry.install(hub)
        st = {"hub": hub, "work": work, "mgr": self._manager(work / "service", hub)}
        # Warm-up: one whole job of each of the specs the window cycles
        # through, drained through the manager by the four clients.  One
        # job alone is ~0.15 s, too short a set-up to time steadily.
        self._loop(st["mgr"], "warm", n_jobs=N_SEEDS)
        return st

    def teardown(self, st) -> None:
        st["mgr"].close()
        st["hub"].close()
        if telemetry.active_hub is st["hub"]:
            telemetry.uninstall()

    def _loop(self, mgr: JobManager, prefix: str, *, n_jobs: int = 0,
              seconds: float = 0.0) -> Dict[str, Any]:
        """The closed loop: ``n_jobs`` jobs in all, or as many as complete
        while the window lasts (at least ``seconds`` and ``MIN_JOBS``).
        Jobs still outstanding when it ends are drained and checked but
        not counted.  Times are raw ``perf_counter`` readings, converted
        once the loop's last calibration bounds them all."""
        outstanding: Dict[str, tuple] = {}
        submitted_at: Dict[str, float] = {}
        finished: List[tuple] = []
        done = 0
        clock = self.clock
        gc.collect()
        self.stamp()
        t_open = calibrated = time.perf_counter()
        t_close = None

        def submit(client: int) -> None:
            k = len(submitted_at)
            spec = self._spec(f"{prefix}{k}", self.seeds[k % N_SEEDS],
                              tenant=f"tenant{client}")
            submitted_at[spec.name] = time.perf_counter()
            job = mgr.submit(spec)
            outstanding[spec.name] = (client, job.job_id, spec.seed)

        def window_open() -> bool:
            if n_jobs:
                return len(submitted_at) < n_jobs
            elapsed = time.perf_counter() - t_open
            return elapsed < MAX_WINDOW_S and (elapsed < seconds or done < MIN_JOBS)

        for client in range(min(CLIENTS, n_jobs or CLIENTS)):
            submit(client)
        while outstanding:
            mgr.run(max_ticks=mgr.clock.now + 2)
            if clock is not None and time.perf_counter() - calibrated >= CALIBRATE_EVERY_S:
                clock.calibrate()
                calibrated = time.perf_counter()
            for row in mgr.table():
                name = row["name"]
                if name not in outstanding or row["state"] not in _TERMINAL:
                    continue
                seen = time.perf_counter()
                client, job_id, seed = outstanding.pop(name)
                if t_close is None:
                    finished.append((submitted_at[name], seen))
                    done += 1
                with self.checking():
                    digest = mgr.jobs[job_id].digest
                    self.checks.expect(
                        row["state"] == "done" and digest == self.reference[seed],
                        f"job {name}: state {row['state']}, digest "
                        f"{(digest or '')[:12]} vs solo {self.reference[seed][:12]}",
                    )
                if t_close is not None:
                    continue
                if window_open():
                    submit(client)
                elif not n_jobs:
                    t_close = time.perf_counter()
                    self.stamp()
        if t_close is None:
            t_close = time.perf_counter()
            self.stamp()

        def span(a: float, b: float, scaled: bool = True) -> float:
            if clock is None:
                return b - a
            return clock.reference(b, scaled) - clock.reference(a, scaled)

        return {
            "elapsed": span(t_open, t_close),
            "elapsed_raw": span(t_open, t_close, False),
            "done": done,
            "turnaround": [span(a, b) for a, b in finished],
            "turnaround_raw": [span(a, b, False) for a, b in finished],
            "submitted_at": submitted_at,
            "preemptions": sum(
                mgr.jobs[j].preemptions for j in mgr.jobs
                if mgr.jobs[j].spec.name in submitted_at
            ),
        }

    def measure(self, st, seconds: float) -> Dict[str, float]:
        res = self._loop(st["mgr"], "w", seconds=seconds)
        n = len(res["turnaround"])
        print(f"# {res['done']} jobs in {res['elapsed']:.2f} s; {n} turnaround samples")
        if n < MIN_JOBS:
            print(f"# warning: p90 has fewer than 10 samples beyond it (n={n})")
        turn = res["turnaround"]
        print(f"# through the service: {res['done'] / res['elapsed']:.4f} jobs/s, "
              f"turnaround p50 {median(turn):.4f} s p90 {percentile(turn, 90):.4f} s")
        raw = res["turnaround_raw"]
        print(f"# raw wall: {res['elapsed_raw']:.2f} s, "
              f"{res['done'] * STEPS / res['elapsed_raw']:.4f} steps/s, "
              f"{res['done'] / res['elapsed_raw']:.4f} jobs/s, turnaround "
              f"p50 {median(raw):.4f} s p90 {percentile(raw, 90):.4f} s")
        gc.collect()
        orig = [self._orig_unit() for _ in range(ORIG_UNITS)]
        print("# original unit s (8 specs x 16 steps): "
              + " ".join(f"{t:.4f}" for t in orig))
        return {
            "steps_per_s": res["done"] * STEPS / res["elapsed"],
            "orig_steps_per_s": N_SEEDS * STEPS / median(orig),
        }

    def count_pass(self, st, tag: str) -> Dict[str, Any]:
        """``JOBS_PER_PASS`` jobs through a fresh manager in its own
        directory, so every pass does identical work."""
        directory = st["work"] / f"pass-{tag}"
        self.label(tag)
        mgr = self._manager(directory, st["hub"])
        try:
            res = self._loop(mgr, tag, n_jobs=JOBS_PER_PASS)
        finally:
            mgr.close()
        try:
            self.label(f"{tag}.orig")
            self._orig_unit()
        finally:
            self.label("")
        return {
            "submitted_at": res["submitted_at"],
            "service.preemptions": res["preemptions"],
            "service.turnaround_samples": len(res["turnaround"]),
            "journal.bytes": (directory / "journal.jsonl").stat().st_size,
            "untraced": {
                "service.jobs_per_s": res["done"] / res["elapsed"],
                "service.turnaround_s_p50": median(res["turnaround"]),
                "service.turnaround_s_p90": percentile(res["turnaround"], 90),
            },
        }
