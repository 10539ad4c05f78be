"""Engine fault chaos sweep: seeded campaigns plus verification cost.

The acceptance bar of the self-healing engine runtime (ISSUE 7 /
DESIGN.md §14), in two halves:

1. **Every campaign lands bit-identical.**  Seeded campaigns strike
   each engine fault site — ``engine.multiply`` (corrupted, scaled,
   and NaN-poisoned products), ``engine.compile`` and ``engine.load``
   — through the resilient runner on an MRHS trajectory.  Each run
   must *complete* and its final positions must be bit-identical to a
   clean run on the engine the fallback ladder lands on.
2. **Shadow verification is nearly free.**  At the default cadence
   (every 64th call fully re-checked at the first and every 16th
   verification, sampled rows otherwise) the gspmv wall-clock on the
   bench matrix must grow by **under 3%** versus a disabled watch.

Results persist as ``BENCH_enginefault.json`` (uploaded by the CI
``engine-chaos`` job)::

    PYTHONPATH=src python benchmarks/bench_enginefault.py
"""

from __future__ import annotations

import os
import tempfile
import time
from pathlib import Path

import numpy as np

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import FaultPlan, FaultSpec, ResilientRunner
from repro.sparse import (
    DEFAULT_VERIFY_CADENCE,
    available_engines,
    get_default_registry,
    get_engine_watch,
    set_default_engine,
)
from repro.sparse import kernels_cgen
from repro.sparse.enginewatch import EngineWatch
from repro.sparse.gspmv import gspmv_into
from repro.stokesian.dynamics import SDParameters
from repro.stokesian.packing import random_configuration

try:
    from benchmarks._cases import scaled_paper_matrix
    from benchmarks._emit import emit_report, utc_now
except ImportError:  # run as a script: benchmarks/ itself is sys.path[0]
    from _cases import scaled_paper_matrix
    from _emit import emit_report, utc_now

N, PHI, M, N_STEPS = 24, 0.2, 4, 6
#: Wrong-result seeds per mutate kind (each seeds the corruption rng).
SEEDS_PER_KIND = 3
OVERHEAD_BUDGET = 0.03
OVERHEAD_M = 8
#: Two full cadence periods per timing rep: the measured window
#: contains the same mix of unverified / sampled calls a long run sees.
OVERHEAD_CALLS = 2 * DEFAULT_VERIFY_CADENCE

CONFIG = {
    "n": N,
    "phi": PHI,
    "m": M,
    "n_steps": N_STEPS,
    "seeds_per_kind": SEEDS_PER_KIND,
    "verify_cadence": DEFAULT_VERIFY_CADENCE,
    "overhead_budget": OVERHEAD_BUDGET,
    "overhead_m": OVERHEAD_M,
}


def _mrhs(seed=0):
    system = random_configuration(N, PHI, rng=seed)
    return MrhsStokesianDynamics(
        system, SDParameters(), MrhsParameters(m=M), rng=seed + 1
    )


def _run(engine: str, plan=None, cadence: int = 0) -> np.ndarray:
    prev = set_default_engine(engine)
    watch = get_engine_watch()
    watch.reset()
    get_default_registry()._warned_fallback.clear()
    try:
        if cadence:
            watch.configure(cadence=cadence, full_every=1)
        driver = _mrhs()
        ResilientRunner(driver, injector=plan).run_steps(N_STEPS)
        return np.array(driver.sd.system.positions, copy=True)
    finally:
        set_default_engine(prev)


def run_campaigns() -> dict:
    """All three engine fault sites, each campaign checked bit-exact."""
    landing = EngineWatch().next_rung("cgen", set(available_engines()))
    reference = _run(landing)
    watch = get_engine_watch()

    completed = matched = quarantines = fallbacks = verify_fails = 0
    campaigns = []

    # Site 1: engine.multiply — wrong results of three flavours.
    for kind in ("corrupt", "scale", "nan"):
        for seed in range(SEEDS_PER_KIND):
            plan = FaultPlan(
                specs=(
                    FaultSpec(
                        site="engine.multiply",
                        kind=kind,
                        at={"engine": "cgen"},
                        times=None,
                    ),
                ),
                seed=seed,
            )
            final = _run("cgen", plan=plan, cadence=1)
            completed += 1
            quarantines += watch.counts.get("quarantine", 0)
            verify_fails += watch.counts.get("verify_fail", 0)
            if np.array_equal(final, reference):
                matched += 1
            campaigns.append(f"multiply:{kind}:{seed}")

    # Sites 2 and 3: engine.compile and engine.load, in a scratch
    # kernel cache so the campaign really compiles (and really fails).
    for site in ("engine.compile", "engine.load"):
        with tempfile.TemporaryDirectory() as scratch:
            os.environ["REPRO_CACHE_DIR"] = scratch
            kernels_cgen._reset()
            try:
                plan = FaultPlan(
                    specs=(FaultSpec(site=site, kind="raise", times=None),)
                )
                final = _run("cgen", plan=plan)
                completed += 1
                fallbacks += watch.counts.get("fallback", 0)
                if np.array_equal(final, reference):
                    matched += 1
                campaigns.append(site)
            finally:
                del os.environ["REPRO_CACHE_DIR"]
                kernels_cgen._reset()

    watch.reset()
    return {
        "landing_engine": landing,
        "campaigns_completed": completed,
        "campaigns_matching_reference": matched,
        "campaigns": campaigns,
        "quarantines": quarantines,
        "verify_failures": verify_fails,
        "fallback_events": fallbacks,
    }


def measure_overhead() -> dict:
    """Default-cadence shadow verification vs a disabled watch.

    Same registry, same engine, same buffers; only the watch cadence
    differs.  Interleaved best-of timing keeps scheduler noise out of
    the verdict.
    """
    A = scaled_paper_matrix("mat2")
    rng = np.random.default_rng(11)
    X = rng.standard_normal((A.n_cols, OVERHEAD_M))
    out = np.empty((A.n_rows, OVERHEAD_M))
    watch = get_engine_watch()
    watch.reset()

    gspmv_into(A, X, out)  # warm the kernel and the buffers

    def timed(cadence: int) -> float:
        watch.reset()
        if cadence:
            watch.configure(cadence=cadence)
        best = float("inf")
        for _ in range(3):
            t0 = time.perf_counter()
            for _ in range(OVERHEAD_CALLS):
                gspmv_into(A, X, out)
            best = min(best, (time.perf_counter() - t0) / OVERHEAD_CALLS)
        return best

    baseline = timed(0)
    verified = timed(DEFAULT_VERIFY_CADENCE)
    watch.reset()
    overhead = verified / baseline - 1.0
    return {
        "baseline_seconds_per_call": baseline,
        "verified_seconds_per_call": verified,
        "verification_overhead": overhead,
        "overhead_under_budget": bool(overhead <= OVERHEAD_BUDGET),
    }


def main() -> int:
    campaigns = run_campaigns()
    overhead = measure_overhead()
    all_matched = (
        campaigns["campaigns_matching_reference"]
        == campaigns["campaigns_completed"]
    )
    passed = all_matched and overhead["overhead_under_budget"]
    metrics = {**campaigns, **overhead}
    paths = emit_report(
        "enginefault",
        config=CONFIG,
        metrics=metrics,
        timestamp=utc_now(),
        passed=passed,
        out_paths=[Path.cwd() / "BENCH_enginefault.json"],
    )
    for p in paths:
        print(f"wrote {p}")
    print(
        f"campaigns: {campaigns['campaigns_matching_reference']}"
        f"/{campaigns['campaigns_completed']} bit-identical; "
        f"verification overhead "
        f"{overhead['verification_overhead'] * 100:+.2f}% "
        f"(budget {OVERHEAD_BUDGET * 100:.0f}%)"
    )
    return 0 if passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
