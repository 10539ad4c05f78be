"""MRHS Stokesian dynamics benchmark.

    python3 mrhsbench/run.py --workload sd_step --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  ``--trace 0`` measures the end-to-end metrics of one workload
with tracing off; ``--trace 1`` runs a fixed amount of the same work with
every layer's public calls timed and reports the per-layer metrics.  The
last line of standard output is one JSON object: ``correct``,
``attempted`` and ``failed`` count the output checks, ``metrics`` maps
each metric to its value and unit.  A wrong output exits with code 1.

End-to-end times are reference-host seconds: wall time scaled to a fixed
reference host speed (``hostspeed.py``), because this shared host's speed
drifts more between runs than any bound worth gating on.  The raw wall
figures are printed beside them.  Per-layer times are wall times of the
traced run.

Workloads (see each module's docstring for why it exists):

* ``sd_step``      -- the full MRHS and original step paths (assembly-bound);
* ``solve_replay`` -- the solver phases alone on a recorded trajectory;
* ``service_mix``  -- four tenants through the job service (platform-bound).
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK_DIR = ROOT / ".mrhsbench_work"
OUT_DIR = ROOT / ".mrhsbench_out"

# Single-threaded BLAS: on a 2-core host a second BLAS thread competes
# with the interpreter and with neighbouring processes, which made
# absolute rates drift more than the single-threaded ones.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
THREADS = "1"

E2E_UNITS = {
    "setup_s": "s", "steps_per_s": "1/s", "orig_steps_per_s": "1/s",
    "peak_rss_mb": "MB",
}
"""Every workload reports every one of these."""
WORKLOADS = {
    "sd_step": ("sd_step", "SdStep"),
    "solve_replay": ("solve_replay", "SolveReplay"),
    "service_mix": ("service_mix", "ServiceMix"),
}


def host_fingerprint() -> dict:
    import numpy
    import scipy

    info = {"nproc": os.cpu_count(), "python": sys.version.split()[0],
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                info["cpu"] = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    info["cache_bytes_cpu0"] = cache_bytes()
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return info


def cache_bytes() -> dict:
    """Data cache sizes seen by CPU 0, in bytes."""
    out = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size[-1:] in "KM":
            out[f"L{level}"] = int(size[:-1]) << (10 if size[-1] == "K" else 20)
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def timed_run(wl, work: Path, seconds: float) -> dict:
    from hostspeed import HostClock
    from protocol import median

    wl.prepare_checks(work / "reference")
    wl.clock = HostClock()
    setups, st = [], None
    for rep in range(wl.setup_reps):
        if st is not None:
            wl.teardown(st)
            st = None
        # A fresh kernel cache per set-up, so compile work shows in it.
        os.environ["REPRO_CACHE_DIR"] = str(work / f"setup{rep}" / "kernel-cache")
        gc.collect()
        t0 = wl.stamp()
        st = wl.setup(work / f"setup{rep}")
        setups.append(wl.stamp() - t0)
    print("# setup_s samples: " + ", ".join(f"{t:.3f}" for t in setups))
    wall = time.perf_counter()
    try:
        metrics = wl.measure(st, seconds)
    finally:
        wl.teardown(st)
    factors = wl.clock.factors
    print(f"# window {time.perf_counter() - wall:.1f} s wall; host speed factor over "
          f"{len(factors)} calibrations: median {median(factors):.3f}, "
          f"min {min(factors):.3f}, max {max(factors):.3f}; {wl.clock.dropped} "
          "dropped because another thread of the process used CPU")
    metrics["setup_s"] = median(setups)
    metrics["peak_rss_mb"] = peak_rss_mb()
    return metrics


def traced_run(wl, work: Path, seed: int) -> dict:
    import layers
    from protocol import median
    from spans import NAME, PARENT, UNIT, SpanRecorder, write_spans

    rec = SpanRecorder()
    wl.rec = rec
    wl.prepare_checks(work / "reference")
    os.environ["REPRO_CACHE_DIR"] = str(work / "setup" / "kernel-cache")
    layers.install(rec)
    st = None
    try:
        gc.collect()
        rec.active = True
        t0 = time.perf_counter()
        st = wl.setup(work / "setup")
        with rec.paused("bench.snapshot"):
            snap = wl.snapshot(st)
        extra = wl.count_pass(st, "a")
        wall = time.perf_counter() - t0
        region = rec.take()
        # The same work again, traced: its counts must repeat exactly.
        rec.active = False
        wl.restore(st, snap)
        rec.active = True
        t_b = time.perf_counter()
        wl.count_pass(st, "b")
        t_b = time.perf_counter() - t_b
        spans_b = rec.take()
        # And once untraced, for the tracing overhead.
        rec.active = False
        rec.unpatch()
        wl.restore(st, snap)
        t_c = time.perf_counter()
        untraced = wl.count_pass(st, "c")
        t_c = time.perf_counter() - t_c
    finally:
        rec.unpatch()
        if st is not None:
            wl.teardown(st)

    pass_a = [s for s in region if s[UNIT].startswith("a")]
    counts_a, counts_b = layers.exact_counts(pass_a), layers.exact_counts(spans_b)
    diff = sorted(k for k in set(counts_a) | set(counts_b)
                  if counts_a.get(k) != counts_b.get(k))
    wl.checks.expect(not diff, "exact counts differ between two identical passes: "
                     + ", ".join(f"{k} {counts_a.get(k)} vs {counts_b.get(k)}" for k in diff))
    print("# exact counts per pass: " + json.dumps(counts_a, sort_keys=True))

    measured = {k: v for k, v in extra.items() if "." in k}
    measured["exact.mismatches"] = len(diff)
    measured["trace.overhead_frac"] = t_b / t_c - 1.0
    measured.update(untraced.get("untraced", {}))
    times = untraced.get("times")
    if times:
        measured["mrhs.base_unit_s"] = median(times["orig"])
        measured["mrhs.speedup"] = median(times["orig"]) / median(times["mrhs"])
    if "mrhs.fallback_columns" not in measured:
        measured["mrhs.fallback_columns"] = sum(
            1 for s in pass_a
            if s[NAME] == "cg" and s[PARENT] >= 0
            and region[s[PARENT]][NAME] == "mrhs.solve_auxiliary"
        )
    if "submitted_at" in extra:
        waits = layers.queue_waits(pass_a, extra["submitted_at"])
        measured["service.queue_wait_s_p50"] = median(waits) if waits else 0.0
    metrics = layers.layer_metrics(region, wall, measured)

    print(f"# traced region (set-up + pass a): {wall:.3f} s; "
          f"pass b traced {t_b:.3f} s vs pass c untraced {t_c:.3f} s")
    print(layers.render_table(region, wall))
    size = metrics["matrix.mib_computed"] * (1 << 20)
    caches = cache_bytes()
    print(f"# largest matrix multiplied: {size / (1 << 20):.2f} MiB computed; "
          + ", ".join(f"{k} {v / (1 << 20):g} MiB: "
                      + ("fits" if size <= v else "exceeds")
                      for k, v in caches.items() if k != "L1"))
    if times:
        print(f"# mrhs.speedup = original unit {median(times['orig']):.4f} s / "
              f"MRHS unit {median(times['mrhs']):.4f} s (untraced pass)")
    write_spans(OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl", region + spans_b)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {src}; run from a source checkout",
              file=sys.stderr)
        return 2
    # Before numpy is imported, so the BLAS pools are sized by them.
    for var in THREAD_VARS:
        os.environ[var] = THREADS
    work = WORK_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(HERE))

    import importlib

    module, cls = WORKLOADS[args.workload]
    print("# host: " + json.dumps(host_fingerprint(), sort_keys=True))
    wl = getattr(importlib.import_module(module), cls)(args.seed)
    try:
        if args.trace:
            import layers

            values = traced_run(wl, work, args.seed)
            units = layers.PER_LAYER
        else:
            values = timed_run(wl, work, args.seconds)
            units = E2E_UNITS
            values = {k: values[k] for k in E2E_UNITS}
    finally:
        print(f"# REPRO_CACHE_DIR={os.environ.get('REPRO_CACHE_DIR')} (removed)")
        shutil.rmtree(work, ignore_errors=True)

    for name, value in values.items():
        print(f"{name:<28}{value:>16.6g} {units[name]}")
    checks = wl.checks
    for message in checks.messages:
        print(f"# FAILED: {message}")
    print(f"# checks: {checks.attempted} attempted, {checks.failed} failed")
    correct = checks.failed == 0 and checks.attempted > 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
