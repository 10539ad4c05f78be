"""Command-line interface: ``python -m repro <command>``.

Small, scriptable entry points over the library's main workflows:

``simulate``
    Run a matched MRHS-vs-original comparison and print the iteration
    and timing summary (the paper's headline experiment, any size).
``roofline``
    Evaluate the GSPMV performance model for a matrix shape on the
    paper's machines (or a host-calibrated one).
``pack``
    Build and save a packed configuration (reusable workload).
``sweep``
    Sweep the number of right-hand sides and report the best m.
``resume``
    Continue a checkpointed ``simulate`` run (bit-exact) from the
    newest loadable checkpoint in a directory, or a specific file.
``health``
    Print the :class:`~repro.health.monitor.HealthReport` embedded in a
    checkpoint — the post-mortem of a dead or degraded run.
``trace``
    Render the span tree and per-phase wall-time totals recorded in a
    telemetry directory (``simulate --telemetry-dir``).
``report``
    Metrics summary plus the measured-vs-model roofline table joining
    recorded GSPMV/SPMV spans against :mod:`repro.perfmodel`.  Runs
    that exercised the distributed fault machinery additionally get a
    failover table (timeouts, retries, repairs, rank recoveries).
``distsim``
    Run a distributed power iteration on the simulated cluster, with
    optional injected channel faults (``--net-faults``) and
    checkpoint-backed rank recovery (``--checkpoint-every``).
``submit``
    Queue a job spec into a service directory's inbox (picked up by
    the next ``serve``).
``serve``
    Drain a service directory through the fault-tolerant
    :class:`~repro.service.manager.JobManager`: admission control,
    priority-with-aging scheduling, quantum preemption, retry with
    backoff, overload shedding — resumable after a kill via the job
    journal.
``jobs``
    Read-only view of a service directory's job journal (state,
    progress, digests) without constructing a manager.  ``--watch``
    re-renders on an interval (as does ``report --watch``).
``top``
    Live view of a telemetry directory: the exporter's newest metrics
    snapshot (queue depths, per-tenant throughput and SLO burn, engine
    trouble) plus the tail of the unified event bus.
``faults``
    ``faults list`` prints the catalogue of registered fault
    injection sites across every layer.

``simulate`` grows a resilient mode: passing ``--checkpoint-every`` /
``--checkpoint-dir`` runs the MRHS driver under the
:class:`~repro.resilience.runner.ResilientRunner` with periodic
checkpoints, so a killed process can be continued with ``resume``.
``--health-checks`` attaches an invariant :class:`HealthMonitor`
(observe only); ``--reject-bad-steps`` additionally lets fatal
verdicts reject steps (retry with dt halved, MRHS chunk quarantine).
Both imply the resilient runner, as does ``--telemetry-dir`` (which
attaches a :class:`~repro.telemetry.TelemetryHub` writing
``trace.jsonl`` + ``metrics.json`` for ``trace`` / ``report``).
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import List, Optional


__all__ = ["main", "build_parser"]


#: ``--engine`` vocabulary: the auto-selector plus every concrete
#: kernel engine (kept in sync with ``repro.sparse.kernels.ENGINE_NAMES``
#: by a test; not imported here so ``--help`` stays dependency-light).
ENGINE_CHOICES = ("auto", "blocked", "tiled", "scipy", "cgen")


def _add_watch_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--watch",
        type=float,
        nargs="?",
        const=2.0,
        default=None,
        metavar="SECONDS",
        help="re-render from the live exporter snapshot every SECONDS "
        "(default 2) until interrupted",
    )
    # Bounded refresh count for tests/scripts (watch forever otherwise).
    sub.add_argument(
        "--watch-count", type=int, default=None, help=argparse.SUPPRESS
    )


def _add_engine_argument(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--engine",
        choices=ENGINE_CHOICES,
        default=None,
        help="kernel engine for all SPMV/GSPMV products (default: "
        "registry default; 'auto' micro-benchmarks per machine and "
        "caches the choice; unavailable compiled engines demote down "
        "the fallback ladder)",
    )
    sub.add_argument(
        "--verify-kernels",
        type=int,
        nargs="?",
        const=-1,
        default=None,
        metavar="CADENCE",
        help="shadow-check every CADENCE-th kernel product against the "
        "reference engine and quarantine miscomparing engines (no "
        "value: the default cadence; 0 disables)",
    )


def _add_resource_arguments(sub: argparse.ArgumentParser) -> None:
    """Resource-pressure knobs shared by every telemetry-writing
    command (see ``repro.resources``)."""
    sub.add_argument(
        "--stream-budget",
        default=None,
        metavar="SIZE[:KEEP]",
        help="rotation budget for the telemetry JSONL streams "
        "(trace/events/metrics): max active-segment size plus sealed "
        "segments kept, e.g. '4m:8'; '0' disables rotation "
        "(default 16m:4)",
    )
    sub.add_argument(
        "--spill-dir",
        default=None,
        metavar="DIR",
        help="secondary directory (ideally another filesystem) that "
        "checkpoints fail over to when the primary write hits "
        "ENOSPC/EDQUOT even after junior telemetry is evicted",
    )
    sub.add_argument(
        "--mem-watermark-mb",
        type=float,
        default=None,
        metavar="MIB",
        help="warn (and count resources.memory_breaches) when resident "
        "set size crosses this watermark",
    )


def _stream_budget(args):
    """Resolve ``--stream-budget`` to the hub's ``stream_budget``
    argument: the default sentinel when unset, else a parsed
    :class:`~repro.resources.StreamBudget` (or ``None`` for '0')."""
    raw = getattr(args, "stream_budget", None)
    if raw is None:
        return "default"
    from repro.resources import StreamBudget

    return StreamBudget.parse(raw)


def _memory_guard(args):
    raw = getattr(args, "mem_watermark_mb", None)
    if raw is None:
        return None
    from repro.resources import MemoryGuard

    return MemoryGuard(int(raw * (1 << 20)))


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="MRHS Stokesian dynamics reproduction (IPDPS 2012)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="MRHS vs original comparison")
    sim.add_argument("--n", type=int, default=100, help="particles")
    sim.add_argument("--phi", type=float, default=0.4, help="volume occupancy")
    sim.add_argument("--m", type=int, default=8, help="right-hand sides")
    sim.add_argument("--chunks", type=int, default=1, help="MRHS chunks to run")
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument(
        "--dt", type=float, default=0.05, help="time step (default 0.05)"
    )
    sim.add_argument(
        "--health-checks",
        action="store_true",
        help="attach invariant health monitoring (implies resilient runner)",
    )
    sim.add_argument(
        "--reject-bad-steps",
        action="store_true",
        help="reject steps violating fatal invariants (implies "
        "--health-checks)",
    )
    sim.add_argument(
        "--steps",
        type=int,
        default=None,
        help="total time steps for resilient runs (default chunks*m)",
    )
    sim.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="checkpoint every N steps (enables the resilient runner)",
    )
    sim.add_argument(
        "--checkpoint-dir",
        default=None,
        help="checkpoint directory (enables the resilient runner)",
    )
    sim.add_argument(
        "--telemetry-dir",
        default=None,
        help="record span trace + metrics into this directory "
        "(enables the resilient runner)",
    )
    sim.add_argument(
        "--out", default=None, help="save the final configuration (.npz)"
    )
    _add_engine_argument(sim)
    _add_resource_arguments(sim)
    # Simulated process kill after a given global step (failure drills
    # and the kill-and-resume tests).
    sim.add_argument("--die-after", type=int, default=None, help=argparse.SUPPRESS)
    # Inject NaN into the Brownian forcing at a given step (health
    # drills / the health-chaos CI job).
    sim.add_argument("--nan-at", type=int, default=None, help=argparse.SUPPRESS)

    res = sub.add_parser("resume", help="continue a checkpointed run")
    res.add_argument(
        "checkpoint", help="checkpoint .npz file or checkpoint directory"
    )
    res.add_argument(
        "--steps",
        type=int,
        required=True,
        help="run until this global step index",
    )
    res.add_argument(
        "--checkpoint-every", type=int, default=0, metavar="N",
        help="keep checkpointing every N steps while resumed",
    )
    res.add_argument(
        "--telemetry-dir",
        default=None,
        help="continue recording telemetry into this directory "
        "(trace appends; counters restore from the checkpoint)",
    )
    res.add_argument(
        "--out", default=None, help="save the final configuration (.npz)"
    )
    _add_engine_argument(res)
    _add_resource_arguments(res)
    res.add_argument("--die-after", type=int, default=None, help=argparse.SUPPRESS)

    roof = sub.add_parser("roofline", help="GSPMV model for a matrix shape")
    roof.add_argument("--nb", type=int, default=300_000, help="block rows")
    roof.add_argument("--bpr", type=float, default=25.0, help="blocks per row")
    roof.add_argument(
        "--machine", choices=["wsm", "snb", "host"], default="wsm"
    )
    roof.add_argument("--m-max", type=int, default=32)

    pack = sub.add_parser("pack", help="build and save a configuration")
    pack.add_argument("--n", type=int, default=300)
    pack.add_argument("--phi", type=float, default=0.3)
    pack.add_argument("--seed", type=int, default=0)
    pack.add_argument("--out", required=True, help="output .npz path")

    sweep = sub.add_parser("sweep", help="sweep m for a system")
    sweep.add_argument("--n", type=int, default=100)
    sweep.add_argument("--phi", type=float, default=0.4)
    sweep.add_argument(
        "--m-values", type=int, nargs="+", default=[2, 4, 8, 16]
    )
    sweep.add_argument("--seed", type=int, default=0)
    _add_engine_argument(sweep)

    health = sub.add_parser(
        "health", help="print the health report inside a checkpoint"
    )
    health.add_argument(
        "checkpoint", help="checkpoint .npz file or checkpoint directory"
    )
    health.add_argument(
        "--events",
        type=int,
        default=10,
        metavar="N",
        help="show the last N non-OK events (default 10)",
    )

    trace = sub.add_parser(
        "trace", help="render the span tree of a telemetry directory"
    )
    trace.add_argument(
        "run", help="telemetry directory (or a trace.jsonl file)"
    )
    trace.add_argument(
        "--depth",
        type=int,
        default=None,
        metavar="D",
        help="limit the tree to D levels",
    )

    rep = sub.add_parser(
        "report", help="metrics summary + measured-vs-model roofline"
    )
    rep.add_argument("run", help="telemetry directory")
    _add_watch_arguments(rep)
    rep.add_argument(
        "--machine",
        choices=["wsm", "snb", "host"],
        default="wsm",
        help="machine model to join measurements against (default wsm)",
    )
    rep.add_argument(
        "--threshold",
        type=float,
        default=0.25,
        help="flag rows deviating more than this fraction (default 0.25)",
    )
    fmt = rep.add_mutually_exclusive_group()
    fmt.add_argument(
        "--json", action="store_true", help="emit a single JSON document"
    )
    fmt.add_argument(
        "--markdown", action="store_true", help="emit a markdown document"
    )

    dist = sub.add_parser(
        "distsim",
        help="distributed power iteration on the simulated cluster",
    )
    dist.add_argument("--nb", type=int, default=24, help="block rows")
    dist.add_argument(
        "--block-size", type=int, default=3, help="block size (default 3)"
    )
    dist.add_argument("--m", type=int, default=4, help="right-hand sides")
    dist.add_argument("--ranks", type=int, default=4, help="simulated ranks")
    dist.add_argument("--steps", type=int, default=10, help="power-iteration steps")
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument(
        "--net-faults",
        default=None,
        metavar="SPEC",
        help="injected channel faults: ';'-separated entries "
        "kind[:key=val,...] with kind in drop/delay/duplicate/corrupt/"
        "crash, e.g. 'drop:src=0,dest=1,seq=2;crash:rank=1,step=5'",
    )
    dist.add_argument(
        "--deadline",
        type=int,
        default=4,
        help="halo receive deadline in scheduler sweeps (default 4)",
    )
    dist.add_argument(
        "--max-retries",
        type=int,
        default=3,
        help="resend rounds before a peer is declared dead (default 3)",
    )
    dist.add_argument(
        "--checkpoint-every",
        type=int,
        default=0,
        metavar="N",
        help="write a per-rank shard wave every N steps "
        "(enables rank recovery)",
    )
    dist.add_argument(
        "--checkpoint-dir",
        default=None,
        help="shard directory (enables rank recovery)",
    )
    dist.add_argument(
        "--max-recoveries",
        type=int,
        default=1,
        help="rank-recovery budget (default 1)",
    )
    dist.add_argument(
        "--telemetry-dir",
        default=None,
        help="record span trace + metrics (feeds the report failover table)",
    )

    serve = sub.add_parser(
        "serve",
        help="run the fault-tolerant job service over a directory",
    )
    serve.add_argument("dir", help="service directory (journal + checkpoints)")
    serve.add_argument(
        "--jobs",
        default=None,
        metavar="FILE",
        help="JSON file with a list of job specs to submit before draining",
    )
    serve.add_argument(
        "--quantum",
        type=int,
        default=0,
        help="steps per dispatch before preemption (0 = run to completion)",
    )
    serve.add_argument(
        "--queue-limit", type=int, default=64, help="max pending jobs"
    )
    serve.add_argument(
        "--shed-watermark",
        type=int,
        default=None,
        help="shed lowest-priority pending jobs above this backlog",
    )
    serve.add_argument(
        "--mem-budget-mb",
        type=float,
        default=None,
        help="aggregate memory budget for admitted jobs (MiB)",
    )
    serve.add_argument(
        "--max-attempts",
        type=int,
        default=3,
        help="job retry budget after worker crashes (default 3)",
    )
    serve.add_argument(
        "--checkpoint-every",
        type=int,
        default=4,
        help="per-job checkpoint cadence in steps (default 4)",
    )
    serve.add_argument(
        "--max-ticks",
        type=int,
        default=None,
        help="stop the scheduler after this many logical ticks",
    )
    serve.add_argument(
        "--telemetry-dir",
        default=None,
        help="record service metrics (feeds the report jobs section)",
    )
    serve.add_argument(
        "--export-interval",
        type=float,
        default=None,
        metavar="SECONDS",
        help="metrics exporter cadence for --telemetry-dir (default 1.0)",
    )
    serve.add_argument(
        "--slo-target",
        type=int,
        default=None,
        metavar="TICKS",
        help="per-tenant submit-to-done latency SLO in logical ticks "
        "(default 32)",
    )
    serve.add_argument(
        "--json", action="store_true", help="emit the job table as JSON"
    )
    _add_resource_arguments(serve)
    serve.add_argument(
        "--tenant-quota",
        action="append",
        default=None,
        metavar="TENANT=SPEC",
        help="hard per-tenant quota, e.g. 'acme=jobs=2,mem=256m,disk=64m' "
        "(repeatable; keys: jobs = concurrent running, mem = resident "
        "bytes of live jobs, disk = bytes under the tenant's job dirs)",
    )
    serve.add_argument(
        "--compact-journal-kb",
        type=int,
        default=None,
        metavar="KIB",
        help="snapshot-compact the job journal when it exceeds this "
        "size (default 1024; 0 disables compaction)",
    )

    submit = sub.add_parser(
        "submit", help="queue one job spec for a service directory"
    )
    submit.add_argument("dir", help="service directory")
    submit.add_argument("--name", required=True, help="unique job name")
    submit.add_argument("--n", type=int, default=24, help="particles")
    submit.add_argument(
        "--phi", type=float, default=0.2, help="volume occupancy"
    )
    submit.add_argument("--m", type=int, default=4, help="right-hand sides")
    submit.add_argument("--steps", type=int, default=8, help="time steps")
    submit.add_argument("--seed", type=int, default=0)
    submit.add_argument("--dt", type=float, default=0.05)
    submit.add_argument(
        "--priority", type=int, default=0, help="larger runs sooner"
    )
    submit.add_argument(
        "--tenant",
        default="default",
        help="billing/SLO identity the job's latency counts against",
    )
    submit.add_argument(
        "--deadline",
        type=int,
        default=None,
        help="ticks after submission by which the job must be admitted",
    )

    jobs = sub.add_parser(
        "jobs", help="read-only job table from a service journal"
    )
    jobs.add_argument("dir", help="service directory (or journal path)")
    jobs.add_argument(
        "--json", action="store_true", help="emit the job table as JSON"
    )
    _add_watch_arguments(jobs)

    top = sub.add_parser(
        "top",
        help="live view of a telemetry directory (exporter snapshot "
        "+ unified event tail)",
    )
    top.add_argument("run", help="telemetry directory")
    top.add_argument(
        "--interval",
        type=float,
        default=2.0,
        metavar="SECONDS",
        help="refresh period (default 2)",
    )
    top.add_argument(
        "--once", action="store_true", help="render one frame and exit"
    )
    top.add_argument(
        "--iterations", type=int, default=None, help=argparse.SUPPRESS
    )
    top.add_argument(
        "--events",
        type=int,
        default=8,
        metavar="N",
        help="show the last N bus events (default 8)",
    )

    faults = sub.add_parser(
        "faults", help="inspect the fault-injection machinery"
    )
    faults.add_argument(
        "action", choices=["list"], help="'list' prints every fault site"
    )
    faults.add_argument(
        "--json", action="store_true", help="emit the catalogue as JSON"
    )
    return parser


def _print_run_summary(driver, report, manager, out, monitor=None) -> None:
    import hashlib

    import numpy as np

    sd = driver.sd if hasattr(driver, "sd") else driver
    print(
        f"completed {report.steps_completed} steps "
        f"(global step {sd.step_index}); retries={report.retries}, "
        f"dt_backoffs={report.dt_backoffs}, "
        f"quarantines={report.quarantines}, "
        f"degradations={report.degradations or '[]'}"
    )
    if monitor is not None:
        print(monitor.report.summary())
        if report.rejected_checks:
            print(f"rejected by invariants: {sorted(set(report.rejected_checks))}")
    if manager is not None and manager.latest() is not None:
        print(f"latest checkpoint: {manager.latest()}")
    digest = hashlib.sha256(
        np.ascontiguousarray(sd.system.positions).tobytes()
    ).hexdigest()
    print(f"positions sha256: {digest}")
    if out:
        from repro.io import save_system

        save_system(out, sd.system)
        print(f"saved final configuration to {out}")


def _kill_plan(args):
    from repro.resilience import FaultPlan, FaultSpec

    specs = []
    if args.die_after is not None:
        specs.append(
            FaultSpec(site="runner.abort", at={"step": int(args.die_after)})
        )
    if getattr(args, "nan_at", None) is not None:
        specs.append(
            FaultSpec(
                site="brownian.forcing",
                kind="nan",
                at={"step": int(args.nan_at)},
                times=1,
            )
        )
    if not specs:
        return None
    return FaultPlan(
        specs=tuple(specs),
        seed=args.seed if hasattr(args, "seed") else 0,
    )


def _make_hub(args):
    """Build a ``TelemetryHub`` from ``--telemetry-dir``, or ``None``."""
    if getattr(args, "telemetry_dir", None) is None:
        return None
    from repro.telemetry import TelemetryHub

    kwargs = {
        "stream_budget": _stream_budget(args),
        "spill_dir": getattr(args, "spill_dir", None),
    }
    interval = getattr(args, "export_interval", None)
    if interval is not None:
        kwargs["export_interval"] = interval
    return TelemetryHub(args.telemetry_dir, **kwargs)


def _watch_loop(render, *, interval: float, count: Optional[int]) -> int:
    """Run ``render`` every ``interval`` seconds ``count`` times
    (forever when ``count`` is None, until interrupted)."""
    import time as _time

    done = 0
    while True:
        if done and sys.stdout.isatty():  # fresh frame between renders
            print("\x1b[2J\x1b[H", end="")
        code = render()
        done += 1
        if count is not None and done >= count:
            return code
        try:
            _time.sleep(interval)
        except KeyboardInterrupt:
            return 0


def _close_hub(hub, **attrs) -> None:
    if hub is not None:
        import repro.telemetry as _telemetry

        hub.close(**attrs)
        if _telemetry.active_hub is hub:
            _telemetry.uninstall()


def _simulate_resilient(args) -> int:
    from repro import (
        HealthMonitor,
        MrhsParameters,
        MrhsStokesianDynamics,
        SDParameters,
        random_configuration,
    )
    from repro.resilience import (
        CheckpointManager,
        ResilienceExhausted,
        ResilientRunner,
        SimulationKilled,
    )
    from repro.telemetry import NULL_HUB

    n_steps = args.steps if args.steps is not None else args.chunks * args.m
    system = random_configuration(args.n, args.phi, rng=args.seed)
    hub = _make_hub(args)
    driver = MrhsStokesianDynamics(
        system,
        SDParameters(dt=args.dt),
        MrhsParameters(m=args.m),
        rng=args.seed + 1,
        telemetry=NULL_HUB if hub is None else hub,
    )
    manager = None
    if args.checkpoint_every or args.checkpoint_dir is not None:
        manager = CheckpointManager(
            args.checkpoint_dir or "checkpoints",
            governor=None if hub is None else hub.governor,
            spill_dir=args.spill_dir,
        )
    monitor = (
        HealthMonitor()
        if (args.health_checks or args.reject_bad_steps)
        else None
    )
    runner = ResilientRunner(
        driver,
        manager=manager,
        checkpoint_every=args.checkpoint_every,
        injector=_kill_plan(args),
        monitor=monitor,
        reject_on_fatal=args.reject_bad_steps,
        memory_guard=_memory_guard(args),
    )
    try:
        try:
            report = runner.run_steps(n_steps)
        except SimulationKilled as exc:
            if hub is not None:
                hub.dump_flight("simulation-killed", error=str(exc)[:160])
            _close_hub(hub, killed=True)
            hub = None
            print(f"killed: {exc}; checkpoints remain in {manager.directory}")
            return 3
        except ResilienceExhausted as exc:
            if hub is not None:
                hub.dump_flight("resilience-exhausted", error=str(exc)[:160])
            print(f"aborted: {exc}", file=sys.stderr)
            if monitor is not None:
                print(monitor.report.summary(), file=sys.stderr)
                for r in monitor.report.fatal_events():
                    print(
                        f"  FATAL {r.check} at step {r.step_index}: {r.message}",
                        file=sys.stderr,
                    )
            return 4
    finally:
        _close_hub(hub)
    _print_run_summary(driver, report, manager, args.out, monitor=monitor)
    if args.telemetry_dir is not None:
        print(f"telemetry written to {args.telemetry_dir}")
    return 0


def _cmd_resume(args) -> int:
    from pathlib import Path

    from repro.resilience import (
        CheckpointManager,
        ResilientRunner,
        SimulationKilled,
        resume_driver,
    )

    hub = _make_hub(args)
    ckpt_kwargs = {
        "governor": None if hub is None else hub.governor,
        "spill_dir": args.spill_dir,
    }
    target = Path(args.checkpoint)
    if target.is_dir():
        manager = CheckpointManager(target, **ckpt_kwargs)
        state, meta, path = manager.load_latest()
    else:
        manager = CheckpointManager(target.parent, **ckpt_kwargs)
        state, meta = manager.load(target)
        path = target
    driver = resume_driver(state, telemetry=hub)
    sd = driver.sd if hasattr(driver, "sd") else driver
    print(
        f"resumed {meta.get('kind')} run from {path} "
        f"at global step {sd.step_index}"
    )
    remaining = args.steps - int(sd.step_index)
    if remaining < 0:
        print(
            f"error: checkpoint is already past step {args.steps}",
            file=sys.stderr,
        )
        return 2
    runner = ResilientRunner(
        driver,
        manager=manager,
        checkpoint_every=args.checkpoint_every,
        injector=_kill_plan(args),
        memory_guard=_memory_guard(args),
    )
    try:
        try:
            report = runner.run_steps(remaining)
        except SimulationKilled as exc:
            if hub is not None:
                hub.dump_flight("simulation-killed", error=str(exc)[:160])
            _close_hub(hub, killed=True)
            hub = None
            print(f"killed: {exc}; checkpoints remain in {manager.directory}")
            return 3
    finally:
        _close_hub(hub)
    _print_run_summary(driver, report, manager, args.out)
    return 0


def _cmd_simulate(args) -> int:
    if (
        args.checkpoint_every
        or args.checkpoint_dir is not None
        or args.health_checks
        or args.reject_bad_steps
        or args.nan_at is not None
        or args.telemetry_dir is not None
    ):
        return _simulate_resilient(args)
    from repro import SDParameters, random_configuration, run_comparison
    from repro.core.timing import average_breakdown
    from repro.util.tables import format_table

    system = random_configuration(args.n, args.phi, rng=args.seed)
    result = run_comparison(
        system,
        SDParameters(dt=args.dt),
        n_steps=args.chunks * args.m,
        m=args.m,
        rng=args.seed + 1,
    )
    it = result.iteration_comparison()
    bm = average_breakdown(chunks=result.mrhs_chunks)
    bo = average_breakdown(steps=result.original_steps)
    rows = [
        ["1st-solve iterations", round(it["with_guesses"], 1),
         round(it["without_guesses"], 1)],
        ["avg step time [s]", round(result.mrhs_average_step_time(), 4),
         round(result.original_average_step_time(), 4)],
        ["  of which 1st solve", round(bm["1st solve"], 4),
         round(bo["1st solve"], 4)],
    ]
    print(
        format_table(
            ["", "MRHS", "original"],
            rows,
            title=f"n={args.n}, phi={args.phi}, m={args.m}, "
            f"{args.chunks * args.m} steps",
        )
    )
    print(f"speedup (host wall-clock): {result.speedup():.2f}x")
    return 0


def _cmd_roofline(args) -> int:
    from repro.perfmodel.machine import SANDY_BRIDGE, WESTMERE, host_machine
    from repro.perfmodel.roofline import MatrixShape, relative_time, time_gspmv
    from repro.util.tables import format_table

    machine = {
        "wsm": WESTMERE,
        "snb": SANDY_BRIDGE,
    }.get(args.machine) or host_machine(quick=True)
    shape = MatrixShape(nb=args.nb, blocks_per_row=args.bpr)
    ms = [m for m in (1, 2, 4, 8, 16, 32, 64) if m <= args.m_max]
    rows = [
        [m, f"{1e3 * time_gspmv(shape, m, machine):.3f}",
         round(relative_time(shape, m, machine), 2)]
        for m in ms
    ]
    print(
        format_table(
            ["m", "T(m) [ms]", "r(m)"],
            rows,
            title=f"GSPMV model: nb={args.nb}, nnzb/nb={args.bpr}, "
            f"machine={machine.name} (B/F={machine.byte_per_flop:.2f})",
        )
    )
    at2x = max(m for m in ms if relative_time(shape, m, machine) <= 2.0)
    print(f"vectors within 2x of single-vector time: {at2x}")
    return 0


def _cmd_pack(args) -> int:
    from repro import random_configuration
    from repro.io import save_system

    system = random_configuration(args.n, args.phi, rng=args.seed)
    save_system(args.out, system)
    print(
        f"saved {system.n} particles at phi={system.volume_fraction:.3f} "
        f"to {args.out}"
    )
    return 0


def _cmd_sweep(args) -> int:
    from repro import SDParameters, random_configuration
    from repro.core.optimal_m import sweep_m
    from repro.perfmodel.machine import WESTMERE
    from repro.util.tables import format_table

    system = random_configuration(args.n, args.phi, rng=args.seed)
    result = sweep_m(
        system,
        SDParameters(),
        m_values=args.m_values,
        machine=WESTMERE,
        rng_seed=args.seed + 1,
    )
    rows = [[m, round(t, 4)] for m, t in result.as_rows()]
    print(
        format_table(
            ["m", "avg step time [s]"],
            rows,
            title=f"m sweep: n={args.n}, phi={args.phi}",
        )
    )
    print(
        f"measured m_optimal={result.m_optimal}; "
        f"model m_s={result.m_s} (WSM)"
    )
    return 0


def _cmd_health(args) -> int:
    from pathlib import Path

    from repro.health.monitor import HealthReport
    from repro.resilience import CheckpointManager

    target = Path(args.checkpoint)
    if target.is_dir():
        manager = CheckpointManager(target)
        state, meta, path = manager.load_latest()
    else:
        manager = CheckpointManager(target.parent)
        state, meta = manager.load(target)
        path = target
    health = state.get("health")
    if health is None:
        print(
            f"{path} carries no health report "
            f"(run simulate with --health-checks)",
            file=sys.stderr,
        )
        return 2
    report = HealthReport.from_state(health)
    print(f"health report from {path} (global step {meta.get('step')}):")
    print(report.summary())
    notable = [
        r for r in report.results if r.severity.name != "OK"
    ][-args.events :]
    for r in notable:
        print(
            f"  {r.severity.name} {r.check} at step {r.step_index}: "
            f"{r.message}"
        )
    if not notable:
        print("  no warn/fatal events in the retained window")
    return 0


def _cmd_trace(args) -> int:
    from pathlib import Path

    from repro.telemetry.hub import TRACE_FILENAME
    from repro.telemetry.report import (
        render_phase_totals,
        render_trace_tree,
    )
    from repro.telemetry.tracer import read_trace

    target = Path(args.run)
    trace_path = target / TRACE_FILENAME if target.is_dir() else target
    try:
        events = read_trace(trace_path)  # every segment of a rotated trace
    except FileNotFoundError:
        print(f"error: no trace at {trace_path}", file=sys.stderr)
        return 2
    if not events:
        print(f"{trace_path} holds no span events", file=sys.stderr)
        return 2
    print(f"trace: {trace_path} ({len(events)} spans)")
    print()
    print(render_trace_tree(events, max_depth=args.depth))
    print()
    print(render_phase_totals(events))
    return 0


def _cmd_report(args) -> int:
    if args.watch is not None:
        return _watch_loop(
            lambda: _render_report(args),
            interval=args.watch,
            count=args.watch_count,
        )
    return _render_report(args)


def _render_report(args) -> int:
    import json as _json

    from repro.telemetry.report import (
        RooflineReport,
        load_run_metrics,
        render_engine_table,
        render_failover_table,
        resolve_machine,
    )

    machine = resolve_machine(args.machine)
    try:
        roofline = RooflineReport.from_run(
            args.run, machine, threshold=args.threshold
        )
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    metrics = load_run_metrics(args.run)

    if args.json:
        print(
            _json.dumps(
                {"metrics": metrics, "roofline": roofline.as_dict()},
                indent=2,
                sort_keys=True,
            )
        )
        return 0

    md = args.markdown
    print("## Metrics" if md else f"metrics summary ({args.run}):")
    if metrics is None:
        print("(no metrics.json in the run directory)")
    else:
        rows = []
        rows += sorted(metrics.get("counters", {}).items())
        rows += sorted(metrics.get("gauges", {}).items())
        rows += [
            (name, f"mean={h['mean']:.3e} (n={h['count']})")
            for name, h in sorted(metrics.get("histograms", {}).items())
        ]
        if md:
            print()
            print("| metric | value |")
            print("|---|---|")
            for name, value in rows:
                print(f"| `{name}` | {value} |")
            print()
        else:
            for name, value in rows:
                print(f"  {name} = {value}")
    failover = render_failover_table(metrics, markdown=md)
    if failover is not None:
        if md:
            print("## Failover")
            print()
        else:
            print()
        print(failover)
        if md:
            print()
    engine_table = render_engine_table(metrics, markdown=md)
    if engine_table is not None:
        if md:
            print("## Engine events")
            print()
        else:
            print()
        print(engine_table)
        if md:
            print()
    from pathlib import Path as _Path

    journal = _Path(args.run) / "journal.jsonl"
    if journal.exists():
        from repro.service import JobJournal, replay_records
        from repro.service.manager import job_table
        from repro.telemetry.report import render_jobs_table

        records, _valid = JobJournal.scan(journal)
        jobs_table = render_jobs_table(
            job_table(replay_records(records)[0]), markdown=md
        )
        if jobs_table is not None:
            if md:
                print("## Jobs")
                print()
            else:
                print()
            print(jobs_table)
            if md:
                print()
    print("## Roofline" if md else "")
    print(roofline.to_markdown())
    if roofline.flagged_rows:
        print()
        print(
            f"{len(roofline.flagged_rows)} row(s) deviate more than "
            f"{roofline.threshold:.0%} from the model"
        )
    return 0


def _parse_net_faults(spec: str, seed: int):
    """Parse the ``--net-faults`` grammar into a ``ChannelFaultPlan``.

    Entries are ``;``-separated; each is ``kind`` optionally followed by
    ``:key=val,key=val...``.  Integer keys map straight onto
    :class:`~repro.distributed.mpi_sim.ChannelFaultSpec` fields
    (``src``, ``dest``, ``tag``, ``seq``, ``rank``, ``times``,
    ``delay``); ``factor`` is a float; ``times=inf`` lifts the fire
    budget; ``step=N`` pins a crash to ``at={"step": N}``.
    """
    from repro.distributed.mpi_sim import ChannelFaultPlan, ChannelFaultSpec

    specs = []
    for entry in spec.split(";"):
        entry = entry.strip()
        if not entry:
            continue
        kind, _, rest = entry.partition(":")
        kind = kind.strip()
        kwargs = {}
        for pair in filter(None, (p.strip() for p in rest.split(","))):
            key, eq, value = pair.partition("=")
            if not eq:
                raise ValueError(
                    f"bad --net-faults parameter {pair!r} (expected key=val)"
                )
            key = key.strip()
            value = value.strip()
            if key == "step":
                kwargs["at"] = {"step": int(value)}
            elif key == "factor":
                kwargs["factor"] = float(value)
            elif key == "times" and value in ("inf", "none"):
                kwargs["times"] = None
            elif key in ("src", "dest", "tag", "seq", "rank", "times", "delay"):
                kwargs[key] = int(value)
            else:
                raise ValueError(f"unknown --net-faults key {key!r}")
        specs.append(ChannelFaultSpec(kind=kind, **kwargs))
    if not specs:
        return None
    return ChannelFaultPlan(specs=tuple(specs), seed=seed)


def _ring_bcrs(nb: int, block_size: int, seed: int):
    """A seeded block tridiagonal-with-wraparound test matrix: every
    block row couples to its two ring neighbours, so each rank boundary
    produces real halo traffic."""
    import numpy as np

    from repro.sparse.bcrs import BCRSMatrix

    rng = np.random.default_rng(seed)
    rows, cols = [], []
    for i in range(nb):
        for j in (i - 1, i, i + 1):
            rows.append(i)
            cols.append(j % nb)
    blocks = rng.standard_normal((len(rows), block_size, block_size))
    return BCRSMatrix.from_block_coo(
        nb, nb, np.array(rows), np.array(cols), blocks
    )


def _cmd_distsim(args) -> int:
    import hashlib

    import numpy as np

    import repro.telemetry as _telemetry
    from repro.distributed import (
        DistributedSimulation,
        RankRecoveryManager,
        contiguous_partition,
    )
    from repro.resilience import CheckpointManager, RankFailure
    from repro.util.tables import format_table

    if args.ranks < 1 or args.nb < args.ranks:
        print("error: need nb >= ranks >= 1", file=sys.stderr)
        return 2
    try:
        plan = (
            _parse_net_faults(args.net_faults, args.seed)
            if args.net_faults
            else None
        )
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    A = _ring_bcrs(args.nb, args.block_size, args.seed)
    partition = contiguous_partition(A, args.ranks)
    rng = np.random.default_rng(args.seed + 1)
    X0 = rng.standard_normal((A.n_rows, args.m))

    hub = _make_hub(args)
    if hub is not None:
        # Only the Stokesian drivers install their hub themselves; the
        # cluster substrate reads the ambient one.
        _telemetry.install(hub)

    recovery = None
    if args.checkpoint_every or args.checkpoint_dir is not None:
        manager = CheckpointManager(args.checkpoint_dir or "checkpoints")
        recovery = RankRecoveryManager(manager)
    sim = DistributedSimulation(
        A,
        partition,
        X0,
        fault_plan=plan,
        recovery=recovery,
        max_recoveries=args.max_recoveries,
        deadline=args.deadline,
        max_retries=args.max_retries,
    )
    try:
        try:
            sim.run_steps(
                args.steps, checkpoint_every=args.checkpoint_every
            )
        except RankFailure as exc:
            _close_hub(hub, failed=True)
            hub = None
            print(f"unrecovered rank failure: {exc}", file=sys.stderr)
            return 3
    finally:
        _close_hub(hub)

    ex = sim.dist.last_exchange or {}
    print(
        f"completed {sim.step_index} steps on {sim.n_parts} rank(s) "
        f"(started with {partition.n_parts}); m={sim.m}"
    )
    if plan is not None:
        counts = {
            k: len(ex.get(k) or ())
            for k in ("timeouts", "resends", "stragglers", "corrupted")
        }
        print(
            "last exchange: "
            + ", ".join(f"{k}={v}" for k, v in counts.items())
        )
    if sim.recoveries:
        rows = [
            [
                ",".join(map(str, r.dead_ranks)),
                r.restored_step,
                r.target_step,
                r.replayed_steps,
                r.rehomed_rows,
                f"{r.n_parts_before}->{r.n_parts_after}",
            ]
            for r in sim.recoveries
        ]
        print(
            format_table(
                ["dead", "rollback", "target", "replayed", "rehomed", "ranks"],
                rows,
                title="rank recoveries",
            )
        )
    digest = hashlib.sha256(
        np.ascontiguousarray(sim.X).tobytes()
    ).hexdigest()
    print(f"X sha256: {digest}")
    if args.telemetry_dir is not None:
        print(f"telemetry written to {args.telemetry_dir}")
    return 0


def _service_dir(raw: str):
    """Accept either the service directory or its journal path."""
    from pathlib import Path

    path = Path(raw)
    return path.parent if path.name == "journal.jsonl" else path


def _cmd_serve(args) -> int:
    import json as _json
    from pathlib import Path

    import repro.telemetry as _telemetry
    from repro.health import HealthMonitor, Severity
    from repro.service import (
        JobManager,
        JobSpec,
        ManagerKilled,
        ServiceConfig,
        SLOPolicy,
        TenantQuota,
    )
    from repro.telemetry.report import render_jobs_table

    budget = (
        None
        if args.mem_budget_mb is None
        else int(args.mem_budget_mb * (1 << 20))
    )
    slo = (
        SLOPolicy()
        if args.slo_target is None
        else SLOPolicy(latency_target_ticks=args.slo_target)
    )
    quotas = {}
    try:
        for raw in args.tenant_quota or ():
            tenant, sep, spec_text = raw.partition("=")
            if not sep or not tenant:
                raise ValueError(
                    f"expected TENANT=jobs=N,mem=SIZE,disk=SIZE, got {raw!r}"
                )
            quotas[tenant] = TenantQuota.parse(spec_text)
    except ValueError as exc:
        print(f"error: --tenant-quota: {exc}", file=sys.stderr)
        return 2
    compact = (
        None  # keep the ServiceConfig default (1 MiB)
        if args.compact_journal_kb is None
        else args.compact_journal_kb << 10
    )
    config_kwargs = {} if compact is None else {
        "journal_compact_bytes": compact or None  # 0 disables
    }
    mem_watermark = (
        None
        if args.mem_watermark_mb is None
        else int(args.mem_watermark_mb * (1 << 20))
    )
    config = ServiceConfig(
        quantum=args.quantum,
        queue_limit=args.queue_limit,
        shed_watermark=args.shed_watermark,
        mem_budget_bytes=budget,
        max_attempts=args.max_attempts,
        checkpoint_every=args.checkpoint_every,
        slo=slo,
        quotas=quotas,
        mem_watermark_bytes=mem_watermark,
        **config_kwargs,
    )
    hub = _make_hub(args)
    if hub is not None:
        # Installed globally so every layer under the manager — runner
        # scopes, kernel spans, health verdicts, fault firings — lands
        # on this hub's bus with the dispatch's correlation ids.
        _telemetry.install(hub)
    monitor = HealthMonitor(checks=())
    directory = _service_dir(args.dir)
    specs = []
    if args.jobs is not None:
        for doc in _json.loads(Path(args.jobs).read_text(encoding="utf-8")):
            specs.append(JobSpec.from_json(doc))
    inbox = directory / "inbox"
    if inbox.is_dir():
        for path in sorted(inbox.glob("*.json")):
            specs.append(
                JobSpec.from_json(
                    _json.loads(path.read_text(encoding="utf-8"))
                )
            )
    try:
        with JobManager(
            directory, config=config, telemetry=hub, monitor=monitor
        ) as mgr:
            if mgr.recovered_jobs:
                print(
                    f"recovered {mgr.recovered_jobs} unfinished job(s) "
                    "from the journal"
                )
            known = {j.spec.name for j in mgr.jobs.values()}
            for spec in specs:
                if spec.name in known:
                    continue  # already journaled (idempotent restart)
                mgr.submit(spec)
            report = mgr.run(max_ticks=args.max_ticks)
    except ManagerKilled as exc:
        print(f"error: {exc}", file=sys.stderr)
        if hub is not None:
            hub.dump_flight("manager-killed", error=str(exc)[:160])
        _close_hub(hub, command="serve", outcome="killed")
        return 3
    if monitor.report.worst() is not Severity.OK:
        print(monitor.report.summary())
    if args.json:
        print(_json.dumps(report.jobs, indent=2, sort_keys=True))
    else:
        table = render_jobs_table(report.jobs)
        if table is not None:
            print(table)
        print(
            f"{report.completed} done, {report.failed} failed, "
            f"{report.shed} shed, {report.rejected} rejected in "
            f"{report.ticks} ticks ({report.preemptions} preemptions, "
            f"{report.worker_crashes} worker crashes)"
        )
    _close_hub(hub, command="serve", outcome="drained")
    return 0 if report.failed == 0 else 1


def _cmd_submit(args) -> int:
    import json as _json

    from repro.io import atomic_write_text
    from repro.service import JobSpec

    spec = JobSpec(
        name=args.name,
        n=args.n,
        phi=args.phi,
        m=args.m,
        steps=args.steps,
        seed=args.seed,
        dt=args.dt,
        priority=args.priority,
        tenant=args.tenant,
        deadline=args.deadline,
    )
    inbox = _service_dir(args.dir) / "inbox"
    inbox.mkdir(parents=True, exist_ok=True)
    target = inbox / f"{spec.name}.json"
    if target.exists():
        print(f"error: job {spec.name!r} already queued", file=sys.stderr)
        return 2
    atomic_write_text(target, _json.dumps(spec.to_json(), sort_keys=True))
    print(f"queued {spec.name!r} -> {target}")
    return 0


def _cmd_jobs(args) -> int:
    if args.watch is not None:
        return _watch_loop(
            lambda: _render_jobs(args),
            interval=args.watch,
            count=args.watch_count,
        )
    return _render_jobs(args)


def _render_jobs(args) -> int:
    import json as _json

    from repro.service import JobJournal, replay_records
    from repro.service.manager import job_table
    from repro.telemetry.report import render_jobs_table

    journal = _service_dir(args.dir) / "journal.jsonl"
    if not journal.exists():
        print(f"error: no journal at {journal}", file=sys.stderr)
        return 2
    records, _valid = JobJournal.scan(journal)
    jobs, last_tick, _dispatches = replay_records(records)
    rows = job_table(jobs)
    if args.json:
        print(_json.dumps(rows, indent=2, sort_keys=True))
        return 0
    table = render_jobs_table(rows)
    if table is None:
        print("(no jobs journaled)")
    else:
        print(table)
        print(f"{len(rows)} job(s), journal at tick {last_tick}")
    return 0


def _cmd_top(args) -> int:
    import json as _json
    from pathlib import Path

    from repro.resources.rotate import read_jsonl_stream
    from repro.telemetry.events import EVENTS_FILENAME, read_events
    from repro.telemetry.exporter import STREAM_FILENAME
    from repro.telemetry.report import render_top

    directory = Path(args.run)

    def render() -> int:
        metrics = None
        metrics_path = directory / "metrics.json"
        if metrics_path.exists():
            try:
                metrics = _json.loads(
                    metrics_path.read_text(encoding="utf-8")
                )
            except ValueError:
                metrics = None  # mid-swap torn read: render without
        if metrics is None:
            # Fall back to the newest valid snapshot of the (possibly
            # rotated) history stream.
            history, _ = read_jsonl_stream(
                directory / STREAM_FILENAME, _json.loads
            )
            metrics = history[-1] if history else None
        events = read_events(directory / EVENTS_FILENAME)
        print(render_top(metrics, events, tail=args.events, title=args.run))
        return 0

    count = 1 if args.once else args.iterations
    return _watch_loop(render, interval=args.interval, count=count)


def _cmd_faults(args) -> int:
    import json as _json

    from repro.resilience.faults import fault_site_catalogue

    catalogue = fault_site_catalogue()
    if args.json:
        print(
            _json.dumps(
                {
                    name: {"layer": layer, "description": desc}
                    for name, (layer, desc) in catalogue.items()
                },
                indent=2,
                sort_keys=True,
            )
        )
        return 0
    by_layer = {}
    for name, (layer, desc) in catalogue.items():
        by_layer.setdefault(layer, []).append((name, desc))
    width = max(len(name) for name in catalogue)
    for layer in sorted(by_layer):
        print(f"{layer}:")
        for name, desc in sorted(by_layer[layer]):
            print(f"  {name:<{width}}  {desc}")
    print(f"{len(catalogue)} fault site(s)")
    return 0


_COMMANDS = {
    "simulate": _cmd_simulate,
    "roofline": _cmd_roofline,
    "pack": _cmd_pack,
    "sweep": _cmd_sweep,
    "resume": _cmd_resume,
    "health": _cmd_health,
    "trace": _cmd_trace,
    "report": _cmd_report,
    "distsim": _cmd_distsim,
    "serve": _cmd_serve,
    "submit": _cmd_submit,
    "jobs": _cmd_jobs,
    "top": _cmd_top,
    "faults": _cmd_faults,
}


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "engine", None) is not None:
        from repro.sparse import set_default_engine

        set_default_engine(args.engine)
    verify = getattr(args, "verify_kernels", None)
    if verify is not None:
        from repro.sparse import DEFAULT_VERIFY_CADENCE, get_engine_watch

        cadence = DEFAULT_VERIFY_CADENCE if verify < 0 else verify
        get_engine_watch().configure(cadence=cadence)
    try:
        return _COMMANDS[args.command](args)
    except BrokenPipeError:
        # Output piped into a pager/`head` that exited early — not an
        # error.  Detach stdout so the interpreter shutdown does not
        # raise again on the implicit flush.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 0


if __name__ == "__main__":  # pragma: no cover - exercised via tests of main()
    sys.exit(main())
