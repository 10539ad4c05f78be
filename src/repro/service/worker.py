"""Per-job execution: a checkpointed driver behind one interface.

A :class:`JobWorker` owns everything one job needs to run, die, and
resume — the per-job :class:`~repro.resilience.checkpoint.CheckpointManager`
directory and (while warm) a live driver wrapped in a
:class:`~repro.resilience.runner.ResilientRunner`.  The manager only
ever asks it to *run toward the job's total step count*, optionally
stopping after a quantum of steps: chunk boundaries depend on the
remaining-step target, so slicing with small ``run_steps`` calls would
change the trajectory, while ``run_steps(remaining, stop_after=q)``
keeps it bit-identical to a solo run.  Crashes are simulated kills
inside ``run_steps``.

Workers run with :data:`~repro.telemetry.NULL_HUB`; service-level
telemetry (queue wait, retries, preemptions) lives at the manager.
"""

from __future__ import annotations

import hashlib
from pathlib import Path
from typing import Any, Optional, Union

import numpy as np

from repro.resilience.checkpoint import CheckpointManager
from repro.resilience.runner import ResilientRunner, RunReport, resume_driver
from repro.service.spec import JobSpec

__all__ = ["JobWorker"]


def _fresh_driver(spec: JobSpec) -> Any:
    """Build the job's driver from its spec (same idiom as the
    ``simulate`` CLI: ``seed`` packs the system, ``seed + 1`` drives
    the noise stream)."""
    from repro import (
        MrhsParameters,
        MrhsStokesianDynamics,
        SDParameters,
        random_configuration,
    )
    from repro.telemetry import NULL_HUB

    system = random_configuration(spec.n, spec.phi, rng=spec.seed)
    return MrhsStokesianDynamics(
        system,
        SDParameters(dt=spec.dt),
        MrhsParameters(m=spec.m),
        rng=spec.seed + 1,
        telemetry=NULL_HUB,
    )


class JobWorker:
    """Run one job's simulation, checkpointed, resumable after death."""

    def __init__(
        self,
        spec: JobSpec,
        directory: Union[str, Path],
        *,
        checkpoint_every: int = 4,
        governor: Optional[Any] = None,
        spill_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        self.spec = spec
        self.checkpoints = CheckpointManager(
            Path(directory), governor=governor, spill_dir=spill_dir
        )
        self.checkpoint_every = int(checkpoint_every)
        self._runner: Optional[ResilientRunner] = None

    # ------------------------------------------------------------------
    def _build(self) -> ResilientRunner:
        """(Re)materialise the runner: newest loadable checkpoint if
        one exists, else a fresh driver from the spec."""
        try:
            state, _meta, _path = self.checkpoints.load_latest()
            driver = resume_driver(state)
        except FileNotFoundError:
            driver = _fresh_driver(self.spec)
        return ResilientRunner(
            driver,
            manager=self.checkpoints,
            checkpoint_every=self.checkpoint_every,
            injector=None,  # polls the manager's single armed injector
        )

    @property
    def runner(self) -> ResilientRunner:
        if self._runner is None:
            self._runner = self._build()
        return self._runner

    @property
    def step_index(self) -> int:
        """Steps this worker would resume from (driver if warm, else
        newest checkpoint, else 0)."""
        if self._runner is not None:
            return self._runner.step_index
        steps = self.checkpoints.steps()
        return steps[-1] if steps else 0

    @property
    def warm(self) -> bool:
        return self._runner is not None

    # ------------------------------------------------------------------
    def run(
        self, n_steps: int, *, stop_after: Optional[int] = None
    ) -> RunReport:
        """Advance toward ``n_steps`` more healthy steps, returning
        checkpointed after ``stop_after`` of them (preemption).  May
        raise :class:`~repro.resilience.faults.SimulationKilled` when
        the manager's injector crash-kills this slice."""
        return self.runner.run_steps(n_steps, stop_after=stop_after)

    def discard(self) -> None:
        """Simulate worker death: drop the in-memory driver.  The next
        :meth:`run` resumes from the newest on-disk checkpoint."""
        self._runner = None

    def digest(self) -> str:
        """SHA-256 of the current particle positions (bit-identity
        check against solo runs)."""
        sd = self.runner.driver.sd
        return hashlib.sha256(
            np.ascontiguousarray(sd.system.positions).tobytes()
        ).hexdigest()
