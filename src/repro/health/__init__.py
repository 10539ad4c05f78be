"""Numerical health: invariant checks and the monitor that runs them.

The layer between "the solver converged" (solvers) and "the process
survived" (resilience): watches the *physics* of the simulation state
and grades violations (ok/warn/fatal).  It only judges; the
:class:`~repro.resilience.runner.ResilientRunner` acts on its verdicts
(rejects bad steps, backs off ``dt``, quarantines a poisoned MRHS
chunk).  See DESIGN.md §10.
"""

from repro.health.invariants import (
    BoxEscapeCheck,
    FiniteStateCheck,
    FluctuationDissipationCheck,
    HealthContext,
    InvariantCheck,
    InvariantResult,
    OverlapCheck,
    Severity,
    SpectrumCheck,
    default_checks,
    deepest_relative_overlap,
)
from repro.health.monitor import HealthMonitor, HealthReport

__all__ = [
    "Severity",
    "InvariantResult",
    "HealthContext",
    "InvariantCheck",
    "FiniteStateCheck",
    "BoxEscapeCheck",
    "OverlapCheck",
    "SpectrumCheck",
    "FluctuationDissipationCheck",
    "default_checks",
    "deepest_relative_overlap",
    "HealthMonitor",
    "HealthReport",
]
