"""repro - reproduction of Liu, Chow, Vaidyanathan & Smelyanskiy,
"Improving the Performance of Dynamical Simulations Via Multiple
Right-Hand Sides" (IPDPS 2012).

Quick tour
----------
>>> from repro import (
...     random_configuration, SDParameters,
...     MrhsStokesianDynamics, MrhsParameters,
... )
>>> system = random_configuration(100, volume_fraction=0.3, rng=0)
>>> sim = MrhsStokesianDynamics(
...     system, SDParameters(), MrhsParameters(m=8), rng=0
... )
>>> chunk = sim.run_chunk()          # 8 time steps, one block solve
>>> chunk.first_solve_iterations     # guesses keep these small

Subpackages
-----------
``repro.core``
    The MRHS algorithm (Algorithm 2), comparison runners, m policies.
``repro.stokesian``
    The Stokesian dynamics substrate: particles, packing, lubrication,
    resistance matrices, Chebyshev Brownian forces, integrators, and
    the Brownian-dynamics baseline.
``repro.sparse``
    BCRS storage and the SPMV/GSPMV kernels with exact traffic
    accounting.
``repro.solvers``
    CG, block CG, iterative refinement, preconditioners, Cholesky.
``repro.perfmodel``
    The roofline performance model (Eq. 8), the Tmrhs analysis
    (Eqs. 9-12), machine specs, and host calibration.
``repro.distributed``
    Simulated message passing, partitioners, communication plans, and
    the multi-node GSPMV time model.
``repro.resilience``
    Checkpoint/restart (bit-exact resume), deterministic fault
    injection, and the resilient runner that accepts, rejects,
    retries, degrades and recovers steps (with MRHS chunk quarantine).
``repro.health``
    Numerical health: invariant checks over the simulation state and
    the monitor that grades them; the resilient runner acts on its
    verdicts.
``repro.telemetry``
    Observability: hierarchical span tracing, a metrics registry, and
    the measured-vs-model roofline report.
"""

from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.core.original import run_comparison
from repro.health import (
    HealthMonitor,
    HealthReport,
    Severity,
    default_checks,
)
from repro.resilience import CheckpointManager, FaultPlan, FaultSpec
from repro.resilience.runner import ResilientRunner, resume_driver
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.gspmv import gspmv
from repro.sparse.spmv import spmv
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration
from repro.stokesian.particles import ParticleSystem
from repro.stokesian.resistance import build_resistance_matrix
from repro.telemetry import NULL_HUB, MetricsRegistry, TelemetryHub, Tracer

__version__ = "1.0.0"

__all__ = [
    "MrhsParameters",
    "MrhsStokesianDynamics",
    "run_comparison",
    "BCRSMatrix",
    "gspmv",
    "spmv",
    "SDParameters",
    "StokesianDynamics",
    "random_configuration",
    "ParticleSystem",
    "build_resistance_matrix",
    "CheckpointManager",
    "FaultPlan",
    "FaultSpec",
    "ResilientRunner",
    "resume_driver",
    "HealthMonitor",
    "HealthReport",
    "Severity",
    "default_checks",
    "TelemetryHub",
    "NULL_HUB",
    "Tracer",
    "MetricsRegistry",
    "__version__",
]
