"""The original (single-RHS) Stokesian dynamics driver — Algorithm 1.

One time step:

    1. Construct R_k = muF*I + Rlub(r_k)
    2. Compute f^B_k = S(R_k) z_k                (Cheb single)
    3. Solve R_k u_k = -f^B_k                    (1st solve, no guess)
    4. r_{k+1/2} = r_k + dt/2 * u_k
    5. Solve R_{k+1/2} u_{k+1/2} = -f^B_k        (2nd solve, guess = u_k)
    6. r_{k+1} = r_k + dt * u_{k+1/2}

"In both algorithms, in each timestep, the solution of the first solve
is used as the initial guess for the second solve."  The MRHS driver in
:mod:`repro.core.mrhs` reuses every component defined here and changes
only where the *first* solve's initial guess comes from.

Per-step phase timings use the same labels as the paper's Tables VI and
VII ("Cheb single", "1st solve", "2nd solve"), so the benchmark
harnesses can print the same rows.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from typing import Any, Callable, Dict, List, Literal, Optional

import numpy as np

from repro.health.invariants import HealthContext
from repro.resilience.faults import active_injector, fire_fault
from repro.solvers.cg import CGResult, conjugate_gradient
from repro.solvers.diagnostics import SolveDiagnostics
from repro.solvers.precond import BlockJacobiPreconditioner
from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.brownian import BrownianForceGenerator
from repro.stokesian.integrators import apply_displacement
from repro.stokesian.neighbors import VerletList
from repro.stokesian.particles import ParticleSystem
from repro.stokesian.resistance import build_resistance_matrix, far_field_drag
import repro.telemetry as _telemetry
from repro.telemetry import NULL_HUB, TelemetryHub
from repro.util.rng import RngLike, as_rng, rng_from_json, rng_state_to_json
from repro.util.timer import Stopwatch, TimingRecord
from repro.util.validation import check_finite, check_shape

__all__ = ["SDParameters", "StepRecord", "StokesianDynamics"]


@dataclass(frozen=True)
class SDParameters:
    """Simulation parameters shared by the original and MRHS drivers.

    Defaults give a stable, well-conditioned simulation in reduced
    units (``mu = kT = 1``); the paper's physical units (Angstroms,
    ps, 2 ps steps) correspond to a rescaling of dt/viscosity/kT.
    """

    dt: float = 0.05
    viscosity: float = 1.0
    kT: float = 1.0
    cutoff_gap: Optional[float] = None
    """Lubrication interaction cutoff (surface gap); default: mean radius."""
    cheb_degree: int = 30
    """Max Chebyshev order for Brownian forces (30 in the paper)."""
    tol: float = 1e-6
    """CG relative residual tolerance (the paper's 1e-6)."""
    max_iter: int = 10_000
    brownian_method: Literal["chebyshev", "cholesky"] = "chebyshev"
    overlap_safety: float = 0.9
    precondition: bool = True
    """Precondition every CG and block-CG solve with block Jacobi (R's
    exact 3x3 diagonal-block inverses).  On by default: one batched
    inverse per matrix and one batched product per iteration cost
    little, and at 30-40% occupancy it cuts CG iterations 2.5-3x.  The
    paper's CG is unpreconditioned, so its table benchmarks pin
    ``False``."""
    bounds_refresh_steps: int = 50
    """Recompute the Chebyshev spectrum bounds every this many steps.
    Only the top end costs anything: it is a largest-eigenvalue Lanczos
    solve, while the lower end is the analytic far-field drag floor.
    Between refreshes the cached bounds (top end widened by
    ``bounds_safety``) are reused — valid because R evolves slowly, and
    worthwhile because even that one Lanczos solve costs more than the
    Cmax matrix products of the Chebyshev application itself."""
    bounds_safety: float = 1.25
    """Widening factor applied to the cached top end of the spectrum
    bounds.  The lower end is a proven floor and is not widened."""

    def __post_init__(self) -> None:
        for name in ("dt", "viscosity", "kT"):
            value = getattr(self, name)
            if not np.isfinite(value) or value <= 0:
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        if self.cheb_degree < 1:
            raise ValueError("cheb_degree must be >= 1")
        if not 0 < self.tol < 1:
            raise ValueError("tol must be in (0, 1)")
        if self.bounds_refresh_steps < 1:
            raise ValueError("bounds_refresh_steps must be >= 1")
        if self.bounds_safety < 1.0:
            raise ValueError("bounds_safety must be >= 1")

    @property
    def force_scale(self) -> float:
        """``sqrt(2 kT / dt)``: Brownian force magnitude per fluctuation-
        dissipation at this step size."""
        return float(np.sqrt(2.0 * self.kT / self.dt))


@dataclass(frozen=True)
class StepRecord:
    """What happened during one time step (the Tables V-VII raw data)."""

    step_index: int
    iterations_first: int
    iterations_second: int
    converged: bool
    timings: TimingRecord
    midpoint_scale: float
    final_scale: float
    guess_error: Optional[float] = None
    """``||u - u_guess|| / ||u||`` of the first solve, when a guess was
    supplied (the Figure 5 observable)."""
    diagnostics_first: Optional[SolveDiagnostics] = None
    """Convergence record of the first in-step solve."""
    diagnostics_second: Optional[SolveDiagnostics] = None
    """Convergence record of the second (midpoint) solve."""


class _ConfigurationCache:
    """A driver's one configuration entry (the pair list from the skin
    list, R assembled from it, and R's block Jacobi once a solve wants
    it), rebuilt when its key changes: what R depends on, the system
    object, the cutoff and the viscosity.  A chunk's step 0 reuses its
    R_0.  The entry equals a fresh build: a cache, not driver state."""

    def __init__(self) -> None:
        self.verlet = VerletList()
        self.key: Optional[tuple] = None
        self.R: Optional[BCRSMatrix] = None

    def get(self, system: ParticleSystem, params: SDParameters):
        """``(pairs, R)`` of ``system`` under ``params``."""
        gap = params.cutoff_gap
        if gap is None:
            gap = float(np.mean(system.radii))
        key = (system, gap, params.viscosity)
        if key != self.key:
            self.pairs = self.verlet.pairs(system, gap)
            self.R = build_resistance_matrix(
                system, viscosity=params.viscosity, cutoff_gap=gap, neighbor_list=self.pairs
            )
            self.block_jacobi: Optional[BlockJacobiPreconditioner] = None
            self.key = key
        return self.pairs, self.R

    def preconditioner(self, R: BCRSMatrix) -> BlockJacobiPreconditioner:
        """The entry's block Jacobi for the entry's R; a fresh one for
        any other matrix (a recorded replay solves many)."""
        if R is not self.R:
            return BlockJacobiPreconditioner(R)
        if self.block_jacobi is None:
            self.block_jacobi = BlockJacobiPreconditioner(R)
        return self.block_jacobi


class StokesianDynamics:
    """Algorithm 1 driver; also the component toolbox for Algorithm 2.

    Parameters
    ----------
    system:
        Initial particle configuration.
    params:
        Numerical parameters.
    rng:
        Seed or generator driving the Brownian noise.
    """

    def __init__(
        self,
        system: ParticleSystem,
        params: SDParameters = SDParameters(),
        *,
        rng: RngLike = None,
        forces: Optional[Callable[[ParticleSystem], np.ndarray]] = None,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        self.system = system
        self.params = params
        self.forces = forces
        self.telemetry = telemetry
        """Telemetry hub recording step/phase spans and step counters;
        :data:`~repro.telemetry.NULL_HUB` (all no-ops) by default.
        Passing a real hub also installs it as the module-level
        ``repro.telemetry.active_hub`` (unless one is already active),
        so the kernel- and solver-level spans land in the same trace."""
        if telemetry.enabled and _telemetry.active_hub is None:
            _telemetry.install(telemetry)
        """Optional deterministic force field ``f^P(system) -> (n, 3)``
        (bonded chains, external fields...).  The paper's experiments
        use ``f^P = 0`` but Section II explicitly allows "other forces
        ... such as bonded forces for simulating long-chain molecules"."""
        self.rng = as_rng(rng)
        self.step_index = 0
        self.history: List[StepRecord] = []
        self.health = None
        """Optional :class:`~repro.health.monitor.HealthMonitor`; when
        attached, every completed step is observed (positions, Brownian
        forces, velocities, realized displacement, spectrum bounds).
        The driver only *reports* — acting on verdicts is the
        resilient runner's job."""
        self._cached_bounds: Optional[tuple[float, float]] = None
        self._bounds_age = 0
        self._configs = _ConfigurationCache()
        # Auxiliary stream for Lanczos starting vectors, split off so
        # spectrum estimation never desynchronizes the physical noise
        # sequence between algorithm variants.
        from repro.util.rng import spawn_rngs

        self._aux_rng = spawn_rngs(self.rng, 1)[0]

    # ------------------------------------------------------------------
    # components (shared with the MRHS driver)
    # ------------------------------------------------------------------
    def build_matrix(self, system: Optional[ParticleSystem] = None) -> BCRSMatrix:
        """Step 1: ``R = muF*I + Rlub``, assembled once per configuration."""
        sys_ = system if system is not None else self.system
        return self._configs.get(sys_, self.params)[1]

    def spectrum_bounds(self, R: BCRSMatrix) -> tuple[float, float]:
        """Cached spectrum enclosure of ``R`` (as :meth:`build_matrix`
        assembles it).

        The lower end is the far-field drag floor ``muF * 6 pi mu
        a_min``: ``R = diag(drag) + Rlub`` with ``Rlub`` PSD, so it is a
        proof for every configuration and is not widened.  The upper end
        is a Lanczos estimate, taken on the first call and then every
        ``bounds_refresh_steps`` steps and widened by ``bounds_safety``;
        in between, the cached interval is reused (R drifts slowly with
        the particles).
        """
        from repro.stokesian.chebyshev import lanczos_spectrum_bounds

        if (
            self._cached_bounds is None
            or self._bounds_age >= self.params.bounds_refresh_steps
        ):
            floor = float(
                far_field_drag(self.system, viscosity=self.params.viscosity).min()
            )
            lo, hi = lanczos_spectrum_bounds(R, rng=self._aux_rng, lower=floor)
            self._cached_bounds = (lo, hi * self.params.bounds_safety)
            self._bounds_age = 0
        self._bounds_age += 1
        return self._cached_bounds

    def brownian_generator(self, R: BCRSMatrix) -> BrownianForceGenerator:
        """The ``f^B = scale * S(R) z`` generator for a matrix."""
        bounds = (
            self.spectrum_bounds(R)
            if self.params.brownian_method == "chebyshev"
            else None
        )
        return BrownianForceGenerator(
            R,
            method=self.params.brownian_method,
            degree=self.params.cheb_degree,
            scale=self.params.force_scale,
            bounds=bounds,
            rng=self.rng,
        )

    def preconditioner(self, R: BCRSMatrix) -> Optional[BlockJacobiPreconditioner]:
        """R's block Jacobi, the entry's for its R, if ``params.precondition``."""
        return self._configs.preconditioner(R) if self.params.precondition else None

    def solve(
        self, R: BCRSMatrix, rhs: np.ndarray, x0: Optional[np.ndarray] = None
    ) -> CGResult:
        """One CG solve with this simulation's tolerance, preconditioned
        as ``params.precondition`` says."""
        return conjugate_gradient(
            R, rhs, x0=x0, tol=self.params.tol, max_iter=self.params.max_iter,
            preconditioner=self.preconditioner(R),
        )

    def draw_noise(self, m: int = 1) -> np.ndarray:
        """Standard-normal ``z`` vectors (``(3n,)`` or ``(3n, m)``).

        Columns are drawn sequentially, so ``draw_noise(m)[:, k]`` is
        bit-identical to the k-th of ``m`` consecutive ``draw_noise()``
        calls — the property that lets the MRHS and original drivers run
        on *identical* noise for step-by-step comparison.
        """
        dof = self.system.dof
        if m == 1:
            return self.rng.standard_normal(dof)
        return np.column_stack(
            [self.rng.standard_normal(dof) for _ in range(m)]
        )

    def external_forces(self, system: Optional[ParticleSystem] = None) -> np.ndarray:
        """Flattened ``f^P`` for a configuration (zeros when no field)."""
        sys_ = system if system is not None else self.system
        if self.forces is None:
            return np.zeros(sys_.dof)
        f = np.asarray(self.forces(sys_), dtype=np.float64)
        if f.shape == (sys_.n, 3):
            f = f.reshape(-1)
        if f.shape != (sys_.dof,):
            raise ValueError("forces must return an (n, 3) or (3n,) array")
        return f

    # ------------------------------------------------------------------
    # Algorithm 1
    # ------------------------------------------------------------------
    def step(
        self,
        *,
        z: Optional[np.ndarray] = None,
        u_guess: Optional[np.ndarray] = None,
    ) -> StepRecord:
        """Advance one time step with the original algorithm.

        ``z`` optionally fixes the noise (testing / MRHS replay);
        ``u_guess`` optionally seeds the *first* solve — ``None``
        reproduces the original algorithm exactly, while the MRHS driver
        passes the block-solve guesses here.
        """
        p = self.params
        sw = Stopwatch()
        if z is None:
            z = self.draw_noise()

        tr = self.telemetry.tracer
        step_span = tr.start(
            "step", step=self.step_index, seeded=u_guess is not None
        )
        try:
            with sw.phase("Construct R"), tr.span("Construct R"):
                R_k = self.build_matrix()
            with sw.phase("Cheb single"), tr.span("Cheb single"):
                gen = self.brownian_generator(R_k)
                f_b = gen.generate(z)
            fault = fire_fault("brownian.forcing", step=self.step_index)
            if fault is not None:
                f_b = fault.mutate(f_b, active_injector().rng)
            with sw.phase("1st solve"), tr.span("1st solve"):
                rhs = -f_b + self.external_forces()
                res1 = self.solve(R_k, rhs, x0=u_guess)
            guess_error = None
            if u_guess is not None:
                norm = float(np.linalg.norm(res1.x))
                if norm > 0:
                    guess_error = float(np.linalg.norm(res1.x - u_guess)) / norm

            nl, _ = self._configs.get(self.system, p)
            half_system, mid_scale = apply_displacement(
                self.system, 0.5 * p.dt * res1.x, nl, safety=p.overlap_safety
            )
            with sw.phase("Construct R half"), tr.span("Construct R half"):
                R_half = self.build_matrix(half_system)
            with sw.phase("2nd solve"), tr.span("2nd solve"):
                rhs_half = -f_b + self.external_forces(half_system)
                res2 = self.solve(R_half, rhs_half, x0=res1.x)

            new_system, final_scale = apply_displacement(
                self.system, p.dt * res2.x, nl, safety=p.overlap_safety
            )
            step_span.set(
                iterations_first=res1.iterations,
                iterations_second=res2.iterations,
                converged=res1.converged and res2.converged,
            )
        except BaseException as exc:
            step_span.set(error=type(exc).__name__)
            raise
        finally:
            step_span.end()
        self.telemetry.metrics.counter("steps.completed").inc()
        self.system = new_system
        if self.health is not None:
            arrays = {
                "brownian-force": f_b,
                "velocity": res2.x,
                "displacement": final_scale * p.dt * res2.x,
            }
            if u_guess is not None:
                arrays["guess"] = u_guess
            self.health.observe_step(
                HealthContext(
                    step_index=self.step_index,
                    system=self.system,
                    dt=p.dt,
                    kT=p.kT,
                    arrays=arrays,
                    bounds=self._cached_bounds,
                    R=R_k,
                    final_scale=final_scale,
                )
            )
        record = StepRecord(
            step_index=self.step_index,
            iterations_first=res1.iterations,
            iterations_second=res2.iterations,
            converged=res1.converged and res2.converged,
            timings=sw.record(),
            midpoint_scale=mid_scale,
            final_scale=final_scale,
            guess_error=guess_error,
            diagnostics_first=res1.diagnostics,
            diagnostics_second=res2.diagnostics,
        )
        self.step_index += 1
        self.history.append(record)
        return record

    def run(self, n_steps: int) -> List[StepRecord]:
        """Advance ``n_steps`` steps; returns their records."""
        if n_steps < 0:
            raise ValueError("n_steps must be non-negative")
        return [self.step() for _ in range(n_steps)]

    # ------------------------------------------------------------------
    # checkpointable state
    # ------------------------------------------------------------------
    def get_state(self) -> Dict[str, Any]:
        """Serializable trajectory state (see ``repro.resilience``).

        Everything that influences the future trajectory is captured:
        configuration, both RNG bit-generator states, the cached
        spectrum bounds with their refresh age, and the step counter.
        :attr:`history` is not: it is the log of the steps this process
        ran, so a snapshot costs the same at every step of a run.
        """
        lo, hi = self._cached_bounds or (None, None)
        return {
            "kind": "sd",
            "step_index": self.step_index,
            "positions": self.system.positions.copy(),
            "radii": self.system.radii.copy(),
            "box": self.system.box.copy(),
            "rng_state": rng_state_to_json(self.rng),
            "aux_rng_state": rng_state_to_json(self._aux_rng),
            "bounds_lo": lo,
            "bounds_hi": hi,
            "bounds_age": self._bounds_age,
            "params": asdict(self.params),
        }

    def set_state(self, state: Dict[str, Any]) -> None:
        """Restore :meth:`get_state` in place (bit-exact trajectory).

        Arrays are shape- and finiteness-validated *before* any live
        state is overwritten: a corrupted checkpoint fails loudly here,
        at resume, instead of poisoning the trajectory ten steps later.
        Of :attr:`history`, only the records at or after the restored
        step are dropped (they never happened); earlier ones stay.
        Checkpoints that still carry a ``history`` key restore too.
        """
        if state.get("kind") != "sd":
            raise ValueError(f"not a StokesianDynamics state: {state.get('kind')!r}")
        positions = check_shape(
            "checkpoint positions", state["positions"], (None, 3)
        )
        radii = check_shape("checkpoint radii", state["radii"], (positions.shape[0],))
        box = check_shape("checkpoint box", state["box"], (3,))
        for name, arr in (
            ("checkpoint positions", positions),
            ("checkpoint radii", radii),
            ("checkpoint box", box),
        ):
            check_finite(name, arr)
        self.params = _params_from_state(state["params"])
        self.system = ParticleSystem(positions=positions, radii=radii, box=box)
        self.rng = rng_from_json(state["rng_state"])
        self._aux_rng = rng_from_json(state["aux_rng_state"])
        self.step_index = int(state["step_index"])
        lo, hi = state.get("bounds_lo"), state.get("bounds_hi")
        self._cached_bounds = None if lo is None else (float(lo), float(hi))
        self._bounds_age = int(state["bounds_age"])
        # Records are in step order, so the ones to drop are a tail.
        while self.history and self.history[-1].step_index >= self.step_index:
            self.history.pop()

    @classmethod
    def from_state(
        cls,
        state: Dict[str, Any],
        *,
        forces: Optional[Callable[[ParticleSystem], np.ndarray]] = None,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> "StokesianDynamics":
        """Reconstruct a driver from a checkpointed state.

        ``forces`` (a callable) cannot be serialized; resuming a run
        that used one must pass the same callable again.  Likewise
        ``telemetry``: pass the resumed run's hub here (its counters
        are restored separately from the checkpoint's telemetry state).
        """
        system = ParticleSystem(
            positions=state["positions"], radii=state["radii"], box=state["box"]
        )
        driver = cls(
            system, _params_from_state(state["params"]),
            forces=forces, telemetry=telemetry,
        )
        driver.set_state(state)
        return driver


def _params_from_state(params: Dict[str, Any]) -> SDParameters:
    """Rebuild checkpointed parameters.

    Checkpoints written while ``SDParameters`` still had an ``engine``
    field carry that key; it is dropped (the kernel engine is chosen
    process-wide by :func:`repro.sparse.set_default_engine`).
    """
    return SDParameters(**{k: v for k, v in params.items() if k != "engine"})
