"""Cheap, composable invariant checks on the *simulation state*.

The solver layer (PR 1) certifies "the linear system converged" and the
resilience layer (PR 2) certifies "the process survived" — neither
certifies "the physics is still valid".  These checks close that gap:
each one watches an invariant the discretized Stokesian dynamics must
satisfy, costs a small fraction of a CG solve, and reports a graded
verdict instead of raising, so the resilient runner (not the
check) decides what to do about a violation.

Catalogue (DESIGN.md §10):

``finite-state``
    Positions, velocities, forces, and guesses contain no NaN/inf.
    Runs first; a non-finite state short-circuits the later checks,
    whose math assumes finite input.
``box-escape``
    Positions lie inside ``[0, box)``.  The drivers always store
    wrapped positions, so an escaped particle means in-memory or
    checkpoint corruption, never legitimate dynamics.
``overlap``
    No sphere pair overlaps beyond a relative tolerance.  Overlap
    makes the lubrication resistance unphysical (negative gaps) and is
    the classic failure of an over-aggressive ``dt``.
``spectrum``
    SPD sanity of the resistance matrix: every diagonal block must be
    symmetric positive-definite (a cheap necessary condition for SPD),
    and the driver's cached spectrum bounds — the ones the Chebyshev
    generator already uses: the analytic far-field drag floor below, a
    Lanczos estimate on top — must stay positive with a bounded
    condition estimate.
``fluctuation-dissipation``
    Sliding-window drift monitor comparing the realized Brownian
    displacement variance against the fluctuation–dissipation target
    ``2*kT*dt*R^{-1}``.  Its sharpest statistic is the *truncation
    ratio* — realized vs solver-intended displacement — which exposes
    the overlap-safety limiter silently destroying Brownian variance
    when ``dt`` is far too large (the "finite but wrong" trajectory no
    other check can see).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Deque, Dict, List, Optional, Tuple

import numpy as np

from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.neighbors import neighbor_pairs
from repro.stokesian.particles import ParticleSystem
from repro.util.validation import check_finite

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
]


class Severity(IntEnum):
    """Graded verdict of one invariant check."""

    OK = 0
    WARN = 1
    FATAL = 2


@dataclass(frozen=True)
class InvariantResult:
    """One check's verdict at one step."""

    check: str
    severity: Severity
    message: str = ""
    value: float = 0.0
    """The check's scalar observable (overlap depth, truncation ratio,
    minimum eigenvalue, ...); 0.0 when not applicable."""
    step_index: int = -1


@dataclass
class HealthContext:
    """Everything a check may look at after one time step.

    The driver fills what it has; every field except ``system`` is
    optional and checks degrade gracefully (a check whose inputs are
    missing reports OK with a "not observed" message rather than
    guessing).
    """

    step_index: int
    system: ParticleSystem
    dt: float = 1.0
    kT: float = 1.0
    arrays: Dict[str, np.ndarray] = field(default_factory=dict)
    """Named flat arrays from the step: ``velocity``, ``brownian-force``,
    ``displacement``, ``guess`` — whichever exist."""
    bounds: Optional[Tuple[float, float]] = None
    """Cached spectrum bounds of the resistance matrix: the analytic
    far-field drag floor ``muF * 6 pi mu a_min`` and a widened Lanczos
    top end (see :meth:`StokesianDynamics.spectrum_bounds`)."""
    R: Optional[BCRSMatrix] = None
    """The step's resistance matrix (for SPD sanity)."""
    final_scale: float = 1.0
    """Overlap-safety scaling applied to the step's displacement."""


def deepest_relative_overlap(system: ParticleSystem) -> float:
    """Deepest pair overlap relative to the mean radius (0 when none)."""
    nl = neighbor_pairs(system, max_gap=0.0)
    if nl.n_pairs == 0:
        return 0.0
    overlap = (system.radii[nl.i] + system.radii[nl.j]) - nl.dist
    deepest = float(overlap.max())
    if deepest <= 0.0:
        return 0.0
    return deepest / float(np.mean(system.radii))


class InvariantCheck:
    """Base class: a named check with a default cadence.

    Subclasses implement :meth:`check`; stateful checks additionally
    implement :meth:`drop_since` so a rejected (rolled-back) step's
    observation can be withdrawn, and :meth:`reset`.
    """

    name: str = "invariant"
    cadence: int = 1
    """Run every this many steps (the monitor applies it)."""

    def check(self, ctx: HealthContext) -> InvariantResult:
        raise NotImplementedError

    def reset(self) -> None:
        """Forget accumulated state (fresh run)."""

    def drop_since(self, step_index: int) -> None:
        """Withdraw observations at or after ``step_index`` (rollback)."""

    def _result(
        self,
        ctx: HealthContext,
        severity: Severity,
        message: str = "",
        value: float = 0.0,
    ) -> InvariantResult:
        return InvariantResult(
            check=self.name,
            severity=severity,
            message=message,
            value=float(value),
            step_index=ctx.step_index,
        )


class FiniteStateCheck(InvariantCheck):
    """Positions and every provided step array are finite."""

    name = "finite-state"

    def check(self, ctx: HealthContext) -> InvariantResult:
        fields = [("positions", ctx.system.positions)]
        fields.extend(ctx.arrays.items())
        for label, arr in fields:
            try:
                check_finite(label, arr)
            except ValueError as exc:
                bad = int((~np.isfinite(np.asarray(arr))).sum())
                return self._result(
                    ctx, Severity.FATAL, str(exc), value=float(bad)
                )
        return self._result(ctx, Severity.OK)


class BoxEscapeCheck(InvariantCheck):
    """Positions lie inside ``[0, box)`` (wrapped storage invariant)."""

    name = "box-escape"

    def check(self, ctx: HealthContext) -> InvariantResult:
        pos, box = ctx.system.positions, ctx.system.box
        slack = 1e-12 * box
        escaped = (pos < -slack) | (pos >= box + slack)
        if escaped.any():
            count = int(escaped.any(axis=1).sum())
            first = int(np.flatnonzero(escaped.any(axis=1))[0])
            return self._result(
                ctx,
                Severity.FATAL,
                f"{count} particles outside the periodic box "
                f"(first: particle {first}) — state corruption, positions "
                f"are stored wrapped",
                value=float(count),
            )
        return self._result(ctx, Severity.OK)


class OverlapCheck(InvariantCheck):
    """No sphere pair overlaps beyond ``rel_tol * mean_radius``."""

    name = "overlap"

    def __init__(self, rel_tol: float = 1e-9, cadence: int = 8) -> None:
        if rel_tol < 0:
            raise ValueError("rel_tol must be non-negative")
        self.rel_tol = float(rel_tol)
        # The pair scan costs ~a neighbor search; the default cadence
        # keeps the whole catalogue under the 2%-of-step budget.  The
        # resilient runner still diagnoses overlap on every failed
        # step independently of this cadence.
        self.cadence = int(cadence)

    def check(self, ctx: HealthContext) -> InvariantResult:
        deepest = deepest_relative_overlap(ctx.system)
        if deepest > self.rel_tol:
            return self._result(
                ctx,
                Severity.FATAL,
                f"particle pair overlaps by {deepest:.3e} of the mean "
                f"radius (tolerance {self.rel_tol:.1e})",
                value=deepest,
            )
        if deepest > 0.0:
            return self._result(
                ctx,
                Severity.WARN,
                f"marginal overlap of {deepest:.3e} of the mean radius",
                value=deepest,
            )
        return self._result(ctx, Severity.OK)


class SpectrumCheck(InvariantCheck):
    """SPD/spectrum sanity of the resistance matrix.

    Diagonal-block positive-definiteness is a cheap *necessary*
    condition for ``R`` SPD (a batched 3x3 ``eigvalsh``); the bounds
    already taken by :meth:`StokesianDynamics.spectrum_bounds` for the
    Chebyshev generator cover the global spectrum without an extra
    Lanczos run.  For a driver's interval the lower end is the analytic
    far-field drag floor (a proof, not an estimate), so only the top
    end and the condition estimate carry Lanczos error.
    """

    name = "spectrum"

    def __init__(
        self,
        cond_warn: float = 1e10,
        sym_tol: float = 1e-8,
        cadence: int = 16,
    ) -> None:
        self.cond_warn = float(cond_warn)
        self.sym_tol = float(sym_tol)
        # Batched eigvalsh over all diagonal blocks is the second most
        # expensive check; SPD violations it catches are not transient,
        # so a sparse cadence loses little detection latency.
        self.cadence = int(cadence)

    def check(self, ctx: HealthContext) -> InvariantResult:
        if ctx.bounds is not None:
            lo, hi = ctx.bounds
            if not (np.isfinite(lo) and np.isfinite(hi)) or lo <= 0:
                return self._result(
                    ctx,
                    Severity.FATAL,
                    f"resistance spectrum bounds [{lo:.3e}, {hi:.3e}] — "
                    f"matrix lost positive-definiteness",
                    value=float(lo),
                )
        if ctx.R is not None:
            diag = ctx.R.diagonal_blocks()
            asym = float(
                np.abs(diag - np.swapaxes(diag, 1, 2)).max(initial=0.0)
            )
            scale = float(np.abs(diag).max(initial=1.0)) or 1.0
            if asym > self.sym_tol * scale:
                return self._result(
                    ctx,
                    Severity.FATAL,
                    f"resistance diagonal blocks asymmetric by {asym:.3e} "
                    f"(relative tol {self.sym_tol:.1e})",
                    value=asym,
                )
            sym = 0.5 * (diag + np.swapaxes(diag, 1, 2))
            min_eig = float(np.linalg.eigvalsh(sym)[:, 0].min())
            if min_eig <= 0:
                block = int(np.linalg.eigvalsh(sym)[:, 0].argmin())
                return self._result(
                    ctx,
                    Severity.FATAL,
                    f"resistance diagonal block {block} is not positive-"
                    f"definite (min eigenvalue {min_eig:.3e})",
                    value=min_eig,
                )
        if ctx.bounds is not None:
            lo, hi = ctx.bounds
            cond = hi / lo
            if cond > self.cond_warn:
                return self._result(
                    ctx,
                    Severity.WARN,
                    f"resistance condition estimate {cond:.3e} exceeds "
                    f"{self.cond_warn:.1e} — solves may stagnate",
                    value=cond,
                )
            return self._result(ctx, Severity.OK, value=cond)
        return self._result(ctx, Severity.OK, "spectrum not observed")


class FluctuationDissipationCheck(InvariantCheck):
    """Sliding-window fluctuation–dissipation drift monitor.

    Per step it records the realized per-DOF displacement variance
    ``|Δr|²/dof`` and the solver-intended one ``|dt·u|²/dof`` (what the
    step *would* have moved without the overlap-safety rescaling).  The
    fluctuation–dissipation theorem fixes the expectation of the
    intended displacement at ``2·kT·dt·R⁻¹``, so over a window:

    * the **truncation ratio** realized/intended must stay near 1 — a
      window-mean below ``fatal_truncation`` means the overlap limiter
      is systematically destroying Brownian variance (``dt`` far too
      large: the trajectory stays finite but its diffusion is wrong);
    * the realized variance must lie inside the spectrum enclosure
      ``[2·kT·dt/λ_max, 2·kT·dt/λ_min]`` widened by ``band_slack``
      (a loose but assumption-free envelope).

    Entries are kept per ``dt``: a retry or heal that changes the step
    size flushes the window, so verdicts always describe a homogeneous
    stretch of trajectory.
    """

    name = "fluctuation-dissipation"

    def __init__(
        self,
        window: int = 8,
        warn_truncation: float = 0.9,
        fatal_truncation: float = 0.5,
        band_slack: float = 10.0,
    ) -> None:
        if window < 2:
            raise ValueError("window must be >= 2")
        if not 0 < fatal_truncation <= warn_truncation <= 1:
            raise ValueError(
                "need 0 < fatal_truncation <= warn_truncation <= 1"
            )
        if band_slack < 1:
            raise ValueError("band_slack must be >= 1")
        self.window = int(window)
        self.warn_truncation = float(warn_truncation)
        self.fatal_truncation = float(fatal_truncation)
        self.band_slack = float(band_slack)
        # (step_index, dt, realized, intended, band_lo, band_hi)
        self._entries: Deque[Tuple[int, float, float, float, float, float]] = (
            deque(maxlen=self.window)
        )

    def reset(self) -> None:
        self._entries.clear()

    def drop_since(self, step_index: int) -> None:
        self._entries = deque(
            (e for e in self._entries if e[0] < step_index),
            maxlen=self.window,
        )

    def check(self, ctx: HealthContext) -> InvariantResult:
        disp = ctx.arrays.get("displacement")
        vel = ctx.arrays.get("velocity")
        if disp is None or vel is None:
            return self._result(
                ctx, Severity.OK, "displacement not observed"
            )
        realized = float(np.mean(np.square(disp)))
        intended = float(np.mean(np.square(ctx.dt * np.asarray(vel))))
        if ctx.bounds is not None and ctx.bounds[0] > 0:
            lo, hi = ctx.bounds
            band_lo = 2.0 * ctx.kT * ctx.dt / hi
            band_hi = 2.0 * ctx.kT * ctx.dt / lo
        else:
            band_lo, band_hi = 0.0, np.inf
        if self._entries and any(e[1] != ctx.dt for e in self._entries):
            self._entries.clear()
        self._entries.append(
            (ctx.step_index, ctx.dt, realized, intended, band_lo, band_hi)
        )
        if len(self._entries) < self.window:
            return self._result(
                ctx,
                Severity.OK,
                f"window filling ({len(self._entries)}/{self.window})",
            )
        rows = np.array([e[2:] for e in self._entries])
        realized_m, intended_m, lo_m, hi_m = rows.mean(axis=0)
        truncation = realized_m / intended_m if intended_m > 0 else 1.0
        if truncation < self.fatal_truncation:
            return self._result(
                ctx,
                Severity.FATAL,
                f"realized Brownian variance is {truncation:.2f}x the "
                f"fluctuation-dissipation target 2*kT*dt over the last "
                f"{self.window} steps — overlap limiter is truncating "
                f"displacements (dt too large)",
                value=truncation,
            )
        out_of_band = np.isfinite(hi_m) and not (
            lo_m / self.band_slack <= realized_m <= hi_m * self.band_slack
        )
        if truncation < self.warn_truncation or out_of_band:
            return self._result(
                ctx,
                Severity.WARN,
                f"Brownian variance drifting: truncation {truncation:.2f}, "
                f"realized {realized_m:.3e} vs enclosure "
                f"[{lo_m:.3e}, {hi_m:.3e}]",
                value=truncation,
            )
        return self._result(ctx, Severity.OK, value=truncation)


def default_checks(
    *,
    overlap_tol: float = 1e-9,
    fd_window: int = 8,
    overlap_cadence: int = 8,
    spectrum_cadence: int = 16,
) -> List[InvariantCheck]:
    """The standard catalogue, in short-circuit order.

    ``finite-state`` must come first: the monitor skips the remaining
    checks for a step whose state is non-finite.  The two expensive
    checks (overlap pair scan, diagonal-block spectra) default to
    sparse cadences so the full catalogue stays within the 2%-of-step
    overhead budget; pass ``*_cadence=1`` for exhaustive runs.
    """
    return [
        FiniteStateCheck(),
        BoxEscapeCheck(),
        OverlapCheck(rel_tol=overlap_tol, cadence=overlap_cadence),
        SpectrumCheck(cadence=spectrum_cadence),
        FluctuationDissipationCheck(window=fd_window),
    ]
