"""The Section V.B.3 analysis: how many right-hand sides to use.

The average time of one simulation step under the MRHS algorithm with
``m`` right-hand sides is (Eq. 9)

    Tmrhs(m) = (1/m) * [ N*T(m)            -- Calc guesses (block solve)
                       + Cmax*T(m)         -- Cheb vectors
                       + (m-1)*N1*T(1)     -- 1st solve with guess
                       + m*N2*T(1)         -- 2nd solve
                       + (m-1)*Cmax*T(1) ] -- Cheb single

where ``T(m)`` is the GSPMV time model, ``N`` the iterations of a solve
*without* a guess, ``N1``/``N2`` the iterations of the 1st/2nd in-step
solves *with* guesses, and ``Cmax`` the Chebyshev polynomial order.

While GSPMV is bandwidth-bound (``m < m_s``) this is a decreasing
function of ``m`` (Eq. 11, constants P/Q/R); once compute-bound
(``m >= m_s``) it increases (Eq. 12, constants S/W).  Hence the paper's
conclusion: **the best m is near the bandwidth→compute crossover
m_s** — Table VIII verifies ``m_optimal ≈ m_s`` experimentally and so
do our benches.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

from repro.perfmodel.machine import MachineSpec
from repro.perfmodel.roofline import GspmvTimeModel
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.traffic import INDEX_BYTES

if TYPE_CHECKING:  # pragma: no cover - type-only import
    from repro.perfmodel.engines import EngineProfile

__all__ = ["SolverCounts", "MrhsCostModel"]


@dataclass(frozen=True)
class SolverCounts:
    """Iteration counts characterizing the solver behaviour.

    Attributes
    ----------
    n_noguess:
        ``N``: CG iterations of a solve from a zero initial guess.
    n_first:
        ``N1``: iterations of the first in-step solve when started from
        the block-solve guess.
    n_second:
        ``N2``: iterations of the second (midpoint) solve started from
        the first solve's solution.
    cheb_order:
        ``Cmax``: maximum Chebyshev polynomial order for the Brownian
        force (30 in the paper's experiments).
    """

    n_noguess: int
    n_first: int
    n_second: int
    cheb_order: int = 30

    def __post_init__(self) -> None:
        if not (self.n_noguess >= 1 and self.n_first >= 0 and self.n_second >= 0):
            raise ValueError("iteration counts must be non-negative (N >= 1)")
        if self.cheb_order < 1:
            raise ValueError("cheb_order must be >= 1")
        if self.n_first > self.n_noguess:
            raise ValueError(
                "N1 > N: a guessed solve cannot need more iterations than an "
                "unguessed one under this model"
            )


class MrhsCostModel:
    """Evaluates ``Tmrhs(m)`` and locates ``m_s`` and ``m_optimal``.

    Paper Figure 7 overlays the achieved average step time with this
    model's bandwidth-bound and compute-bound estimates; Table VIII
    compares ``m_s`` with the empirically best ``m``.
    """

    def __init__(
        self,
        A: BCRSMatrix,
        machine: MachineSpec,
        counts: SolverCounts,
        *,
        time_model: Optional[GspmvTimeModel] = None,
        engine_profile: Optional["EngineProfile"] = None,
    ) -> None:
        self.counts = counts
        self.model = time_model or GspmvTimeModel(
            A, machine, profile=engine_profile
        )
        self.machine = machine

    # ------------------------------------------------------------------
    # Eq. 9, evaluated with the piecewise T(m)
    # ------------------------------------------------------------------
    def average_step_time(self, m: int) -> float:
        """``Tmrhs(m)``: modelled average seconds per simulation step."""
        if m < 1:
            raise ValueError("m must be >= 1")
        c = self.counts
        t_m = self.model.time(m)
        t_1 = self.model.time(1)
        total = (
            c.n_noguess * t_m  # Calc guesses: block solve of the auxiliary system
            + c.cheb_order * t_m  # Cheb vectors: S(R) Z with m vectors
            + (m - 1) * c.n_first * t_1  # 1st solves with initial guesses
            + m * c.n_second * t_1  # 2nd (midpoint) solves
            + (m - 1) * c.cheb_order * t_1  # Cheb single for steps 1..m-1
        )
        return total / m

    def original_step_time(self) -> float:
        """Average step time of the original algorithm (no guesses).

        One unguessed solve (N iterations), one second solve seeded by
        the first (N2), and one single-vector Chebyshev application.
        """
        c = self.counts
        t_1 = self.model.time(1)
        return (c.n_noguess + c.n_second + c.cheb_order) * t_1

    def speedup(self, m: int) -> float:
        """Modelled speedup of MRHS over the original algorithm."""
        return self.original_step_time() / self.average_step_time(m)

    # ------------------------------------------------------------------
    # regime boundaries
    # ------------------------------------------------------------------
    def crossover_m(self, m_max: int = 256) -> Optional[int]:
        """``m_s``: where GSPMV flips from bandwidth- to compute-bound."""
        return self.model.crossover_m(m_max)

    def optimal_m(self, m_max: int = 64) -> int:
        """``m_optimal``: the ``m`` minimizing ``Tmrhs`` over 1..m_max."""
        best_m, best_t = 1, self.average_step_time(1)
        for m in range(2, m_max + 1):
            t = self.average_step_time(m)
            if t < best_t:
                best_m, best_t = m, t
        return best_m

    # ------------------------------------------------------------------
    # the closed-form regime expansions of Eqs. 11-12
    # ------------------------------------------------------------------
    def regime_constants(self) -> dict[str, float]:
        """Return the closed-form constants of the two regimes of Tmrhs.

        Expanding Eq. 9 with the bandwidth bound ``T(m) = (m*A(m)+C)/B``
        (``A(m) = (3+k(m))*sx*nb`` vector bytes per vector, ``C`` the
        m-independent matrix/index bytes) gives

            Tmrhs(m < m_s) = (3 + k(m)) * P + Q/m + R        (Eq. 11)

        with
            P = (N + Cmax) * sx * nb / B
            R = (N1 + N2 + Cmax) * T(1)
            Q = [(N + Cmax) * C] / B - (N1 + Cmax) * T(1)

        and with the compute bound ``T(m) = fa*m*nnzb/F``

            Tmrhs(m >= m_s) = W + R - V/m                    (Eq. 12)

        with
            W = (N + Cmax) * fa * nnzb / F
            V = (N1 + Cmax) * T(1).

        Note: these are the *exact* expansions of Eq. 9 (each equals
        :meth:`average_step_time` identically in its regime, which the
        test suite verifies).  The constants printed in the paper's
        Eqs. 11-12 differ slightly (e.g. its P includes an extra N2 and
        its S is missing a 1/B); the qualitative conclusion —
        decreasing for m < m_s, increasing after, minimum near m_s — is
        unchanged, and is what Table VIII and Figure 7 test.
        """
        c = self.counts
        shape = self.model.shape
        # The constants are exact for the bound model; with an engine
        # profile the effective rates scale the same way, keeping each
        # expansion identical to average_step_time in its regime (the
        # profiled tests verify this too).
        prof = self.model.profile
        bw_scale = prof.bw_scale if prof is not None else 1.0
        flop_scale = prof.flop_scale if prof is not None else 1.0
        B = self.machine.stream_bw * bw_scale
        F = self.machine.flop_rate * flop_scale
        sx, fa, sa = shape.sx, shape.fa, shape.sa
        nb, nnzb = shape.nb, shape.nnzb
        t1 = self.model.time_bandwidth(1)
        c_bytes = INDEX_BYTES * nb + nnzb * (INDEX_BYTES + sa)
        P = (c.n_noguess + c.cheb_order) * sx * nb / B
        R = (c.n_first + c.n_second + c.cheb_order) * t1
        Q = (c.n_noguess + c.cheb_order) * c_bytes / B - (
            c.n_first + c.cheb_order
        ) * t1
        W = (c.n_noguess + c.cheb_order) * fa * nnzb / F
        V = (c.n_first + c.cheb_order) * t1
        return {"P": P, "Q": Q, "R": R, "W": W, "V": V}

    def bandwidth_regime_time(self, m: int) -> float:
        """Eq. 11 evaluated directly (exact for ``m < m_s``)."""
        consts = self.regime_constants()
        k_m = self.model.k(m)
        return (3.0 + k_m) * consts["P"] + consts["Q"] / m + consts["R"]

    def compute_regime_time(self, m: int) -> float:
        """Eq. 12 evaluated directly (exact for ``m >= m_s``)."""
        consts = self.regime_constants()
        return consts["W"] + consts["R"] - consts["V"] / m
