"""Shifted Chebyshev approximation of the matrix square root.

Computing Brownian forces needs ``L z`` with ``L L^T = R``.  For large
sparse ``R`` the paper follows Fixman (1986): approximate ``sqrt`` by a
Chebyshev polynomial ``S`` on an interval ``[lam_min, lam_max]``
containing the spectrum, and evaluate ``S(R) z`` with nothing but
matrix-vector products — "particularly advantageous when R is sparse".

Crucially for this paper, the recurrence applies ``R`` to whole
*blocks* of vectors at once, so ``S(R) Z`` for an ``(n, m)`` block
costs ``Cmax`` GSPMVs instead of ``m * Cmax`` SPMVs — this is the
"Cheb vectors" phase of Algorithm 2.

The evaluation uses the standard three-term recurrence on the shifted
operator ``As = (2 A - (lmax+lmin) I) / (lmax - lmin)``:

    T_0(As) Z = Z,  T_1(As) Z = As Z,
    T_{k+1}(As) Z = 2 As T_k(As) Z - T_{k-1}(As) Z,

    S(A) Z = c_0/2 Z + sum_{k>=1} c_k T_k(As) Z.

Coefficients come from Chebyshev-Gauss interpolation of ``sqrt`` on the
interval, whose error decays geometrically in the degree for functions
analytic on the interval (sqrt is, as long as ``lam_min > 0``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.util.rng import RngLike, as_rng

__all__ = [
    "chebyshev_coefficients",
    "ChebyshevSqrt",
    "lanczos_spectrum_bounds",
    "gershgorin_bounds",
]


def chebyshev_coefficients(func, lam_min: float, lam_max: float, degree: int) -> np.ndarray:
    """Chebyshev interpolation coefficients of ``func`` on ``[lam_min, lam_max]``.

    Returns ``degree + 1`` coefficients ``c_k`` in the convention
    ``f(x) ~= c_0/2 + sum_{k=1}^{degree} c_k T_k(t)`` with
    ``t = (2x - lmax - lmin)/(lmax - lmin)``.
    """
    if not lam_max > lam_min:
        raise ValueError("lam_max must exceed lam_min")
    if degree < 0:
        raise ValueError("degree must be non-negative")
    K = degree + 1
    k = np.arange(K)
    theta = np.pi * (k + 0.5) / K
    t = np.cos(theta)  # Chebyshev-Gauss nodes
    x = 0.5 * (lam_max - lam_min) * t + 0.5 * (lam_max + lam_min)
    fx = func(x)
    # c_j = (2/K) sum_k f(x_k) cos(j theta_k)
    j = np.arange(K)[:, None]
    return (2.0 / K) * (fx[None, :] * np.cos(j * theta[None, :])).sum(axis=1)


@dataclass(frozen=True)
class ChebyshevSqrt:
    """A fixed-degree Chebyshev approximation of ``sqrt`` on an interval.

    Build once per resistance matrix (spectrum bounds change as the
    configuration evolves), then apply to any number of vectors or
    blocks.
    """

    lam_min: float
    lam_max: float
    degree: int
    coefficients: np.ndarray

    @classmethod
    def fit(cls, lam_min: float, lam_max: float, degree: int = 30) -> "ChebyshevSqrt":
        """Fit ``sqrt`` on ``[lam_min, lam_max]`` (the paper uses degree 30)."""
        if lam_min <= 0:
            raise ValueError("lam_min must be positive (R is SPD)")
        coeffs = chebyshev_coefficients(np.sqrt, lam_min, lam_max, degree)
        return cls(
            lam_min=float(lam_min),
            lam_max=float(lam_max),
            degree=int(degree),
            coefficients=coeffs,
        )

    # ------------------------------------------------------------------
    def evaluate_scalar(self, x: np.ndarray) -> np.ndarray:
        """Evaluate the polynomial on scalars (for error measurement)."""
        x = np.asarray(x, dtype=np.float64)
        t = (2.0 * x - self.lam_max - self.lam_min) / (self.lam_max - self.lam_min)
        c = self.coefficients
        Tkm1 = np.ones_like(t)
        out = 0.5 * c[0] * Tkm1
        if self.degree >= 1:
            Tk = t
            out = out + c[1] * Tk
            for k in range(2, self.degree + 1):
                Tkp1 = 2.0 * t * Tk - Tkm1
                Tkm1, Tk = Tk, Tkp1
                out = out + c[k] * Tk
        return out

    def max_relative_error(self, samples: int = 2001) -> float:
        """Max of ``|S(x) - sqrt(x)| / sqrt(x)`` over the interval."""
        x = np.linspace(self.lam_min, self.lam_max, samples)
        return float(np.max(np.abs(self.evaluate_scalar(x) - np.sqrt(x)) / np.sqrt(x)))

    # ------------------------------------------------------------------
    def apply(self, A, Z: np.ndarray, *, matmul=None) -> np.ndarray:
        """Compute ``S(A) Z`` using only products with ``A``.

        ``Z`` may be a vector or an ``(n, m)`` block; the recurrence
        then runs on whole blocks (one GSPMV per degree).  ``matmul``
        optionally overrides how products are computed (used by the
        instrumented drivers to count kernel invocations).
        """
        Z = np.asarray(Z, dtype=np.float64)
        mul = matmul if matmul is not None else (lambda X: A @ X)
        span = self.lam_max - self.lam_min
        shift = self.lam_max + self.lam_min

        # In place only on arrays allocated here: never on Z, nor on what
        # ``mul`` returned (an override may still hold it).  The same
        # elementwise operations in the same order as
        # ``(2 mul(X) - shift X) / span``, so the same bytes.
        def shifted(X: np.ndarray) -> np.ndarray:
            Y = 2.0 * mul(X)
            Y -= shift * X
            Y /= span
            return Y

        c = self.coefficients
        Tkm1 = Z
        out = 0.5 * c[0] * Z
        if self.degree >= 1:
            Tk = shifted(Z)
            out += c[1] * Tk
            for k in range(2, self.degree + 1):
                Tkp1 = shifted(Tk)
                Tkp1 *= 2.0
                Tkp1 -= Tkm1
                Tkm1, Tk = Tk, Tkp1
                out += c[k] * Tk
        return out


def gershgorin_bounds(A) -> Tuple[float, float]:
    """Cheap spectrum enclosure of a symmetric BCRS matrix.

    Returns ``(lower, upper)`` from Gershgorin discs on the scalar
    matrix; the lower bound is clamped at a small positive floor since
    the resistance matrix is known SPD.
    """
    from repro.sparse.convert import bcrs_to_scipy

    csr = bcrs_to_scipy(A, "csr")
    diag = csr.diagonal()
    radius = np.asarray(abs(csr).sum(axis=1)).ravel() - np.abs(diag)
    upper = float(np.max(diag + radius))
    lower = float(np.min(diag - radius))
    floor = 1e-10 * max(upper, 1.0)
    return max(lower, floor), upper


def lanczos_spectrum_bounds(
    A,
    *,
    rng: RngLike = None,
    safety: float = 1.05,
    tol: float = 1e-3,
    lower: Optional[float] = None,
) -> Tuple[float, float]:
    """Estimate ``(lam_min, lam_max)`` of an SPD operator by Lanczos.

    Uses scipy's implicitly-restarted Lanczos on both ends of the
    spectrum, widened by ``safety`` (the Chebyshev interval must
    *contain* the spectrum).  Falls back to Gershgorin discs if Lanczos
    does not converge.

    ``lower`` is a proven lower bound on ``lam_min`` — for a resistance
    matrix, the far-field drag floor
    (:func:`~repro.stokesian.resistance.far_field_drag`).  When given,
    the smallest-eigenvalue solve (by far the slower end) is skipped and
    ``lower`` is returned as is: it is a proof, not an estimate, so it
    is not widened.  Only the top end is then estimated.
    """
    import scipy.sparse.linalg as spla

    if lower is not None and not lower > 0:
        raise ValueError(f"lower must be positive, got {lower}")
    n = A.shape[0]
    if n <= 2:
        dense = A.to_dense() if hasattr(A, "to_dense") else np.asarray(A)
        w = np.linalg.eigvalsh(dense)
        lo = float(w[0]) / safety if lower is None else float(lower)
        return lo, float(w[-1]) * safety

    gen = as_rng(rng)
    v0 = gen.standard_normal(n)
    op = spla.LinearOperator((n, n), matvec=lambda x: A @ x, dtype=np.float64)

    def extreme(which: str) -> float:
        return float(
            spla.eigsh(op, k=1, which=which, tol=tol, v0=v0, return_eigenvectors=False)[0]
        )

    try:
        lam_max = extreme("LA")
        if lower is not None:
            return float(lower), lam_max * safety
        lam_min = extreme("SA")
        if lam_min <= 0:
            raise ValueError("non-positive Ritz value")
    except Exception:
        lo, hi = gershgorin_bounds(A)
        return (lo if lower is None else float(lower)), hi * safety
    return lam_min / safety, lam_max * safety
