"""Tests for the Chebyshev matrix square root."""

import numpy as np
import pytest

from repro.stokesian.chebyshev import (
    ChebyshevSqrt,
    chebyshev_coefficients,
    gershgorin_bounds,
    lanczos_spectrum_bounds,
)
from tests.conftest import random_bcrs


def _expression_form(approx: ChebyshevSqrt, A, Z: np.ndarray) -> np.ndarray:
    """``S(A) Z`` as the recurrence was once written, one temporary per
    operation (the oracle for the in-place form)."""
    span = approx.lam_max - approx.lam_min
    shift = approx.lam_max + approx.lam_min

    def shifted(X):
        return (2.0 * (A @ X) - shift * X) / span

    c = approx.coefficients
    Tkm1 = Z
    out = 0.5 * c[0] * Z
    Tk = shifted(Z)
    out = out + c[1] * Tk
    for k in range(2, approx.degree + 1):
        Tkp1 = 2.0 * shifted(Tk) - Tkm1
        Tkm1, Tk = Tk, Tkp1
        out = out + c[k] * Tk
    return out


class TestCoefficients:
    def test_constant_function(self):
        c = chebyshev_coefficients(lambda x: np.full_like(x, 5.0), 1.0, 2.0, 4)
        assert c[0] == pytest.approx(10.0)  # c0/2 convention
        np.testing.assert_allclose(c[1:], 0.0, atol=1e-12)

    def test_linear_function_exact(self):
        approx = ChebyshevSqrt(
            lam_min=1.0,
            lam_max=3.0,
            degree=3,
            coefficients=chebyshev_coefficients(lambda x: 2 * x + 1, 1.0, 3.0, 3),
        )
        x = np.linspace(1.0, 3.0, 7)
        np.testing.assert_allclose(approx.evaluate_scalar(x), 2 * x + 1, rtol=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            chebyshev_coefficients(np.sqrt, 2.0, 1.0, 3)
        with pytest.raises(ValueError):
            chebyshev_coefficients(np.sqrt, 1.0, 2.0, -1)


class TestChebyshevSqrt:
    def test_scalar_accuracy(self):
        """Error follows the Chebyshev rate ((sqrt(k)-1)/(sqrt(k)+1))^d:
        for condition 200 at degree 30 that is ~1.4e-2."""
        approx = ChebyshevSqrt.fit(0.5, 100.0, degree=30)
        x = np.linspace(0.5, 100.0, 501)
        np.testing.assert_allclose(approx.evaluate_scalar(x), np.sqrt(x), rtol=5e-2)

    def test_error_decreases_with_degree(self):
        errs = [
            ChebyshevSqrt.fit(1.0, 50.0, degree=d).max_relative_error()
            for d in (5, 15, 30)
        ]
        assert errs[0] > errs[1] > errs[2]

    def test_paper_degree_30_accuracy(self):
        """Degree 30 on a condition-100 interval: rate 0.818^30 ~ 2e-3."""
        approx = ChebyshevSqrt.fit(1.0, 100.0, degree=30)
        assert approx.max_relative_error() < 1e-2

    def test_requires_positive_interval(self):
        with pytest.raises(ValueError, match="positive"):
            ChebyshevSqrt.fit(0.0, 10.0)

    def test_matrix_apply_matches_dense_sqrtm(self):
        """S(A) z ~ sqrtm(A) z for SPD A with spectrum inside the interval."""
        A = random_bcrs(8, 3.0, seed=0, spd=True)
        dense = A.to_dense()
        w, V = np.linalg.eigh(dense)
        sqrt_dense = (V * np.sqrt(w)) @ V.T
        approx = ChebyshevSqrt.fit(0.9 * w.min(), 1.1 * w.max(), degree=40)
        z = np.random.default_rng(1).standard_normal(A.n_rows)
        np.testing.assert_allclose(
            approx.apply(A, z), sqrt_dense @ z, rtol=1e-4, atol=1e-6
        )

    def test_block_apply_matches_columnwise(self):
        A = random_bcrs(8, 3.0, seed=2, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        approx = ChebyshevSqrt.fit(0.9 * w.min(), 1.1 * w.max(), degree=20)
        Z = np.random.default_rng(3).standard_normal((A.n_rows, 4))
        block = approx.apply(A, Z)
        for j in range(4):
            np.testing.assert_allclose(
                block[:, j], approx.apply(A, Z[:, j]), rtol=1e-12
            )

    def test_matmul_hook_counts_products(self):
        A = random_bcrs(6, 2.0, seed=4, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        degree = 12
        approx = ChebyshevSqrt.fit(0.9 * w.min(), 1.1 * w.max(), degree=degree)
        calls = []

        def counted(X):
            calls.append(1)
            return A @ X

        approx.apply(A, np.ones(A.n_rows), matmul=counted)
        assert len(calls) == degree  # one product per polynomial order

    @pytest.mark.parametrize("cols", [None, 1, 5])
    @pytest.mark.parametrize("override", [False, True])
    def test_in_place_recurrence_is_bitwise_the_expression_form(
        self, cols, override
    ):
        """The in-place recurrence against the expression form it
        replaced, kept here as the oracle: same bytes, and neither ``Z``
        nor any product the ``matmul`` override returned is written."""
        A = random_bcrs(40, 4.0, seed=5, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        approx = ChebyshevSqrt.fit(0.9 * w.min(), 1.1 * w.max(), degree=30)
        dims = (A.n_rows,) if cols is None else (A.n_rows, cols)
        Z = np.random.default_rng(6).standard_normal(dims)
        Z_before = Z.copy()
        held = []

        def holding(X):
            product = A @ X
            held.append((product, product.copy()))
            return product

        got = approx.apply(A, Z, matmul=holding if override else None)
        assert got.tobytes() == _expression_form(approx, A, Z).tobytes()
        assert Z.tobytes() == Z_before.tobytes()
        assert len(held) == (approx.degree if override else 0)
        for product, snapshot in held:
            assert product.tobytes() == snapshot.tobytes()

    def test_degree_zero(self):
        approx = ChebyshevSqrt.fit(4.0, 4.00001, degree=0)
        val = approx.evaluate_scalar(np.array([4.0]))[0]
        assert val == pytest.approx(2.0, rel=1e-4)


class TestSpectrumBounds:
    def test_lanczos_brackets_spectrum(self):
        A = random_bcrs(20, 5.0, seed=5, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        lo, hi = lanczos_spectrum_bounds(A, rng=0)
        assert lo <= w.min() * 1.01
        assert hi >= w.max() * 0.99
        assert lo > 0

    def test_gershgorin_brackets_spectrum(self):
        A = random_bcrs(15, 4.0, seed=6, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        lo, hi = gershgorin_bounds(A)
        assert hi >= w.max() - 1e-9
        assert lo <= w.min() + 1e-9
        assert lo > 0  # clamped floor

    def test_tiny_matrix_dense_path(self):
        A = random_bcrs(1, 1.0, seed=7, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        lo, hi = lanczos_spectrum_bounds(A)
        assert lo <= w.min() and hi >= w.max()


class TestProvenLowerBound:
    def test_lower_skips_smallest_eigenvalue_solve(self, monkeypatch):
        import scipy.sparse.linalg as spla

        A = random_bcrs(20, 5.0, seed=5, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        calls = []
        real = spla.eigsh
        monkeypatch.setattr(
            spla, "eigsh", lambda *a, **k: calls.append(k["which"]) or real(*a, **k)
        )
        lo, hi = lanczos_spectrum_bounds(A, rng=0, lower=0.5 * w[0], safety=1.1)
        assert calls == ["LA"]
        assert lo == 0.5 * w[0]  # a proof: returned unwidened
        assert hi >= w[-1] * 1.09

    def test_lower_keeps_the_start_vector_draw(self):
        A = random_bcrs(20, 5.0, seed=5, spd=True)
        a, b = np.random.default_rng(3), np.random.default_rng(3)
        lanczos_spectrum_bounds(A, rng=a)
        lanczos_spectrum_bounds(A, rng=b, lower=1.0)
        assert a.bit_generator.state == b.bit_generator.state

    def test_fallback_keeps_lower_and_widens_gershgorin_top(self, monkeypatch):
        import scipy.sparse.linalg as spla

        A = random_bcrs(15, 4.0, seed=6, spd=True)

        def failing(*a, **k):
            raise spla.ArpackNoConvergence("forced", np.empty(0), np.empty((0, 0)))

        monkeypatch.setattr(spla, "eigsh", failing)
        g_lo, g_hi = gershgorin_bounds(A)
        assert lanczos_spectrum_bounds(A, lower=0.25, safety=1.2) == (
            0.25,
            g_hi * 1.2,
        )
        assert lanczos_spectrum_bounds(A, safety=1.2) == (g_lo, g_hi * 1.2)

    def test_dense_path_takes_lower(self):
        A = random_bcrs(1, 1.0, seed=7, spd=True)
        w = np.linalg.eigvalsh(A.to_dense())
        lo, hi = lanczos_spectrum_bounds(A, lower=0.5 * w[0])
        assert lo == 0.5 * w[0] and hi >= w[-1]

    def test_non_positive_lower_rejected(self):
        A = random_bcrs(20, 5.0, seed=5, spd=True)
        with pytest.raises(ValueError, match="lower"):
            lanczos_spectrum_bounds(A, lower=0.0)


def test_gershgorin_matches_dense_discs():
    A = random_bcrs(12, 4.0, seed=9, spd=True)
    dense = A.to_dense()
    d = np.diag(dense)
    radius = np.abs(dense).sum(axis=1) - np.abs(d)
    lo, hi = gershgorin_bounds(A)
    assert hi == pytest.approx((d + radius).max(), rel=1e-14)
    assert lo == pytest.approx(max((d - radius).min(), 1e-10 * max(hi, 1.0)), rel=1e-14)
