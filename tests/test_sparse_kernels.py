"""Tests for SPMV/GSPMV kernels against scipy ground truth."""

import numpy as np
import pytest

from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.convert import bcrs_to_scipy
from repro.sparse.gspmv import gspmv, gspmv_into
from repro.sparse.kernels import KernelRegistry, get_default_registry
from repro.sparse.spmv import spmv
from repro.sparse import available_engines
from tests.conftest import random_bcrs

# Every concrete engine present in this environment (cgen needs a C
# toolchain); test_sparse_engines.py holds the deeper per-engine suites.
ENGINES = list(available_engines())


@pytest.fixture(params=ENGINES)
def engine(request):
    return request.param


class TestSpmv:
    def test_matches_scipy(self, small_bcrs, engine):
        csr = bcrs_to_scipy(small_bcrs)
        x = np.random.default_rng(0).standard_normal(small_bcrs.n_cols)
        np.testing.assert_allclose(
            spmv(small_bcrs, x, engine=engine), csr @ x, rtol=1e-12
        )

    def test_rejects_multivector(self, small_bcrs):
        with pytest.raises(ValueError, match="1-D"):
            spmv(small_bcrs, np.ones((small_bcrs.n_cols, 2)))

    def test_out_buffer(self, small_bcrs, engine):
        x = np.ones(small_bcrs.n_cols)
        out = np.empty(small_bcrs.n_rows)
        y = spmv(small_bcrs, x, out=out, engine=engine)
        assert y is out
        np.testing.assert_allclose(out, spmv(small_bcrs, x, engine=engine))

    def test_out_wrong_shape(self, small_bcrs):
        with pytest.raises(ValueError, match="out"):
            spmv(small_bcrs, np.ones(small_bcrs.n_cols), out=np.empty(3))

    def test_identity(self, engine):
        I = BCRSMatrix.block_identity(7)
        x = np.random.default_rng(1).standard_normal(21)
        np.testing.assert_allclose(spmv(I, x, engine=engine), x)


class TestGspmv:
    @pytest.mark.parametrize("m", [1, 2, 4, 8, 16])
    def test_matches_scipy(self, small_bcrs, engine, m):
        csr = bcrs_to_scipy(small_bcrs)
        X = np.random.default_rng(m).standard_normal((small_bcrs.n_cols, m))
        np.testing.assert_allclose(
            gspmv(small_bcrs, X, engine=engine), csr @ X, rtol=1e-12
        )

    def test_columns_equal_individual_spmv(self, small_bcrs, engine):
        """GSPMV column j must equal SPMV of column j exactly."""
        X = np.random.default_rng(3).standard_normal((small_bcrs.n_cols, 5))
        Y = gspmv(small_bcrs, X, engine=engine)
        for j in range(5):
            np.testing.assert_allclose(
                Y[:, j], spmv(small_bcrs, X[:, j], engine=engine), rtol=1e-12
            )

    def test_1d_input_returns_1d(self, small_bcrs, engine):
        x = np.ones(small_bcrs.n_cols)
        assert gspmv(small_bcrs, x, engine=engine).ndim == 1

    def test_wrong_row_count(self, small_bcrs):
        with pytest.raises(ValueError, match="rows"):
            gspmv(small_bcrs, np.ones((small_bcrs.n_cols + 3, 2)))

    def test_empty_rows_handled(self, engine):
        """Matrix with empty block rows (zero rows in BCRS)."""
        A = BCRSMatrix.from_block_coo(
            4, 4, [0, 3], [1, 2], np.stack([np.eye(3), 2 * np.eye(3)])
        )
        X = np.random.default_rng(4).standard_normal((12, 3))
        expected = A.to_dense() @ X
        np.testing.assert_allclose(gspmv(A, X, engine=engine), expected, rtol=1e-12)

    def test_trailing_empty_rows(self, engine):
        A = BCRSMatrix.from_block_coo(5, 5, [0], [0], np.eye(3)[None])
        X = np.ones((15, 2))
        Y = gspmv(A, X, engine=engine)
        np.testing.assert_allclose(Y[:3], 1.0)
        np.testing.assert_allclose(Y[3:], 0.0)

    def test_empty_matrix(self, engine):
        A = BCRSMatrix.from_block_coo(3, 3, [], [], np.zeros((0, 3, 3)))
        Y = gspmv(A, np.ones((9, 2)), engine=engine)
        np.testing.assert_allclose(Y, 0.0)

    def test_gspmv_into(self, small_bcrs, engine):
        X = np.ones((small_bcrs.n_cols, 4))
        out = np.empty((small_bcrs.n_rows, 4))
        Y = gspmv_into(small_bcrs, X, out, engine=engine)
        assert Y is out
        np.testing.assert_allclose(out, gspmv(small_bcrs, X, engine=engine))

    def test_gspmv_into_shape_check(self, small_bcrs):
        with pytest.raises(ValueError, match="out"):
            gspmv_into(small_bcrs, np.ones((small_bcrs.n_cols, 4)), np.empty((2, 4)))

    def test_engines_agree(self, small_bcrs):
        X = np.random.default_rng(5).standard_normal((small_bcrs.n_cols, 6))
        np.testing.assert_allclose(
            gspmv(small_bcrs, X, engine="blocked"),
            gspmv(small_bcrs, X, engine="scipy"),
            rtol=1e-12,
        )

    def test_large_random_matrix(self, engine):
        A = random_bcrs(100, 12.0, seed=7)
        X = np.random.default_rng(6).standard_normal((A.n_cols, 8))
        csr = bcrs_to_scipy(A)
        np.testing.assert_allclose(gspmv(A, X, engine=engine), csr @ X, rtol=1e-11)


class TestKernelRegistry:
    def test_plan_cached(self):
        reg = KernelRegistry()
        p1 = reg.blocked_plan(3, 4)
        p2 = reg.blocked_plan(3, 4)
        assert p1 is p2

    def test_scipy_view_cached(self, small_bcrs):
        reg = KernelRegistry()
        v1 = reg.scipy_view(small_bcrs)
        v2 = reg.scipy_view(small_bcrs)
        assert v1 is v2

    def test_unknown_engine(self, small_bcrs):
        reg = KernelRegistry()
        with pytest.raises(ValueError, match="engine"):
            reg.multiply(small_bcrs, np.ones(small_bcrs.n_cols), engine="cuda")

    def test_default_registry_is_shared(self):
        assert get_default_registry() is get_default_registry()
