"""Block-Jacobi preconditioning: one batched build, one batched apply,
and the drivers apply what ``SDParameters.precondition`` says.

The preconditioner is checked against the per-block loop and ``einsum``
apply it replaced, kept here as the oracle.  Blocks inverted by LAPACK
are the same call per block, so they must agree bit for bit; 3x3 blocks
inverted in closed form (adj/det) are held to the inversion error
bound, and the apply, which sums each ``b``-term dot product in an
order (and with FMA use) of the BLAS kernel's choosing, to the
dot-product error bound.
"""

import numpy as np
import pytest

import repro.stokesian.dynamics as dynamics
from repro.core.mrhs import MrhsParameters, MrhsStokesianDynamics
from repro.resilience import CheckpointManager, resume_driver
from repro.solvers.block_cg import block_conjugate_gradient
from repro.solvers.cg import conjugate_gradient
from repro.solvers.precond import BlockJacobiPreconditioner
from repro.sparse.bcrs import BCRSMatrix
from repro.stokesian.dynamics import SDParameters, StokesianDynamics
from repro.stokesian.packing import random_configuration

EPS = np.finfo(np.float64).eps


class LoopBlockJacobi:
    """The replaced implementation: per-block ``inv`` with an identity
    fallback on ``LinAlgError``, applied by ``einsum``."""

    def __init__(self, A: BCRSMatrix) -> None:
        blocks = A.diagonal_blocks()
        b = A.block_size
        inv = np.empty_like(blocks)
        for i, blk in enumerate(blocks):
            try:
                inv[i] = np.linalg.inv(blk)
            except np.linalg.LinAlgError:
                inv[i] = np.eye(b)
        self.inv_blocks = inv
        self.b = b

    def __call__(self, v: np.ndarray) -> np.ndarray:
        v = np.asarray(v)
        squeeze = v.ndim == 1
        V = v[:, None] if squeeze else v
        nb = self.inv_blocks.shape[0]
        Vb = V.reshape(nb, self.b, V.shape[1])
        out = np.einsum("kij,kjm->kim", self.inv_blocks, Vb).reshape(V.shape)
        return out[:, 0] if squeeze else out


def _conditioned(rng, b: int, cond: float) -> np.ndarray:
    Q, _ = np.linalg.qr(rng.standard_normal((b, b)))
    return (Q * np.logspace(0, -np.log10(cond), b)) @ Q.T


LAPACK_ROUTED = (1, 2, 3, 4, 5)
"""Diagonal blocks of :func:`_matrix` that every block size inverts by
LAPACK (3x3 blocks take the closed form unless their determinant is
tiny against their scale)."""


def _matrix(b: int, nb: int = 12, seed: int = 0) -> BCRSMatrix:
    """Random BCRS matrix whose diagonal blocks cover every fallback case:
    block 1 is zero, block 2 rank-deficient (an exact zero pivot),
    block 3 missing (read back as zero), block 4 nonsingular with a
    determinant that underflows to 0, block 5 nonsingular with
    condition number 1e10, block 6 with condition number 1e4, the rest
    well conditioned."""
    rng = np.random.default_rng(seed)
    diag = rng.standard_normal((nb, b, b)) + 2 * b * np.eye(b)
    diag[1] = 0.0
    diag[2, 1] = diag[2, 0]
    diag[4] = 1e-110 * (np.eye(b) + 0.1 * rng.standard_normal((b, b)))
    diag[5] = _conditioned(rng, b, 1e10)
    diag[6] = _conditioned(rng, b, 1e4)
    keep = np.array([i for i in range(nb) if i != 3])
    off_rows = rng.integers(0, nb, size=3 * nb)
    off_cols = (off_rows + rng.integers(1, nb, size=off_rows.size)) % nb
    rows = np.concatenate([keep, off_rows])
    cols = np.concatenate([keep, off_cols])
    blocks = np.concatenate(
        [diag[keep], rng.standard_normal((off_rows.size, b, b))]
    )
    return BCRSMatrix.from_block_coo(nb, nb, rows, cols, blocks)


def _apply_bound(oracle: LoopBlockJacobi, V: np.ndarray) -> np.ndarray:
    """``2 * gamma_b * (|M^-1| |V|)``: each entry is a b-term dot
    product, and two evaluation orders each lie within ``gamma_b``
    times that sum of the exact value."""
    b = oracle.b
    gamma = b * EPS / (1 - b * EPS)
    nb = oracle.inv_blocks.shape[0]
    mag = np.matmul(np.abs(oracle.inv_blocks), np.abs(V).reshape(nb, b, -1))
    return 2 * gamma * mag.reshape(V.shape)


BLOCK_SIZES = pytest.mark.parametrize("b", [2, 3, 4])


def _inverse_blocks(M: BlockJacobiPreconditioner, A: BCRSMatrix) -> np.ndarray:
    """``M`` applied to the identity is blockdiag(M^-1), exactly: every
    product is with 0 or 1, so no order of summation can round."""
    b = A.block_size
    got = M(np.eye(A.n_rows)).reshape(A.nb_rows, b, A.nb_rows, b)
    return np.stack([got[k, :, k, :] for k in range(A.nb_rows)])


def _einsum_oracle(A: BCRSMatrix) -> LoopBlockJacobi:
    """The old ``einsum`` apply over the new inverse blocks, so that
    only the apply's arithmetic differs."""
    oracle = LoopBlockJacobi(A)
    oracle.inv_blocks = _inverse_blocks(BlockJacobiPreconditioner(A), A)
    return oracle


class TestAgainstLoopOracle:
    @pytest.mark.parametrize("b", [2, 4])
    def test_lapack_inverse_blocks_bitwise(self, b):
        A = _matrix(b)
        got = _inverse_blocks(BlockJacobiPreconditioner(A), A)
        np.testing.assert_array_equal(got, LoopBlockJacobi(A).inv_blocks)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_closed_form_3x3_inverse(self, seed):
        A = _matrix(3, seed=seed)
        got = _inverse_blocks(BlockJacobiPreconditioner(A), A)
        want = LoopBlockJacobi(A).inv_blocks
        routed = list(LAPACK_ROUTED)
        np.testing.assert_array_equal(got[routed], want[routed])
        closed = [k for k in range(A.nb_rows) if k not in routed]
        # Both are inverses computed in floating point: each lies within
        # O(cond(A_kk) * eps) * |A_kk^-1| of the exact one.
        cond = np.linalg.cond(A.diagonal_blocks()[closed])
        err = np.abs(got[closed] - want[closed]).max(axis=(1, 2))
        scale = np.abs(want[closed]).max(axis=(1, 2))
        assert np.all(err <= 10 * cond * EPS * scale)
        # The closed form keeps a symmetric block's inverse symmetric.
        sym = A.diagonal_blocks()[closed]
        sym = sym + sym.transpose(0, 2, 1)
        S = BCRSMatrix.from_block_coo(
            len(closed), len(closed), np.arange(len(closed)),
            np.arange(len(closed)), sym,
        )
        inv = _inverse_blocks(BlockJacobiPreconditioner(S), S)
        np.testing.assert_array_equal(inv, inv.transpose(0, 2, 1))

    @BLOCK_SIZES
    def test_singular_blocks_fall_back_to_identity(self, b):
        A = _matrix(b)
        M = BlockJacobiPreconditioner(A)
        v = np.random.default_rng(1).standard_normal(A.n_rows)
        out = M(v).reshape(-1, b)
        for k in (1, 2, 3):  # zero, rank-deficient, missing
            np.testing.assert_array_equal(out[k], v.reshape(-1, b)[k])
        # The tiny block is not singular: it is inverted, not replaced.
        assert np.abs(out[4]).max() > 1e100

    @BLOCK_SIZES
    @pytest.mark.parametrize("m", [None, 1, 5])
    def test_apply_within_dot_product_bound(self, b, m):
        A = _matrix(b, seed=b)
        new, old = BlockJacobiPreconditioner(A), _einsum_oracle(A)
        shape = (A.n_rows,) if m is None else (A.n_rows, m)
        V = np.random.default_rng(2).standard_normal(shape)
        got, want = new(V), old(V)
        assert got.shape == want.shape == V.shape
        assert np.all(np.abs(got - want) <= _apply_bound(old, V))

    @BLOCK_SIZES
    def test_non_contiguous_slices(self, b):
        A = _matrix(b)
        M = BlockJacobiPreconditioner(A)
        old = _einsum_oracle(A)
        V = np.random.default_rng(3).standard_normal((A.n_rows, 6))
        for view in (V[:, 2], V[:, ::2], V[:, 1:4]):
            assert not view.flags.c_contiguous
            # Same arithmetic as on a contiguous copy: bitwise.
            np.testing.assert_array_equal(M(view), M(np.ascontiguousarray(view)))
            assert np.all(np.abs(M(view) - old(view)) <= _apply_bound(old, view))

    def test_apply_does_not_alias_its_input(self):
        A = _matrix(3)
        v = np.ones(A.n_rows)
        out = BlockJacobiPreconditioner(A)(v)
        assert not np.shares_memory(out, v)


# ----------------------------------------------------------------------
# drivers
# ----------------------------------------------------------------------
N, PHI = 60, 0.45


def _system():
    return random_configuration(N, PHI, rng=3)


@pytest.fixture
def builds(monkeypatch):
    """Count the preconditioners the drivers build."""
    count = []

    class Counting(BlockJacobiPreconditioner):
        def __init__(self, A):
            count.append(A)
            super().__init__(A)

    monkeypatch.setattr(dynamics, "BlockJacobiPreconditioner", Counting)
    return count


class TestDriversApplyTheParameter:
    def test_default_is_on(self):
        assert SDParameters().precondition is True

    @pytest.mark.parametrize("precondition", [False, True])
    def test_solve_applies_it_exactly_when_set(self, precondition):
        sd = StokesianDynamics(
            _system(), SDParameters(precondition=precondition), rng=4
        )
        R = sd.build_matrix()
        rhs = np.random.default_rng(5).standard_normal(R.n_rows)
        got = sd.solve(R, rhs)
        pre = BlockJacobiPreconditioner(R) if precondition else None
        want = conjugate_gradient(
            R, rhs, tol=sd.params.tol, max_iter=sd.params.max_iter,
            preconditioner=pre,
        )
        np.testing.assert_array_equal(got.x, want.x)
        assert got.iterations == want.iterations
        other = conjugate_gradient(
            R, rhs, tol=sd.params.tol, max_iter=sd.params.max_iter,
            preconditioner=None if precondition else BlockJacobiPreconditioner(R),
        )
        assert got.iterations != other.iterations

    @pytest.mark.parametrize("precondition, per_step", [(False, 0), (True, 2)])
    def test_step_builds_one_per_solve(self, builds, precondition, per_step):
        sd = StokesianDynamics(
            _system(), SDParameters(precondition=precondition), rng=4
        )
        sd.run(2)
        assert len(builds) == 2 * per_step

    @pytest.mark.parametrize("precondition", [False, True])
    def test_mrhs_chunk_builds_one_for_the_block_solve(
        self, builds, assemblies, precondition
    ):
        m = 3
        driver = MrhsStokesianDynamics(
            _system(), SDParameters(precondition=precondition),
            MrhsParameters(m=m), rng=4,
        )
        R0 = driver.sd.build_matrix()
        Z = driver.sd.draw_noise(m)
        _, block, _ = driver.solve_auxiliary(R0, Z)
        assert len(builds) == int(precondition)
        pre = BlockJacobiPreconditioner(R0) if precondition else None
        F_B = driver.sd.brownian_generator(R0).generate(Z)
        # The generator consumed no noise, so it reproduces F_B exactly.
        want = block_conjugate_gradient(
            R0, -F_B, tol=driver.params.tol, max_iter=driver.params.max_iter,
            preconditioner=pre,
        )
        np.testing.assert_array_equal(block.X, want.X)
        # A chunk has 2m configurations (R_0, R_half_0, R_1, ...,
        # R_half_{m-1}); R_0 serves the block solve and step 0 alike, so
        # each is assembled once and preconditioned once.
        driver = MrhsStokesianDynamics(
            _system(), SDParameters(precondition=precondition),
            MrhsParameters(m=m), rng=4,
        )
        builds.clear()
        assemblies.clear()
        driver.run(1)
        assert len(assemblies) == 2 * m
        assert len(builds) == 2 * m * int(precondition)


class TestResume:
    def test_unpreconditioned_checkpoint_resumes_unpreconditioned(self, tmp_path):
        params = SDParameters(precondition=False)
        reference = StokesianDynamics(_system(), params, rng=4)
        reference.run(4)

        first = StokesianDynamics(_system(), params, rng=4)
        first.run(2)
        manager = CheckpointManager(tmp_path)
        manager.save(first.get_state(), step=first.step_index)
        state, _ = manager.load()
        resumed = resume_driver(state)
        assert resumed.params.precondition is False
        resumed.run(2)
        np.testing.assert_array_equal(
            resumed.system.positions, reference.system.positions
        )
        # A resume that fell back to the default would move the bits.
        state["params"]["precondition"] = True
        flipped = resume_driver(state)
        flipped.run(2)
        assert not np.array_equal(
            flipped.system.positions, reference.system.positions
        )


class TestPinnedIterations:
    """First-solve iterations on a small dense packing (n=60, phi=0.45),
    on the default (``cgen``) engine."""

    @pytest.mark.parametrize(
        "precondition, original, mrhs",
        [
            (False, [74, 74, 73], [0, 36, 36, 54]),
            (True, [49, 49, 48], [0, 22, 23, 35]),
        ],
    )
    def test_first_solve_iterations(self, precondition, original, mrhs):
        params = SDParameters(precondition=precondition)
        sd = StokesianDynamics(_system(), params, rng=4)
        sd.run(3)
        assert [r.iterations_first for r in sd.history] == original
        driver = MrhsStokesianDynamics(
            _system(), params, MrhsParameters(m=4), rng=4
        )
        assert driver.run_chunk().first_solve_iterations == mrhs
