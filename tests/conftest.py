"""Shared fixtures: small random BCRS matrices and particle systems,
a spy on checkpoint writes, and a count of the drivers' R assemblies."""

import numpy as np
import pytest

from repro.sparse.bcrs import BCRSMatrix


def random_bcrs(
    nb: int,
    blocks_per_row: float,
    *,
    seed: int = 0,
    block_size: int = 3,
    symmetric: bool = False,
    spd: bool = False,
) -> BCRSMatrix:
    """Build a random block-sparse matrix with roughly the requested density.

    With ``spd=True`` the result is symmetric positive definite via
    diagonal dominance (each diagonal block gets row-sum + identity).
    """
    rng = np.random.default_rng(seed)
    n_off = max(0, int(nb * blocks_per_row) - nb)
    rows = rng.integers(0, nb, size=n_off)
    cols = rng.integers(0, nb, size=n_off)
    keep = rows != cols
    rows, cols = rows[keep], cols[keep]
    blocks = rng.standard_normal((len(rows), block_size, block_size))
    if symmetric or spd:
        rows, cols = np.concatenate([rows, cols]), np.concatenate([cols, rows])
        blocks = np.concatenate([blocks, np.transpose(blocks, (0, 2, 1))])
    diag_rows = np.arange(nb)
    diag_blocks = np.zeros((nb, block_size, block_size))
    all_rows = np.concatenate([rows, diag_rows])
    all_cols = np.concatenate([cols, diag_rows])
    all_blocks = np.concatenate([blocks, diag_blocks])
    A = BCRSMatrix.from_block_coo(nb, nb, all_rows, all_cols, all_blocks)
    if spd:
        # Diagonal dominance: D_i = (sum_j |A_ij|_F + 1) * I.
        dom = np.zeros(nb)
        r = np.repeat(np.arange(nb), np.diff(A.row_ptr))
        np.add.at(dom, r, np.abs(A.blocks).sum(axis=(1, 2)))
        D = np.einsum("i,jk->ijk", dom + 1.0, np.eye(block_size))
        A = A.add_block_diagonal(D)
    return A


@pytest.fixture
def small_bcrs():
    return random_bcrs(20, 5.0, seed=1)


@pytest.fixture
def spd_bcrs():
    return random_bcrs(15, 4.0, seed=2, spd=True)


@pytest.fixture
def small_csr(small_bcrs):
    from repro.sparse.convert import bcrs_to_scipy

    return bcrs_to_scipy(small_bcrs, "csr")


@pytest.fixture
def checkpoint_saves(monkeypatch):
    """The step of every ``CheckpointManager.save``, in call order
    (async writes included: the writer thread calls ``save``)."""
    from repro.resilience.checkpoint import CheckpointManager

    steps = []
    real_save = CheckpointManager.save

    def spy(self, state, *, step):
        steps.append(step)
        return real_save(self, state, step=step)

    monkeypatch.setattr(CheckpointManager, "save", spy)
    return steps


@pytest.fixture
def assemblies(monkeypatch):
    """Every R the Stokesian drivers assemble, in order."""
    import repro.stokesian.dynamics as dynamics

    built = []
    build = dynamics.build_resistance_matrix
    monkeypatch.setattr(
        dynamics, "build_resistance_matrix",
        lambda *a, **k: built.append(build(*a, **k)) or built[-1],
    )
    return built
