"""Tests for repro.sparse.bcrs (BCRS storage format)."""

import numpy as np
import pytest

from repro.sparse.bcrs import BCRSMatrix
from tests.conftest import random_bcrs


def tiny_matrix():
    """2x2 block matrix with blocks at (0,0), (0,1), (1,1)."""
    blocks = np.stack([np.eye(3), 2 * np.eye(3), 3 * np.eye(3)])
    return BCRSMatrix(
        row_ptr=np.array([0, 2, 3]),
        col_ind=np.array([0, 1, 1]),
        blocks=blocks,
        nb_cols=2,
    )


class TestConstruction:
    def test_shape_properties(self):
        A = tiny_matrix()
        assert A.nb_rows == 2
        assert A.nb_cols == 2
        assert A.block_size == 3
        assert A.nnzb == 3
        assert A.nnz == 27
        assert A.shape == (6, 6)
        assert A.blocks_per_row == pytest.approx(1.5)

    def test_row_ptr_must_start_at_zero(self):
        with pytest.raises(ValueError, match="row_ptr"):
            BCRSMatrix(
                row_ptr=np.array([1, 2]),
                col_ind=np.array([0]),
                blocks=np.zeros((1, 3, 3)),
                nb_cols=1,
            )

    def test_row_ptr_must_be_monotone(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            BCRSMatrix(
                row_ptr=np.array([0, 2, 1]),
                col_ind=np.array([0, 0]),
                blocks=np.zeros((2, 3, 3)),
                nb_cols=1,
            )

    def test_col_ind_bounds_checked(self):
        with pytest.raises(ValueError, match="col_ind"):
            BCRSMatrix(
                row_ptr=np.array([0, 1]),
                col_ind=np.array([5]),
                blocks=np.zeros((1, 3, 3)),
                nb_cols=2,
            )

    def test_size_consistency_checked(self):
        with pytest.raises(ValueError, match="inconsistent"):
            BCRSMatrix(
                row_ptr=np.array([0, 2]),
                col_ind=np.array([0]),
                blocks=np.zeros((1, 3, 3)),
                nb_cols=1,
            )

    def test_nonsquare_blocks_rejected(self):
        with pytest.raises(ValueError):
            BCRSMatrix(
                row_ptr=np.array([0, 1]),
                col_ind=np.array([0]),
                blocks=np.zeros((1, 3, 2)),
                nb_cols=1,
            )


class TestFromBlockCoo:
    def test_duplicates_summed(self):
        A = BCRSMatrix.from_block_coo(
            1, 1, [0, 0], [0, 0], np.stack([np.eye(3), np.eye(3)])
        )
        assert A.nnzb == 1
        np.testing.assert_allclose(A.blocks[0], 2 * np.eye(3))

    def test_duplicates_raise_when_disallowed(self):
        with pytest.raises(ValueError, match="duplicate"):
            BCRSMatrix.from_block_coo(
                1, 1, [0, 0], [0, 0],
                np.stack([np.eye(3), np.eye(3)]),
                sum_duplicates=False,
            )

    def test_sorted_within_rows(self):
        A = BCRSMatrix.from_block_coo(
            2, 3, [0, 0, 1], [2, 0, 1],
            np.stack([np.eye(3)] * 3),
        )
        cols, _ = A.block_row(0)
        assert list(cols) == [0, 2]

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            BCRSMatrix.from_block_coo(1, 1, [1], [0], np.zeros((1, 3, 3)))

    def test_empty_matrix(self):
        A = BCRSMatrix.from_block_coo(3, 3, [], [], np.zeros((0, 3, 3)))
        assert A.nnzb == 0
        np.testing.assert_array_equal(A.to_dense(), np.zeros((9, 9)))

    def test_dense_roundtrip(self):
        A = random_bcrs(10, 4.0, seed=3)
        dense = A.to_dense()
        assert dense.shape == (30, 30)
        x = np.random.default_rng(0).standard_normal(30)
        np.testing.assert_allclose(A @ x, dense @ x, rtol=1e-12)


def _reference_from_block_coo(nb_rows, nb_cols, rows, cols, blocks):
    """The lexsort / unique / ``np.add.at`` coalescing ``from_block_coo``
    used before its bincount path; kept here as the byte-level oracle."""
    rows = np.asarray(rows, dtype=np.int64)
    cols = np.asarray(cols, dtype=np.int64)
    blocks = np.asarray(blocks, dtype=np.float64)
    b = blocks.shape[1] if blocks.size else 3
    order = np.lexsort((cols, rows))
    rows, cols, blocks = rows[order], cols[order], blocks[order]
    if len(rows):
        keys = rows * nb_cols + cols
        uniq, inverse = np.unique(keys, return_inverse=True)
        if len(uniq) != len(keys):
            summed = np.zeros((len(uniq), b, b))
            np.add.at(summed, inverse, blocks)
            blocks = summed
            rows, cols = uniq // nb_cols, uniq % nb_cols
    row_ptr = np.zeros(nb_rows + 1, dtype=np.int64)
    np.add.at(row_ptr, rows + 1, 1)
    np.cumsum(row_ptr, out=row_ptr)
    return row_ptr, cols, blocks


def _coo(seed, nb_rows, nb_cols, k, b=3, dup_rate=0.5):
    """Triplets with many repeated coordinates and values spanning many
    magnitudes (so a different summation order would round differently),
    signed zeros included."""
    rng = np.random.default_rng(seed)
    rows = rng.integers(0, nb_rows, k)
    cols = rng.integers(0, nb_cols, k)
    dup = rng.random(k) < dup_rate
    src = rng.integers(0, k, k)
    rows[dup], cols[dup] = rows[src[dup]], cols[src[dup]]
    blocks = rng.standard_normal((k, b, b)) * 10.0 ** rng.integers(-8, 9, (k, 1, 1))
    blocks[rng.random((k, b, b)) < 0.05] = -0.0
    return rows, cols, blocks


class TestFromBlockCooMatchesReference:
    @pytest.mark.parametrize("seed", range(6))
    @pytest.mark.parametrize("b", [2, 3])
    def test_duplicates_byte_identical(self, seed, b):
        nb_rows, nb_cols = 7 + seed, 5 + 2 * seed
        rows, cols, blocks = _coo(seed, nb_rows, nb_cols, 40 * (seed + 1), b=b)
        A = BCRSMatrix.from_block_coo(nb_rows, nb_cols, rows, cols, blocks)
        row_ptr, col_ind, ref = _reference_from_block_coo(
            nb_rows, nb_cols, rows, cols, blocks
        )
        assert A.block_size == b
        np.testing.assert_array_equal(A.row_ptr, row_ptr)
        np.testing.assert_array_equal(A.col_ind, col_ind)
        assert A.blocks.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_signed_zero_kept_without_duplicates(self):
        blocks = np.full((2, 3, 3), -0.0)
        A = BCRSMatrix.from_block_coo(2, 2, [1, 0], [0, 1], blocks)
        assert A.blocks.tobytes() == blocks.tobytes()

    def test_resistance_matrix_byte_identical(self, monkeypatch):
        from repro.stokesian.packing import random_configuration
        from repro.stokesian.resistance import build_resistance_matrix

        captured = []
        real = BCRSMatrix.__dict__["from_block_coo"].__func__

        def capture(cls, *args, **kw):
            captured.append(args)
            return real(cls, *args, **kw)

        system = random_configuration(200, 0.3, rng=4)
        monkeypatch.setattr(BCRSMatrix, "from_block_coo", classmethod(capture))
        R = build_resistance_matrix(system)
        row_ptr, col_ind, ref = _reference_from_block_coo(*captured[0])
        np.testing.assert_array_equal(R.row_ptr, row_ptr)
        np.testing.assert_array_equal(R.col_ind, col_ind)
        assert R.blocks.tobytes() == np.ascontiguousarray(ref).tobytes()

    def test_duplicates_raise_when_disallowed(self):
        rows, cols, blocks = _coo(0, 4, 4, 30)
        with pytest.raises(ValueError, match="duplicate"):
            BCRSMatrix.from_block_coo(4, 4, rows, cols, blocks, sum_duplicates=False)

    def test_unique_coordinates_accepted_when_disallowed(self):
        rows, cols, blocks = _coo(1, 6, 6, 20, dup_rate=0.0)
        keep = np.unique(rows * 6 + cols, return_index=True)[1]
        rows, cols, blocks = rows[keep[::-1]], cols[keep[::-1]], blocks[keep[::-1]]
        A = BCRSMatrix.from_block_coo(6, 6, rows, cols, blocks, sum_duplicates=False)
        row_ptr, col_ind, ref = _reference_from_block_coo(6, 6, rows, cols, blocks)
        np.testing.assert_array_equal(A.row_ptr, row_ptr)
        np.testing.assert_array_equal(A.col_ind, col_ind)
        assert A.blocks.tobytes() == ref.tobytes()

    @pytest.mark.parametrize("b", [2, 3])
    def test_empty_input(self, b):
        A = BCRSMatrix.from_block_coo(4, 2, [], [], np.zeros((0, b, b)))
        row_ptr, col_ind, ref = _reference_from_block_coo(4, 2, [], [], np.zeros((0, b, b)))
        np.testing.assert_array_equal(A.row_ptr, row_ptr)
        assert A.nnzb == 0 and A.blocks.shape == ref.shape


class TestBlockIdentity:
    def test_identity_matvec(self):
        I = BCRSMatrix.block_identity(4, scale=2.5)
        x = np.arange(12, dtype=float)
        np.testing.assert_allclose(I @ x, 2.5 * x)

    def test_structure(self):
        I = BCRSMatrix.block_identity(5)
        assert I.nnzb == 5
        assert I.blocks_per_row == 1.0


class TestAlgebra:
    def test_add_block_diagonal(self):
        A = tiny_matrix()
        D = np.broadcast_to(np.eye(3) * 10, (2, 3, 3)).copy()
        B = A.add_block_diagonal(D)
        np.testing.assert_allclose(B.to_dense(), A.to_dense() + 10 * np.eye(6))

    def test_add_block_diagonal_creates_missing_diagonal(self):
        A = BCRSMatrix.from_block_coo(2, 2, [0], [1], np.eye(3)[None])
        D = np.broadcast_to(np.eye(3), (2, 3, 3)).copy()
        B = A.add_block_diagonal(D)
        np.testing.assert_allclose(B.to_dense(), A.to_dense() + np.eye(6))

    def test_add_block_diagonal_shape_check(self):
        with pytest.raises(ValueError):
            tiny_matrix().add_block_diagonal(np.zeros((3, 3, 3)))

    def test_scaled(self):
        A = tiny_matrix()
        np.testing.assert_allclose(A.scaled(-2.0).to_dense(), -2.0 * A.to_dense())

    def test_transpose(self):
        A = random_bcrs(8, 3.0, seed=4)
        np.testing.assert_allclose(A.transpose().to_dense(), A.to_dense().T)

    def test_transpose_involution(self):
        A = random_bcrs(8, 3.0, seed=5)
        np.testing.assert_allclose(
            A.transpose().transpose().to_dense(), A.to_dense()
        )

    def test_matmul_operator_vector_and_matrix(self):
        A = tiny_matrix()
        x = np.ones(6)
        X = np.ones((6, 2))
        assert (A @ x).shape == (6,)
        assert (A @ X).shape == (6, 2)

    def test_matmul_bad_ndim(self):
        with pytest.raises(ValueError):
            tiny_matrix() @ np.ones((6, 2, 2))


class TestSymmetry:
    def test_symmetric_detection(self):
        A = random_bcrs(10, 4.0, seed=6, symmetric=True)
        assert A.is_structurally_symmetric()
        assert A.is_symmetric()

    def test_asymmetric_detection(self):
        A = BCRSMatrix.from_block_coo(2, 2, [0], [1], np.eye(3)[None])
        assert not A.is_structurally_symmetric()
        assert not A.is_symmetric()

    def test_spd_fixture_is_spd(self, spd_bcrs):
        dense = spd_bcrs.to_dense()
        np.testing.assert_allclose(dense, dense.T, atol=1e-12)
        eigvals = np.linalg.eigvalsh(dense)
        assert eigvals.min() > 0


class TestQueries:
    def test_block_row_view(self):
        A = tiny_matrix()
        cols, blks = A.block_row(0)
        assert list(cols) == [0, 1]
        np.testing.assert_allclose(blks[1], 2 * np.eye(3))

    def test_diagonal_blocks(self):
        A = tiny_matrix()
        D = A.diagonal_blocks()
        np.testing.assert_allclose(D[0], np.eye(3))
        np.testing.assert_allclose(D[1], 3 * np.eye(3))

    def test_diagonal_blocks_missing_are_zero(self):
        A = BCRSMatrix.from_block_coo(2, 2, [0], [1], np.eye(3)[None])
        D = A.diagonal_blocks()
        np.testing.assert_allclose(D[0], np.zeros((3, 3)))

    def test_derived_data_follows_the_block_array(self):
        A = tiny_matrix()
        D = A.diagonal_blocks()
        assert A.diagonal_blocks() is D and not D.flags.writeable
        view = A.scipy_view()
        object.__setattr__(A, "blocks", 2.0 * A.blocks)
        D2 = A.diagonal_blocks()
        assert D2 is not D and A.scipy_view() is not view
        np.testing.assert_array_equal(D2, 2.0 * D)


def _diagonal_blocks_loop(A: BCRSMatrix) -> np.ndarray:
    """Row-by-row reference for :meth:`BCRSMatrix.diagonal_blocks`."""
    nb = min(A.nb_rows, A.nb_cols)
    out = np.zeros((nb, A.block_size, A.block_size))
    for i in range(nb):
        cols, blks = A.block_row(i)
        hit = np.nonzero(cols == i)[0]
        if hit.size:
            out[i] = blks[hit[0]]
    return out


def _raw_bcrs(entries, nb_rows, nb_cols, b, seed):
    """A BCRS built straight from ``(row, col)`` entries in block-row
    order, so a block row may hold duplicate column indices
    (``from_block_coo`` would sum them)."""
    rows = np.array([r for r, _ in entries])
    return BCRSMatrix(
        row_ptr=np.concatenate([[0], np.cumsum(np.bincount(rows, minlength=nb_rows))]),
        col_ind=np.array([c for _, c in entries]),
        blocks=np.random.default_rng(seed).standard_normal((len(entries), b, b)),
        nb_cols=nb_cols,
    )


class TestDiagonalBlocksOracle:
    """The vectorised gather agrees with the row loop it replaced."""

    @pytest.mark.parametrize("nb_rows,nb_cols", [(6, 6), (4, 7), (7, 4)])
    @pytest.mark.parametrize("b", [2, 3])
    @pytest.mark.parametrize("seed", range(4))
    def test_random_shapes_with_missing_diagonals(self, nb_rows, nb_cols, b, seed):
        rng = np.random.default_rng(seed)
        nnzb = 3 * max(nb_rows, nb_cols)
        rows = rng.integers(0, nb_rows, size=nnzb)
        cols = rng.integers(0, nb_cols, size=nnzb)
        blocks = rng.standard_normal((nnzb, b, b))
        A = BCRSMatrix.from_block_coo(nb_rows, nb_cols, rows, cols, blocks)
        D = A.diagonal_blocks()
        assert D.shape == (min(nb_rows, nb_cols), b, b)
        np.testing.assert_array_equal(D, _diagonal_blocks_loop(A))

    @pytest.mark.parametrize("b", [2, 3])
    def test_duplicate_diagonal_first_wins(self, b):
        # Row 0 holds two diagonal entries, row 1 none, row 2 two after
        # an off-diagonal, row 3 exactly one.
        A = _raw_bcrs(
            [(0, 0), (0, 0), (0, 2), (1, 0), (2, 1), (2, 2), (2, 2), (3, 3)],
            nb_rows=4, nb_cols=4, b=b, seed=b,
        )
        D = A.diagonal_blocks()
        np.testing.assert_array_equal(D, _diagonal_blocks_loop(A))
        np.testing.assert_array_equal(D[0], A.blocks[0])
        np.testing.assert_array_equal(D[1], np.zeros((b, b)))
        np.testing.assert_array_equal(D[2], A.blocks[5])

    def test_rectangular_duplicates(self):
        wide = _raw_bcrs([(0, 0), (0, 0), (1, 4), (1, 1)], 2, 5, 2, seed=7)
        tall = _raw_bcrs([(0, 1), (1, 1), (1, 1), (4, 0)], 5, 2, 3, seed=8)
        for A in (wide, tall):
            np.testing.assert_array_equal(A.diagonal_blocks(), _diagonal_blocks_loop(A))

    def test_empty_matrix(self):
        A = BCRSMatrix(np.zeros(4, dtype=int), np.zeros(0, dtype=int), np.zeros((0, 3, 3)), 3)
        np.testing.assert_array_equal(A.diagonal_blocks(), np.zeros((3, 3, 3)))
