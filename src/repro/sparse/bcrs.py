"""Block Compressed Row Storage (BCRS).

The paper stores its resistance matrices in BCRS with ``3 x 3`` blocks
because each block is the hydrodynamic interaction tensor between one
pair of particles (Section IV.A1):

    "Similar to the CSR format, BCRS requires three arrays: an array of
    non-zero blocks stored row-wise, a column-index array which stores
    the column index of each non-zero block, and a row pointer array,
    which stores [the] beginning of each block row."

:class:`BCRSMatrix` keeps exactly those three arrays and nothing else.
The block size ``b`` is a parameter (default 3) so the format is usable
beyond Stokesian dynamics, but all paper experiments use ``b = 3``.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterable, Tuple, TypeVar

import numpy as np
import scipy.sparse as sp

from repro.util.validation import check_index_array, check_square_blocks

__all__ = ["BCRSMatrix"]

_INDEX_DTYPE = np.int32  # BCRS index arrays cost 4 bytes/entry in the paper's model

T = TypeVar("T")


@dataclass(frozen=True, eq=False)
class BCRSMatrix:
    """A sparse matrix of dense ``b x b`` blocks in block-row order.

    Attributes
    ----------
    row_ptr:
        ``(nb_rows + 1,)`` int array; block row ``i`` owns block slots
        ``row_ptr[i]:row_ptr[i+1]``.
    col_ind:
        ``(nnzb,)`` int array of block-column indices, sorted within
        each block row.
    blocks:
        ``(nnzb, b, b)`` float array of the non-zero blocks.
    nb_cols:
        Number of block columns.
    """

    row_ptr: np.ndarray
    col_ind: np.ndarray
    blocks: np.ndarray
    nb_cols: int

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def __post_init__(self) -> None:
        row_ptr = np.ascontiguousarray(self.row_ptr, dtype=_INDEX_DTYPE)
        col_ind = np.ascontiguousarray(self.col_ind, dtype=_INDEX_DTYPE)
        blocks = np.ascontiguousarray(self.blocks, dtype=np.float64)
        if row_ptr.ndim != 1 or row_ptr.size < 1:
            raise ValueError("row_ptr must be a 1-D array of length nb_rows + 1")
        if row_ptr[0] != 0:
            raise ValueError("row_ptr[0] must be 0")
        if np.any(np.diff(row_ptr) < 0):
            raise ValueError("row_ptr must be non-decreasing")
        if blocks.ndim != 3 or blocks.shape[1] != blocks.shape[2]:
            raise ValueError("blocks must have shape (nnzb, b, b)")
        if row_ptr[-1] != len(col_ind) or len(col_ind) != len(blocks):
            raise ValueError(
                "inconsistent sizes: row_ptr[-1]="
                f"{row_ptr[-1]}, len(col_ind)={len(col_ind)}, len(blocks)={len(blocks)}"
            )
        if self.nb_cols <= 0:
            raise ValueError("nb_cols must be positive")
        check_index_array("col_ind", col_ind, self.nb_cols)
        check_square_blocks("blocks", blocks, blocks.shape[1] if blocks.size else blocks.shape[1])
        object.__setattr__(self, "row_ptr", row_ptr)
        object.__setattr__(self, "col_ind", col_ind)
        object.__setattr__(self, "blocks", blocks)

    @classmethod
    def from_block_coo(
        cls,
        nb_rows: int,
        nb_cols: int,
        rows: Iterable[int],
        cols: Iterable[int],
        blocks: np.ndarray,
        *,
        sum_duplicates: bool = True,
    ) -> "BCRSMatrix":
        """Build a BCRS matrix from block-coordinate triplets.

        ``rows[k], cols[k], blocks[k]`` describe one ``b x b`` block.
        Duplicate coordinates are summed when ``sum_duplicates`` is true
        (the natural semantics for assembling pairwise interaction
        tensors), otherwise they raise.
        """
        rows = np.asarray(
            list(rows) if not isinstance(rows, np.ndarray) else rows, dtype=np.int64
        )
        cols = np.asarray(
            list(cols) if not isinstance(cols, np.ndarray) else cols, dtype=np.int64
        )
        blocks = np.asarray(blocks, dtype=np.float64)
        if blocks.ndim != 3:
            raise ValueError("blocks must have shape (k, b, b)")
        if not (len(rows) == len(cols) == len(blocks)):
            raise ValueError("rows, cols, blocks must have equal length")
        if nb_rows <= 0 or nb_cols <= 0:
            raise ValueError("nb_rows and nb_cols must be positive")
        if len(rows) and (rows.min() < 0 or rows.max() >= nb_rows):
            raise ValueError("block row index out of range")
        if len(cols) and (cols.min() < 0 or cols.max() >= nb_cols):
            raise ValueError("block column index out of range")
        b = blocks.shape[1] if blocks.size else 3

        # Sort by (row, col) through one stable sort of the combined
        # key; coalesce duplicates, one `bincount` per block component.
        # `bincount` adds each slot's values in input order starting
        # from 0.0, so sums round exactly as a sequential scatter-add
        # would (`np.add.reduceat` does not).
        keys = rows * nb_cols + cols
        order = np.argsort(keys, kind="stable")
        keys, blocks = keys[order], blocks[order]
        first = np.ones(len(keys), dtype=bool)
        np.not_equal(keys[1:], keys[:-1], out=first[1:])
        if not first.all():
            if not sum_duplicates:
                raise ValueError("duplicate block coordinates")
            slot = np.cumsum(first) - 1
            keys = keys[first]
            flat = blocks.reshape(len(blocks), b * b)
            summed = np.empty((len(keys), b * b))
            for c in range(b * b):
                summed[:, c] = np.bincount(slot, weights=flat[:, c], minlength=len(keys))
            blocks = summed.reshape(len(keys), b, b)
        rows, cols = np.divmod(keys, nb_cols)
        row_ptr = np.zeros(nb_rows + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=nb_rows), out=row_ptr[1:])
        return cls(row_ptr=row_ptr, col_ind=cols, blocks=blocks, nb_cols=nb_cols)

    @classmethod
    def block_identity(cls, nb: int, b: int = 3, scale: float = 1.0) -> "BCRSMatrix":
        """Return ``scale * I`` as a BCRS matrix with ``nb`` block rows."""
        eye = np.broadcast_to(np.eye(b) * scale, (nb, b, b)).copy()
        return cls(
            row_ptr=np.arange(nb + 1),
            col_ind=np.arange(nb),
            blocks=eye,
            nb_cols=nb,
        )

    # ------------------------------------------------------------------
    # shape and structure queries
    # ------------------------------------------------------------------
    @property
    def block_size(self) -> int:
        """Edge length ``b`` of each dense block."""
        return int(self.blocks.shape[1])

    @property
    def nb_rows(self) -> int:
        """Number of block rows (``nb`` in the paper)."""
        return int(len(self.row_ptr) - 1)

    @property
    def nnzb(self) -> int:
        """Number of stored non-zero blocks."""
        return int(len(self.col_ind))

    @cached_property
    def structure(self) -> "tuple[int, int, int]":
        """``(nb_rows, nnzb, block_size)`` — cached because the kernel
        telemetry reads it on every multiply."""
        return (self.nb_rows, self.nnzb, self.block_size)

    @property
    def nnz(self) -> int:
        """Number of stored scalar non-zeros (``nnzb * b**2``)."""
        return self.nnzb * self.block_size**2

    @property
    def n_rows(self) -> int:
        """Number of scalar rows (``n`` in the paper)."""
        return self.nb_rows * self.block_size

    @property
    def n_cols(self) -> int:
        return self.nb_cols * self.block_size

    @property
    def shape(self) -> Tuple[int, int]:
        return (self.n_rows, self.n_cols)

    @property
    def blocks_per_row(self) -> float:
        """Average non-zero blocks per block row (``nnzb/nb``)."""
        return self.nnzb / self.nb_rows if self.nb_rows else 0.0

    def block_row(self, i: int) -> Tuple[np.ndarray, np.ndarray]:
        """Return ``(col_indices, blocks)`` of block row ``i`` (views)."""
        lo, hi = int(self.row_ptr[i]), int(self.row_ptr[i + 1])
        return self.col_ind[lo:hi], self.blocks[lo:hi]

    def _derived(self, name: str, build: Callable[["BCRSMatrix"], T]) -> T:
        """``build(self)``, kept on the matrix under ``name`` and built
        once per set of arrays: rebinding :attr:`row_ptr`,
        :attr:`col_ind` or :attr:`blocks` rebuilds it, an in-place edit
        of the values does not.  The entry holds the arrays it was built
        from, so addresses taken from them stay valid while it lives."""
        cache = self.__dict__.setdefault("_derived_cache", {})
        built = cache.get(name)
        if (
            built is None
            or built[0] is not self.row_ptr
            or built[1] is not self.col_ind
            or built[2] is not self.blocks
        ):
            built = cache[name] = (
                self.row_ptr, self.col_ind, self.blocks, build(self)
            )
        return built[3]

    def diagonal_blocks(self) -> np.ndarray:
        """Return the ``(min(nbr,nbc), b, b)`` array of diagonal blocks.

        Missing diagonal blocks come back as zero blocks; if a block row
        holds duplicate diagonal entries, the first one wins.  Gathered
        once per set of arrays (:meth:`_derived`) and read-only.
        """
        return self._derived("diagonal_blocks", _gather_diagonal)

    def scipy_view(self) -> sp.bsr_matrix:
        """A ``scipy.sparse.bsr_matrix`` sharing :attr:`blocks` (so it
        sees in-place edits), built once per set of arrays."""
        return self._derived("scipy_view", _bsr_view)

    def kernel_binding(self) -> "tuple[int, int, int, int]":
        """``(nb_rows, row_ptr, col_ind, blocks)`` with each array as its
        data address: the matrix half of a compiled-kernel call
        (:func:`repro.sparse.kernels_cgen.gspmv_cgen`), taken once per
        set of arrays instead of once per product."""
        return self._derived("kernel_binding", _bind_addresses)

    # ------------------------------------------------------------------
    # algebra
    # ------------------------------------------------------------------
    def __matmul__(self, other: np.ndarray) -> np.ndarray:
        """``A @ x`` (SPMV) or ``A @ X`` (GSPMV) on the default registry."""
        from repro.sparse.kernels import get_default_registry

        return get_default_registry().multiply(self, other)

    def add_block_diagonal(self, diag_blocks: np.ndarray) -> "BCRSMatrix":
        """Return ``A + blockdiag(diag_blocks)`` as a new BCRS matrix.

        This is how the far-field term ``muF * I`` is folded into the
        lubrication matrix to form ``R = muF*I + Rlub``.
        """
        if self.nb_rows != self.nb_cols:
            raise ValueError("matrix must be block-square")
        diag_blocks = np.asarray(diag_blocks, dtype=np.float64)
        if diag_blocks.shape != (self.nb_rows, self.block_size, self.block_size):
            raise ValueError(
                f"diag_blocks must have shape ({self.nb_rows}, "
                f"{self.block_size}, {self.block_size})"
            )
        rows = np.repeat(np.arange(self.nb_rows), np.diff(self.row_ptr))
        all_rows = np.concatenate([rows, np.arange(self.nb_rows)])
        all_cols = np.concatenate([self.col_ind, np.arange(self.nb_rows)])
        all_blocks = np.concatenate([self.blocks, diag_blocks])
        return BCRSMatrix.from_block_coo(
            self.nb_rows, self.nb_cols, all_rows, all_cols, all_blocks
        )

    def scaled(self, alpha: float) -> "BCRSMatrix":
        """Return ``alpha * A``."""
        return BCRSMatrix(
            row_ptr=self.row_ptr.copy(),
            col_ind=self.col_ind.copy(),
            blocks=self.blocks * float(alpha),
            nb_cols=self.nb_cols,
        )

    def transpose(self) -> "BCRSMatrix":
        """Return the transpose (blocks transposed, structure transposed)."""
        rows = np.repeat(np.arange(self.nb_rows), np.diff(self.row_ptr))
        return BCRSMatrix.from_block_coo(
            self.nb_cols,
            self.nb_rows,
            self.col_ind,
            rows,
            np.transpose(self.blocks, (0, 2, 1)),
            sum_duplicates=False,
        )

    def is_structurally_symmetric(self) -> bool:
        """True when (i,j) stored implies (j,i) stored."""
        rows = np.repeat(np.arange(self.nb_rows), np.diff(self.row_ptr))
        fwd = set(zip(rows.tolist(), self.col_ind.tolist()))
        return all((j, i) in fwd for (i, j) in fwd)

    def is_symmetric(self, tol: float = 1e-12) -> bool:
        """True when ``A == A.T`` element-wise within ``tol``."""
        if self.nb_rows != self.nb_cols:
            return False
        t = self.transpose()
        if not np.array_equal(self.row_ptr, t.row_ptr):
            return False
        if not np.array_equal(self.col_ind, t.col_ind):
            return False
        return bool(np.allclose(self.blocks, t.blocks, atol=tol, rtol=0.0))

    def to_dense(self) -> np.ndarray:
        """Materialize as a dense ``(n_rows, n_cols)`` array (small matrices)."""
        b = self.block_size
        out = np.zeros(self.shape)
        for i in range(self.nb_rows):
            cols, blks = self.block_row(i)
            for c, blk in zip(cols, blks):
                out[i * b : (i + 1) * b, c * b : (c + 1) * b] += blk
        return out

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"BCRSMatrix(shape={self.shape}, block_size={self.block_size}, "
            f"nnzb={self.nnzb}, blocks_per_row={self.blocks_per_row:.2f})"
        )


def _gather_diagonal(A: BCRSMatrix) -> np.ndarray:
    nb = min(A.nb_rows, A.nb_cols)
    out = np.zeros((nb, A.block_size, A.block_size))
    rows = np.repeat(np.arange(A.nb_rows), np.diff(A.row_ptr))
    hit = np.flatnonzero(A.col_ind == rows)
    diag_rows = rows[hit]
    # ``hit`` ascends, so a duplicate follows its row's first entry.
    first = np.ones(hit.size, dtype=bool)
    first[1:] = diag_rows[1:] != diag_rows[:-1]
    out[diag_rows[first]] = A.blocks[hit[first]]
    out.flags.writeable = False
    return out


def _bsr_view(A: BCRSMatrix) -> sp.bsr_matrix:
    b = A.block_size
    view = sp.bsr_matrix((A.blocks, A.col_ind, A.row_ptr), shape=A.shape, blocksize=(b, b))
    if not np.shares_memory(view.data, A.blocks):
        # scipy copied ``data`` (e.g. on index dtype conversion) without
        # reordering it, so re-point the view at the blocks.
        view.data = A.blocks
    return view


def _bind_addresses(A: BCRSMatrix) -> "tuple[int, int, int, int]":
    # The kernel reads raw memory, so hold a rebound array to the
    # layout ``__post_init__`` establishes.
    arrays = (A.row_ptr, A.col_ind, A.blocks)
    if (
        [a.dtype for a in arrays] != [_INDEX_DTYPE, _INDEX_DTYPE, np.float64]
        or not all(a.flags.c_contiguous for a in arrays)
        or A.row_ptr[-1] != len(A.col_ind)
        or len(A.col_ind) != len(A.blocks)
    ):
        raise ValueError(
            "kernel binding needs C-contiguous int32 row_ptr/col_ind and "
            "float64 blocks of consistent sizes"
        )
    return (
        A.nb_rows,
        A.row_ptr.ctypes.data,
        A.col_ind.ctypes.data,
        A.blocks.ctypes.data,
    )
