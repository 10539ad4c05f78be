"""Single-vector sparse matrix-vector product (SPMV).

This is the baseline kernel the paper improves on: it streams the whole
matrix from memory to do ``2*nnz`` flops, so it is bandwidth-bound on
every modern machine (the paper cites ~30% of peak flops as the best
published efficiency).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.kernels import Engine, get_default_registry

__all__ = ["spmv"]


def spmv(
    A: BCRSMatrix,
    x: np.ndarray,
    out: Optional[np.ndarray] = None,
    engine: Optional[Engine] = None,
) -> np.ndarray:
    """Compute ``y = A @ x`` for a single vector ``x`` of length ``n``.

    Equivalent to ``gspmv`` with ``m = 1``; provided separately because
    the paper's algorithms and models distinguish ``T(1)`` from ``T(m)``.
    ``engine=None`` uses the registry default.  Checks that ``x`` is a
    vector, then makes one
    :meth:`~repro.sparse.kernels.KernelRegistry.multiply` call, which
    resolves the engine and records the product as ``spmv`` under the
    engine that produced it.
    """
    x = np.asarray(x, dtype=np.float64)
    if x.ndim != 1:
        raise ValueError("spmv expects a 1-D vector; use gspmv for multivectors")
    if out is not None and out.shape != (A.n_rows,):
        raise ValueError(f"out must have shape ({A.n_rows},)")
    return get_default_registry().multiply(A, x, out=out, engine=engine)
