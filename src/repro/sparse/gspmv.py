"""Generalized SPMV: sparse matrix times a block of vectors.

``Y = A @ X`` with ``X`` of shape ``(n, m)``.  The matrix is streamed
from memory once and applied to all ``m`` vectors, so the incremental
cost of each extra vector is only the extra vector traffic plus the
extra flops — the central observation of Gropp et al. (1999) that this
paper "updates" for modern multicore machines: 8–16 vectors typically
cost only 2x a single vector.

The multivector layout is row-major (``X[i]`` holds the m values of
scalar row ``i``) so that the ``m`` operands of each block multiply are
contiguous, exactly as in the paper.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.kernels import Engine, get_default_registry

__all__ = ["gspmv", "gspmv_into"]


def gspmv(
    A: BCRSMatrix,
    X: np.ndarray,
    engine: Optional[Engine] = None,
) -> np.ndarray:
    """Compute ``Y = A @ X`` for a multivector ``X`` of shape ``(n, m)``.

    A 1-D ``X`` is accepted and treated as ``m = 1`` (result is 1-D),
    so ``gspmv`` strictly generalizes :func:`~repro.sparse.spmv.spmv`.
    ``engine=None`` uses the registry default (``--engine`` on the CLI).
    One :meth:`~repro.sparse.kernels.KernelRegistry.multiply` call
    resolves the engine, runs the product and records it under the
    engine that produced it.
    """
    return get_default_registry().multiply(A, X, engine=engine)


def gspmv_into(
    A: BCRSMatrix,
    X: np.ndarray,
    out: np.ndarray,
    engine: Optional[Engine] = None,
) -> np.ndarray:
    """Compute ``Y = A @ X`` into a preallocated ``out`` array.

    Iterative solvers call GSPMV every iteration; writing into a
    reusable buffer avoids an allocation per call.  ``out`` may alias
    ``X`` (the registry detects it and routes through a temporary).
    Checks ``out``'s shape, then makes one
    :meth:`~repro.sparse.kernels.KernelRegistry.multiply` call.
    """
    X = np.asarray(X)
    expected = (A.n_rows, X.shape[1]) if X.ndim == 2 else (A.n_rows,)
    if out.shape != expected:
        raise ValueError(f"out must have shape {expected}, got {out.shape}")
    return get_default_registry().multiply(A, X, out=out, engine=engine)
