"""Sparse substrate: Block Compressed Row Storage and GSPMV kernels.

This package implements the storage format and the two kernels at the
heart of the paper:

* :class:`~repro.sparse.bcrs.BCRSMatrix` — Block Compressed Row Storage
  (Section IV.A1): an array of dense ``b x b`` non-zero blocks stored
  row-wise, a block column-index array, and a block row-pointer array.
* :func:`~repro.sparse.spmv.spmv` — the classical single-vector sparse
  matrix-vector product.
* :func:`~repro.sparse.gspmv.gspmv` — the *generalized* SPMV that
  multiplies the matrix by a block of ``m`` vectors simultaneously,
  amortizing the matrix stream over all vectors (Gropp et al. 1999).

Multivectors are stored **row-major** (C order, shape ``(n, m)``) to
match the paper's layout choice ("We store the m vectors in row-major
format to take advantage of spatial locality").

:mod:`repro.sparse.traffic` counts the exact memory traffic ``Mtr(m)``
and flops of a kernel invocation and estimates the cache-miss function
``k(m)`` of the paper's performance model.

:mod:`repro.sparse.enginewatch` is the self-healing runtime around the
kernel engines: an explicit fallback ladder for engine-tier failures,
cadence-based shadow verification against the reference kernel, and
per-shape quarantine of engines caught returning wrong numbers
(DESIGN.md §14).
"""

from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.spmv import spmv
from repro.sparse.gspmv import gspmv, gspmv_into
from repro.sparse.kernels import (
    ENGINE_NAMES,
    KernelRegistry,
    available_engines,
    get_default_registry,
    set_default_engine,
)
from repro.sparse.enginewatch import (
    DEFAULT_VERIFY_CADENCE,
    FALLBACK_LADDER,
    REFERENCE_ENGINE,
    CompileError,
    EngineEvent,
    EngineFailure,
    EngineWatch,
    KernelLoadError,
    LadderExhausted,
    get_engine_watch,
    shape_class,
)
from repro.sparse.traffic import (
    TrafficCounts,
    memory_traffic_bytes,
    flop_count,
    estimate_k,
)
from repro.sparse.convert import bcrs_from_scipy, bcrs_to_scipy
from repro.sparse.reorder import rcm_permutation, permute_bcrs, spatial_sort_keys

__all__ = [
    "BCRSMatrix",
    "spmv",
    "gspmv",
    "gspmv_into",
    "KernelRegistry",
    "get_default_registry",
    "ENGINE_NAMES",
    "available_engines",
    "set_default_engine",
    "EngineWatch",
    "EngineEvent",
    "EngineFailure",
    "CompileError",
    "KernelLoadError",
    "LadderExhausted",
    "FALLBACK_LADDER",
    "REFERENCE_ENGINE",
    "DEFAULT_VERIFY_CADENCE",
    "get_engine_watch",
    "shape_class",
    "TrafficCounts",
    "memory_traffic_bytes",
    "flop_count",
    "estimate_k",
    "bcrs_from_scipy",
    "bcrs_to_scipy",
    "rcm_permutation",
    "permute_bcrs",
    "spatial_sort_keys",
]
