"""Kernel machinery behind SPMV/GSPMV: a pluggable backend registry.

The paper's implementation "developed a code generator which, for a
given number of vectors m, produces a fully-unrolled SIMD kernel" —
i.e. kernel work is specialized once per ``m`` and reused every call.
:class:`KernelRegistry` captures the same shape of specialization for a
*family* of interchangeable engines: it prepares, once per
``(block_size, m, engine)``, everything a product needs beyond the raw
arrays — einsum contraction paths, compiled kernels — and sends every
product through one entry point,
:meth:`KernelRegistry.multiply`.  ``A @ X``, ``spmv``, ``gspmv`` and
``gspmv_into`` each call it once; it validates ``X``/``out``, resolves
the engine, runs the watched dispatch below, fires the
``engine.multiply`` fault site and records the product's telemetry,
each exactly once per product.  :meth:`KernelRegistry._dispatch` is
the raw single-engine call under it.

Engines (see DESIGN.md §13):

``"blocked"``
    A pure-NumPy reference kernel working directly on the BCRS arrays:
    gather X blocks by column index, batched ``3 x 3 @ 3 x m`` products
    (the paper's "basic kernel"), segment-sum per block row.  Fully
    instrumentable (`repro.sparse.traffic` counts its exact memory
    traffic) and the engine the performance model reasons about.

``"tiled"``
    The blocked kernel with row tiling so its temporaries stay
    cache-resident (the paper's cache-blocking optimization).  An
    ablation engine: selectable, but not a fallback rung.

``"scipy"``
    Delegates to ``scipy.sparse``'s C implementation via the BSR view
    sharing ``A``'s block array that ``A`` keeps (``A.scipy_view()``).
    The fallback rung below ``cgen``.

``"cgen"``
    Generated C kernels compiled per ``(block_size, m)`` with the
    system compiler and register blocking over the vector dimension —
    the reproduction of the paper's per-``m`` code generator
    (:mod:`repro.sparse.kernels_cgen`).  ``A`` binds its array
    addresses once (``A.kernel_binding()``), so a product passes only
    ``X`` and ``Y``.  The default engine; unavailable environments
    demote to ``scipy`` with a one-time warning.

A product runs on the engine its caller names, or on the registry's
:attr:`KernelRegistry.default_engine` (``cgen``) when it names none.

Every product runs under the engine watchdog
(:mod:`repro.sparse.enginewatch`, DESIGN.md §14): engine-tier failures
demote the product down the fallback ladder ``cgen → scipy → blocked``
instead of raising, an opt-in shadow check verifies results against the
``blocked`` reference on a cadence, and an engine caught miscomparing
is quarantined for that shape class and routed around from then on.
"""

from __future__ import annotations

import time
import warnings
from dataclasses import dataclass
from typing import Dict, Literal, Optional, Tuple

import numpy as np

import repro.telemetry as _telemetry
from repro.resilience.faults import active_injector
from repro.sparse import kernels_cgen
from repro.sparse.bcrs import BCRSMatrix
from repro.sparse.enginewatch import (
    EngineFailure,
    EngineWatch,
    reference_rows,
    shape_class,
)

__all__ = [
    "KernelRegistry",
    "get_default_registry",
    "Engine",
    "ENGINE_NAMES",
    "available_engines",
    "set_default_engine",
]

Engine = Literal["blocked", "tiled", "scipy", "cgen"]

#: Every engine name, in registry order.
ENGINE_NAMES: Tuple[str, ...] = ("blocked", "tiled", "scipy", "cgen")

#: Temporary-buffer budget of the "tiled" engine.  The per-tile
#: gather/contribution temporaries are ~2 * tile_nnzb * b * m * 8 bytes;
#: keeping them around L2-cache size is what makes cache blocking pay
#: (measured ~4x at m=16 on a DRAM-resident matrix).
TILE_BUDGET_BYTES = 2 * 2**20


def available_engines() -> Tuple[str, ...]:
    """Concrete engines usable in this process, in registry order.

    ``cgen`` requires a working C toolchain; everything else is always
    available.
    """
    cgen = kernels_cgen.available()
    return tuple(e for e in ENGINE_NAMES if e != "cgen" or cgen)


def _check_engine(engine: str) -> None:
    """Reject a name that is not an engine, listing the valid ones."""
    if engine not in ENGINE_NAMES:
        raise ValueError(
            f"unknown engine {engine!r}; expected one of {ENGINE_NAMES}"
        )


def _segment_sum(
    contrib: np.ndarray, row_ptr: np.ndarray, nb: int,
    out: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Sum ``contrib`` (nnzb, b, m) into per-block-row totals (nb, b, m).

    Uses ``np.add.reduceat`` with explicit handling of empty block rows:

    * a *middle* empty row has ``start_k == start_{k+1}``, for which
      reduceat returns ``contrib[start_k]`` — zeroed afterwards (the
      neighbouring segments are unaffected);
    * a *trailing* empty row has ``start == nnzb``, out of range for
      reduceat — those rows are excluded from the call entirely
      (clipping their index would silently truncate the previous row's
      segment, a bug the property suite caught).
    """
    b, m = contrib.shape[1], contrib.shape[2]
    nnzb = contrib.shape[0]
    if out is None:
        out = np.zeros((nb, b, m))
    else:
        out[:] = 0.0
    if nnzb == 0:
        return out
    starts = row_ptr[:-1]
    lengths = np.diff(row_ptr)
    in_range = starts < nnzb
    out[in_range] = np.add.reduceat(contrib, starts[in_range], axis=0)
    empty = lengths == 0
    if np.any(empty):
        out[empty] = 0.0
    return out


@dataclass
class _BlockedPlan:
    """Precomputed state for the blocked engine at a fixed (b, m)."""

    einsum_path: list
    m: int


class KernelRegistry:
    """Caches per-``m`` kernel plans; dispatches every product through
    one validated ``multiply``.

    One registry (usually the module default) is shared by all products.
    It keeps nothing per matrix: per-matrix views live on the matrix.
    ``default_engine`` is what ``engine=None`` resolves to — the CLI
    ``--engine`` flag and :func:`set_default_engine` rebind it.
    """

    def __init__(self, default_engine: str = "cgen") -> None:
        self.default_engine: str = default_engine
        self._plans: Dict[Tuple[int, int], _BlockedPlan] = {}
        self._warned_fallback: set = set()
        #: The engine watchdog: fallback ladder, shadow verification,
        #: quarantine (see :mod:`repro.sparse.enginewatch`).
        self.watch = EngineWatch()

    # ------------------------------------------------------------------
    # engine resolution
    # ------------------------------------------------------------------
    def resolve_engine(
        self, A: BCRSMatrix, m: int, engine: Optional[str] = None
    ) -> str:
        """Map a requested engine (or ``None``) to a concrete, available
        engine name.

        ``None`` resolves to :attr:`default_engine`; ``cgen`` without a
        C toolchain demotes down the fallback ladder with a one-time
        warning and a recorded ``fallback`` event, so scripts stay
        portable across environments.  An engine quarantined for this shape class is
        routed around the same way.
        """
        engine = engine or self.default_engine
        _check_engine(engine)
        if engine == "cgen" and not kernels_cgen.available():
            engine = self._fallback(
                engine, kernels_cgen.unavailable_reason() or "no C toolchain"
            )
        if self.watch.has_quarantines:
            shape = shape_class(A, m)
            if self.watch.is_quarantined(engine, shape):
                engine = self._demote(engine, shape)
        return engine

    def _fallback(self, engine: str, reason: str) -> str:
        """Route an *unavailable* engine to its ladder replacement.

        The event and the warning fire once per engine per process —
        unavailability is a standing condition, not a per-call incident.
        """
        rung = self.watch.next_rung(engine, set(available_engines()))
        if engine not in self._warned_fallback:
            self._warned_fallback.add(engine)
            self.watch.record(
                "fallback", engine, reason=f"{reason}; using {rung!r}"
            )
            warnings.warn(
                f"engine {engine!r} is unavailable ({reason}); "
                f"falling back to {rung!r}",
                RuntimeWarning,
                stacklevel=5,
            )
        return rung

    def _demote(self, engine: str, shape: str) -> str:
        """The next trustworthy rung below ``engine`` for ``shape``.

        The ladder ends on the reference engine, which is always
        available and can never be quarantined — so demotion always
        terminates.
        """
        return self.watch.next_rung(engine, set(available_engines()), shape)

    # ------------------------------------------------------------------
    # cached plans
    # ------------------------------------------------------------------
    def blocked_plan(self, block_size: int, m: int) -> _BlockedPlan:
        """Return (building if needed) the blocked-engine plan for (b, m)."""
        key = (block_size, m)
        plan = self._plans.get(key)
        if plan is None:
            # Representative operands for path optimization only.
            blocks = np.empty((2, block_size, block_size))
            xgath = np.empty((2, block_size, m))
            path, _ = np.einsum_path(
                "kij,kjm->kim", blocks, xgath, optimize="optimal"
            )
            plan = _BlockedPlan(einsum_path=path, m=m)
            self._plans[key] = plan
        return plan

    # ------------------------------------------------------------------
    # multiply
    # ------------------------------------------------------------------
    def multiply(
        self,
        A: BCRSMatrix,
        X: np.ndarray,
        out: Optional[np.ndarray] = None,
        engine: Optional[Engine] = None,
    ) -> np.ndarray:
        """Compute ``Y = A @ X`` where ``X`` is ``(n, m)`` row-major.

        The one product path: ``A @ X``, :func:`~repro.sparse.spmv.spmv`,
        :func:`~repro.sparse.gspmv.gspmv` and
        :func:`~repro.sparse.gspmv.gspmv_into` all land here, and each
        product is validated, resolved, watched and recorded once.

        Under the watchdog a product ladders down on
        :class:`EngineFailure` or an injected ``raise``, is
        shadow-verified on cadence, and on a miscompare quarantines the
        engine and is re-executed.  The loop terminates because every
        demotion moves strictly down
        :data:`~repro.sparse.enginewatch.FALLBACK_LADDER` and the
        reference engine neither fails nor is verified against itself.
        With a hub installed the product is timed and recorded (kind
        ``"spmv"`` for a 1-D ``X``, else ``"gspmv"``) under the engine
        that produced it, after any demotion.

        Parameters
        ----------
        A:
            The BCRS matrix.
        X:
            Multivector of shape ``(n_cols, m)`` (or ``(n_cols,)``,
            treated as m=1 and returned 1-D).
        out:
            Optional preallocated output of shape matching the result.
            Must be float64 and C-contiguous (a clear error beats the
            silent down-cast a float32 buffer used to get).  ``out``
            may alias ``X``: aliasing is detected and served through a
            temporary.
        engine:
            An :data:`Engine` name, or ``None`` for the registry
            default; see the module docstring.
        """
        X = np.asarray(X, dtype=np.float64)
        squeeze = X.ndim == 1
        if squeeze:
            X = X[:, None]
        elif X.ndim != 2:
            raise ValueError("operand must be a vector or a multivector")
        m = X.shape[1]
        if X.shape[0] != A.n_cols:
            raise ValueError(
                f"X has {X.shape[0]} rows; matrix has {A.n_cols} columns"
            )
        target = out
        if out is not None:
            if out.dtype != np.float64:
                raise ValueError(
                    f"out must be float64, got {out.dtype}; kernels would "
                    "otherwise down-cast inconsistently between engines"
                )
            if not out.flags["C_CONTIGUOUS"]:
                raise ValueError(
                    "out must be C-contiguous (pass np.ascontiguousarray)"
                )
            expected = (A.n_rows,) if out.ndim == 1 else (A.n_rows, m)
            if out.shape != expected:
                raise ValueError(
                    f"out must have shape {expected}, got {out.shape}"
                )
            if out.ndim == 1:
                target = out[:, None]
        engine = self.resolve_engine(A, m, engine)
        hub = _telemetry.active_hub
        t0 = time.perf_counter() if hub is not None else 0.0
        # Aliasing guard: engines write `out` while still gathering from
        # X, so a caller passing out=X (in-place update) must be served
        # through a temporary.
        alias = target is not None and np.may_share_memory(target, X)
        injector = active_injector()
        if injector is not None and "engine.multiply" not in injector.sites:
            injector = None
        watch = self.watch
        shape: Optional[str] = None
        while True:
            try:
                Y = self._dispatch(A, X, None if alias else target, engine)
            except EngineFailure as exc:
                shape = shape or shape_class(A, m)
                watch.record("engine_failure", engine, shape, str(exc))
                engine = self._demote(engine, shape)
                continue
            if injector is not None:
                spec = injector.fire(
                    "engine.multiply", engine=engine, b=A.block_size, m=m
                )
                if spec is not None:
                    if spec.kind == "raise":
                        shape = shape or shape_class(A, m)
                        watch.record(
                            "engine_failure", engine, shape,
                            "injected multiply failure",
                        )
                        engine = self._demote(engine, shape)
                        continue
                    # Data-corruption kinds simulate a kernel returning
                    # wrong numbers: mutate the product in place so the
                    # shadow check (not the injection site) must catch it.
                    np.copyto(Y, spec.mutate(Y, injector.rng))
            if watch.enabled:
                shape = shape or shape_class(A, m)
                if watch.should_verify(engine, shape):
                    if not self._verify_product(A, X, Y, engine, shape):
                        watch.record(
                            "verify_fail", engine, shape,
                            "shadow check miscompared with reference",
                        )
                        watch.quarantine(
                            engine, shape, "shadow verification miscompare"
                        )
                        engine = self._demote(engine, shape)
                        continue
            break
        if alias:
            np.copyto(target, Y)
            Y = target
        if hub is not None:
            nb, nnzb, b = A.structure
            hub.record_gspmv(
                "spmv" if squeeze else "gspmv",
                time.perf_counter() - t0, nb, nnzb, b, m, engine,
            )
        if squeeze:
            return out if out is not None else Y[:, 0]
        return Y

    def _dispatch(
        self,
        A: BCRSMatrix,
        X: np.ndarray,
        target: Optional[np.ndarray],
        engine: str,
    ) -> np.ndarray:
        """Raw single-engine dispatch: no ladder, no verification."""
        if engine == "scipy":
            Y = A.scipy_view() @ X
            if target is not None:
                np.copyto(target, Y)
                Y = target
            return Y
        if engine == "blocked":
            return self._multiply_blocked(A, X, target)
        if engine == "tiled":
            return self._multiply_tiled(A, X, target)
        if engine == "cgen":
            return self._multiply_cgen(A, X, target)
        raise ValueError(f"unknown engine {engine!r}")

    def _verify_product(
        self,
        A: BCRSMatrix,
        X: np.ndarray,
        Y: np.ndarray,
        engine: str,
        shape: str,
    ) -> bool:
        """One shadow check of ``Y`` against the reference engine.

        Normally a strided sample of block rows; every
        :attr:`~repro.sparse.enginewatch.EngineWatch.full_every`-th
        verification (and whenever the matrix is no bigger than the
        sample) the full product.
        """
        watch = self.watch
        start = time.perf_counter()
        count = watch.bump_verification(engine, shape)
        b = A.block_size
        m = X.shape[1]
        tol = watch.tolerance(b, m)
        full = (
            A.nb_rows <= watch.sample_rows
            or watch.full_every == 1
            or count % watch.full_every == 0
        )
        if full:
            ref = self._multiply_blocked(A, X, None)
            ok = watch.compare(np.asarray(Y), ref, tol)
        else:
            rows = watch.sample_block_rows(A.nb_rows, count)
            ref = reference_rows(A, X, rows)
            got = np.ascontiguousarray(Y).reshape(A.nb_rows, b, m)[rows]
            ok = watch.compare(got, ref, tol)
        watch.note_verification(
            engine, ok, time.perf_counter() - start, full
        )
        return ok

    # ------------------------------------------------------------------
    # engine implementations
    # ------------------------------------------------------------------
    def _multiply_blocked(
        self, A: BCRSMatrix, X: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        b = A.block_size
        m = X.shape[1]
        plan = self.blocked_plan(b, m)
        # Gather the X blocks each stored block multiplies: (nnzb, b, m).
        Xb = np.ascontiguousarray(X).reshape(A.nb_cols, b, m)
        gathered = Xb[A.col_ind]
        # The paper's "basic kernel": (b x b) @ (b x m) for every block.
        contrib = np.einsum(
            "kij,kjm->kim", A.blocks, gathered, optimize=plan.einsum_path
        )
        Yb = _segment_sum(contrib, A.row_ptr, A.nb_rows)
        Y = Yb.reshape(A.n_rows, m)
        if out is not None:
            np.copyto(out, Y)
            return out
        return Y

    def _multiply_tiled(
        self,
        A: BCRSMatrix,
        X: np.ndarray,
        out: Optional[np.ndarray],
        tile_rows: Optional[int] = None,
    ) -> np.ndarray:
        """The blocked kernel with row tiling (cache blocking).

        Processes ``tile_rows`` block rows at a time so the gathered
        operand and contribution temporaries stay cache-resident instead
        of materializing an ``(nnzb, b, m)`` array — the paper's
        "cache blocking optimizations" for large matrices.  The default
        tile size adapts to m and the matrix density so the temporaries
        fit :data:`TILE_BUDGET_BYTES`.
        """
        b = A.block_size
        m = X.shape[1]
        if tile_rows is None:
            bytes_per_row = max(1.0, A.blocks_per_row) * b * m * 8 * 2
            tile_rows = max(64, int(TILE_BUDGET_BYTES / bytes_per_row))
        plan = self.blocked_plan(b, m)
        Xb = np.ascontiguousarray(X).reshape(A.nb_cols, b, m)
        Y = out if out is not None else np.empty((A.n_rows, m))
        Yb = Y.reshape(A.nb_rows, b, m)
        rp = A.row_ptr
        for start in range(0, A.nb_rows, tile_rows):
            end = min(start + tile_rows, A.nb_rows)
            lo, hi = int(rp[start]), int(rp[end])
            contrib = np.einsum(
                "kij,kjm->kim",
                A.blocks[lo:hi],
                Xb[A.col_ind[lo:hi]],
                optimize=plan.einsum_path,
            )
            local_ptr = (rp[start : end + 1] - lo).astype(np.int64)
            Yb[start:end] = _segment_sum(contrib, local_ptr, end - start)
        return Y

    def _multiply_cgen(
        self, A: BCRSMatrix, X: np.ndarray, out: Optional[np.ndarray]
    ) -> np.ndarray:
        Y = out if out is not None else np.empty((A.n_rows, X.shape[1]))
        kernels_cgen.gspmv_cgen(
            A.kernel_binding(), A.block_size, np.ascontiguousarray(X), Y,
            watch=self.watch,
        )
        return Y


_DEFAULT = KernelRegistry()


def get_default_registry() -> KernelRegistry:
    """Return the process-wide shared :class:`KernelRegistry`."""
    return _DEFAULT


def set_default_engine(engine: str) -> str:
    """Rebind the default engine of the shared registry (CLI ``--engine``).

    Returns the previous default.  Every :data:`ENGINE_NAMES` entry is
    accepted; availability is still checked per call, so setting
    ``"cgen"`` without a C toolchain degrades down the fallback ladder
    with a warning rather than failing.
    """
    _check_engine(engine)
    previous = _DEFAULT.default_engine
    _DEFAULT.default_engine = engine
    return previous
