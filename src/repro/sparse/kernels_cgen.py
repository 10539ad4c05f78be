"""Code-generated compiled GSPMV kernels (the ``cgen`` engine).

The paper's single-node wins came from a code generator: "for a given
number of vectors m, [it] produces a fully-unrolled SIMD kernel" that is
compiled once and reused for every product at that ``m``.  This module
is that generator for the reproduction: for each ``(block_size, m)`` it
emits a small C translation unit with both sizes baked in as
compile-time constants, compiles it with the system C compiler
(``-O3 -march=native``), and loads the shared object through
:mod:`ctypes`.

Two details carry the performance:

* **Register blocking over the vector dimension.**  A naive ``b x m``
  accumulator tile spills registers once ``b * m`` doubles exceed the
  register file (measured: m=16 runs 6x slower than m=8 without it).
  The generator therefore tiles ``m`` into chunks of
  :data:`VECTOR_CHUNK` and keeps one ``b x chunk`` accumulator in
  registers per pass — the paper's register-blocking optimization.
* **Compile-time constants.**  ``b``, ``m`` and the chunk width are
  ``enum`` constants, so the compiler fully unrolls the block loops and
  vectorizes the ``m``-contiguous inner loop (the row-major multivector
  layout exists exactly for this).

The pipeline is *hardened*, not merely guarded (DESIGN.md §14): no
compiler makes :func:`available` return ``False`` with a recorded
reason and the registry demotes down the fallback ladder; a failing
compile is retried (:data:`COMPILE_RETRIES`) under a subprocess timeout
(:data:`COMPILE_TIMEOUT_SECONDS`) and then raises a narrow
:class:`~repro.sparse.enginewatch.CompileError`; compiled objects are
published atomically with a content-checksum sidecar that is validated
on every load, and a truncated or foreign cache entry is deleted,
rebuilt once, and recorded as an :class:`~repro.sparse.enginewatch.
EngineEvent` instead of being trusted or silently swallowed.  Every
loaded kernel also passes an exact identity-product smoke test before
it is cached.  Fault-injection sites ``engine.compile`` and
``engine.load`` (see :mod:`repro.resilience.faults`) make both failure
paths deterministically testable.
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import os
import platform
import subprocess
import tempfile
from pathlib import Path
from typing import Callable, Dict, Optional, Tuple

import numpy as np

from repro.resilience.faults import fire_fault
from repro.sparse.enginewatch import CompileError, EngineFailure, KernelLoadError

__all__ = [
    "available",
    "unavailable_reason",
    "get_kernel",
    "gspmv_cgen",
    "default_cache_dir",
    "VECTOR_CHUNK",
    "COMPILE_TIMEOUT_SECONDS",
    "COMPILE_RETRIES",
]

#: Accumulator tile width in vectors.  8 doubles fills two AVX2 (or one
#: AVX-512) register per block row, leaving room for the ``b x b`` block
#: operands; measured best or tied for every m on the dev machines.
VECTOR_CHUNK = 8

_CC_CANDIDATES = ("cc", "gcc", "clang")
_CFLAGS = ("-O3", "-march=native", "-funroll-loops", "-shared", "-fPIC")

#: Hard ceiling on one compiler invocation — a wedged compiler (or a
#: filesystem that hangs) must not stall the simulation indefinitely.
COMPILE_TIMEOUT_SECONDS = 60.0

#: Failed compiles are retried this many times (transient ENOSPC /
#: OOM-killed cc1 / timeout) before :class:`CompileError` is raised.
COMPILE_RETRIES = 2

_kernels: Dict[Tuple[int, int], Callable] = {}
_available: Optional[bool] = None
_unavailable_reason: str = ""


def _record(watch, kind: str, b: int, m: int, reason: str) -> None:
    """Report a pipeline incident to the engine watchdog, if wired."""
    if watch is not None:
        watch.record(kind, "cgen", shape=f"b{b}:m{m}", reason=reason)


def default_cache_dir() -> Path:
    """Directory for compiled kernel objects (override: REPRO_CACHE_DIR)."""
    env = os.environ.get("REPRO_CACHE_DIR")
    if env:
        return Path(env) / "cgen"
    return Path.home() / ".cache" / "repro" / "cgen"


def _cpu_token() -> str:
    """A short token identifying the CPU so ``-march=native`` objects are
    never loaded on a different microarchitecture."""
    text = platform.machine()
    try:
        with open("/proc/cpuinfo", "r", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith(("model name", "flags")):
                    text += line
                    if line.startswith("flags"):
                        break
    except OSError:
        pass
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def _find_cc() -> Optional[str]:
    for cc in _CC_CANDIDATES:
        try:
            subprocess.run(
                [cc, "--version"],
                stdout=subprocess.DEVNULL,
                stderr=subprocess.DEVNULL,
                check=True,
            )
            return cc
        except (OSError, subprocess.CalledProcessError):
            continue
    return None


def generate_source(b: int, m: int, chunk: int = VECTOR_CHUNK) -> str:
    """Emit the C source of the GSPMV kernel specialized to ``(b, m)``.

    The signature mirrors the BCRS arrays exactly: ``row_ptr``/
    ``col_ind`` are int32 (the 4-byte indices of the paper's traffic
    model), ``blocks`` is ``(nnzb, b, b)`` and ``X``/``Y`` are row-major
    ``(n, m)`` multivectors.
    """
    vc = min(chunk, m)
    while m % vc:
        vc -= 1
    return f"""
#include <stdint.h>

void gspmv(int64_t nb, const int32_t *restrict row_ptr,
           const int32_t *restrict col_ind,
           const double *restrict blocks,
           const double *restrict X, double *restrict Y) {{
    enum {{ B = {b}, M = {m}, VC = {vc} }};
    for (int64_t i = 0; i < nb; ++i) {{
        const int32_t lo = row_ptr[i], hi = row_ptr[i + 1];
        double *restrict ys = Y + i * B * M;
        for (int v0 = 0; v0 < M; v0 += VC) {{
            double acc[B][VC];
            for (int r = 0; r < B; ++r)
                for (int v = 0; v < VC; ++v)
                    acc[r][v] = 0.0;
            for (int32_t kk = lo; kk < hi; ++kk) {{
                const double *restrict blk = blocks + (int64_t)kk * B * B;
                const double *restrict xs =
                    X + (int64_t)col_ind[kk] * B * M + v0;
                for (int r = 0; r < B; ++r)
                    for (int c = 0; c < B; ++c) {{
                        const double a = blk[r * B + c];
                        #pragma GCC ivdep
                        for (int v = 0; v < VC; ++v)
                            acc[r][v] += a * xs[c * M + v];
                    }}
            }}
            for (int r = 0; r < B; ++r)
                for (int v = 0; v < VC; ++v)
                    ys[r * M + v0 + v] = acc[r][v];
        }}
    }}
}}
"""


def _sidecar(so_path: Path) -> Path:
    """The checksum sidecar published next to a compiled object."""
    return so_path.with_name(so_path.name + ".sha256")


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _checksum_ok(so_path: Path) -> bool:
    """True when the object matches its sidecar digest.

    A missing sidecar counts as a failure: it means the entry was not
    published by this pipeline (foreign file, torn write) and must not
    be trusted or dlopen'd.
    """
    try:
        expected = _sidecar(so_path).read_text(encoding="utf-8").strip()
        return bool(expected) and _digest(so_path) == expected
    except OSError:
        return False


def _discard(so_path: Path) -> None:
    """Delete a cache entry (object + sidecar), ignoring races."""
    for path in (so_path, _sidecar(so_path)):
        try:
            path.unlink()
        except OSError:
            pass


def _compile(b: int, m: int, cache_dir: Path, watch=None) -> Path:
    """Compile (or reuse) the shared object for ``(b, m)``.

    Raises :class:`CompileError` — never a bare subprocess error —
    after :data:`COMPILE_RETRIES` bounded-timeout attempts.  A cached
    entry that fails its checksum is deleted and rebuilt (recorded as a
    ``cache_recover`` event) instead of being returned.
    """
    cc = _find_cc()
    if cc is None:
        raise CompileError("no C compiler found")
    if fire_fault("engine.compile", b=b, m=m) is not None:
        raise CompileError(f"injected compile failure for (b={b}, m={m})")
    src = generate_source(b, m)
    token = hashlib.sha256(
        (src + cc + _cpu_token() + " ".join(_CFLAGS)).encode()
    ).hexdigest()[:16]
    so_path = cache_dir / f"gspmv_b{b}_m{m}_{token}.so"
    if so_path.exists():
        if _checksum_ok(so_path):
            return so_path
        _record(
            watch, "cache_recover", b, m,
            f"{so_path.name}: cached object failed checksum; rebuilding",
        )
        _discard(so_path)
    try:
        cache_dir.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise CompileError(f"cannot create kernel cache dir: {exc}") from exc
    last_error: Optional[BaseException] = None
    for attempt in range(1 + COMPILE_RETRIES):
        try:
            with tempfile.TemporaryDirectory(dir=cache_dir) as tmp:
                c_path = Path(tmp) / "kernel.c"
                c_path.write_text(src, encoding="utf-8")
                tmp_so = Path(tmp) / "kernel.so"
                subprocess.run(
                    [cc, *_CFLAGS, "-o", str(tmp_so), str(c_path)],
                    check=True,
                    timeout=COMPILE_TIMEOUT_SECONDS,
                    stdout=subprocess.DEVNULL,
                    stderr=subprocess.DEVNULL,
                )
                digest = _digest(tmp_so)
                tmp_sc = Path(tmp) / "kernel.so.sha256"
                tmp_sc.write_text(digest, encoding="utf-8")
                # Atomic publish, object first: another process racing
                # the same key lands on an identical object, so the last
                # rename simply wins; a crash between the two renames
                # leaves an entry without (or with a stale) sidecar,
                # which the checksum gate rejects and rebuilds.
                os.replace(tmp_so, so_path)
                os.replace(tmp_sc, _sidecar(so_path))
            return so_path
        except (
            subprocess.CalledProcessError,
            subprocess.TimeoutExpired,
            OSError,
        ) as exc:
            last_error = exc
            if attempt < COMPILE_RETRIES:
                _record(
                    watch, "compile_retry", b, m,
                    f"attempt {attempt + 1} failed: {exc!r}",
                )
    raise CompileError(
        f"compiling gspmv (b={b}, m={m}) failed after "
        f"{1 + COMPILE_RETRIES} attempts: {last_error!r}"
    )


_load_serial = itertools.count()


def _load(so_path: Path) -> Callable:
    """dlopen the object, immune to the loader's pathname cache.

    glibc's dlopen returns an already-loaded library when the *name*
    matches, without re-reading the file — so reloading a rebuilt
    object under a previously-loaded (now stale or truncated) name
    would hand back the broken old mapping and SIGBUS later.  Loading
    through a unique hardlink forces a fresh name; the loader's
    dev/inode dedup still reuses the mapping when the file really is
    the same one.
    """
    link = so_path.with_name(
        f".load-{os.getpid()}-{next(_load_serial)}-{so_path.name}"
    )
    try:
        os.link(so_path, link)
    except OSError:
        link = None  # exotic filesystem: fall back to the plain path
    try:
        lib = ctypes.CDLL(str(link if link is not None else so_path))
    finally:
        if link is not None:
            try:
                link.unlink()
            except OSError:
                pass
    fn = lib.gspmv
    # Raw addresses: a matrix binds its three arrays once
    # (:meth:`~repro.sparse.bcrs.BCRSMatrix.kernel_binding`), so a
    # product converts only the addresses of ``X`` and ``Y``.
    fn.argtypes = [ctypes.c_int64] + [ctypes.c_void_p] * 5
    fn.restype = None
    return fn


def _smoke_test(fn: Callable, b: int, m: int) -> None:
    """Exact identity-product check of a freshly loaded kernel.

    ``I @ X == X`` holds bit-for-bit (each output element is one
    ``1.0 * x`` multiply-add from zero), so any deviation means the
    object is miscompiled or corrupt — not a rounding difference.
    """
    rp = np.array([0, 1], dtype=np.int32)
    ci = np.array([0], dtype=np.int32)
    blk = np.ascontiguousarray(np.eye(b)[None, :, :])
    x = np.arange(1.0, b * m + 1.0).reshape(b, m)
    y = np.full((b, m), np.nan)
    fn(1, rp.ctypes.data, ci.ctypes.data, blk.ctypes.data,
       x.ctypes.data, y.ctypes.data)
    if not np.array_equal(y, x):
        raise KernelLoadError(
            f"kernel (b={b}, m={m}) failed its identity smoke test"
        )


def _load_checked(so_path: Path, b: int, m: int) -> Callable:
    """Load a compiled object, validating checksum then behaviour."""
    spec = fire_fault("engine.load", b=b, m=m)
    if spec is not None:
        # Simulate a torn cache write.  Replace the inode rather than
        # truncating in place: an earlier dlopen of this object may
        # still map the old inode, and shrinking a mapped file makes
        # its pages SIGBUS when glibc's exit-time destructors walk the
        # loaded DSOs.
        try:
            data = so_path.read_bytes()
            so_path.unlink()
            so_path.write_bytes(data[: max(1, len(data) // 2)])
        except OSError:
            pass
    if not _checksum_ok(so_path):
        raise KernelLoadError(
            f"{so_path.name}: checksum mismatch or missing sidecar "
            "(truncated or foreign cache entry)"
        )
    try:
        fn = _load(so_path)
    except OSError as exc:
        raise KernelLoadError(f"{so_path.name}: dlopen failed: {exc}") from exc
    _smoke_test(fn, b, m)
    return fn


def get_kernel(b: int, m: int, watch=None) -> Callable:
    """Return (compiling on first use) the kernel for ``(b, m)``.

    A cache entry that fails validation on load is deleted, rebuilt
    once (recorded as a ``cache_recover`` event), and re-validated; a
    second failure raises :class:`KernelLoadError` for the registry's
    fallback ladder to handle.
    """
    key = (b, m)
    fn = _kernels.get(key)
    if fn is not None:
        return fn
    cache_dir = default_cache_dir()
    so_path = _compile(b, m, cache_dir, watch=watch)
    try:
        fn = _load_checked(so_path, b, m)
    except KernelLoadError as exc:
        _record(watch, "cache_recover", b, m, f"{exc}; rebuilding")
        _discard(so_path)
        so_path = _compile(b, m, cache_dir, watch=watch)
        fn = _load_checked(so_path, b, m)
    _kernels[key] = fn
    return fn


def available() -> bool:
    """True when the compiled tier works in this environment.

    Probes once per process by building (or loading from cache) the
    ``(3, 1)`` kernel, which includes the identity smoke test.  That is
    the SPMV every Stokesian run multiplies with, so the probe compiles
    nothing a run would not.  Failure is scoped
    to the pipeline's own narrow exceptions — a missing compiler,
    compile/load trouble, a read-only cache — and the reason is kept
    for the registry's fallback event (:func:`unavailable_reason`);
    anything else (a genuine bug) propagates loudly.
    """
    global _available, _unavailable_reason
    if _available is None:
        if _find_cc() is None:
            _available = False
            _unavailable_reason = "no C compiler found"
        else:
            try:
                get_kernel(3, 1)
                _available = True
            except (EngineFailure, OSError) as exc:
                _available = False
                _unavailable_reason = str(exc)
    return _available


def unavailable_reason() -> str:
    """Why :func:`available` returned False ('' while available)."""
    available()
    return _unavailable_reason


def _reset() -> None:
    """Test hook: forget the probe verdict and all cached kernels."""
    global _available, _unavailable_reason
    _available = None
    _unavailable_reason = ""
    _kernels.clear()


def gspmv_cgen(
    binding: Tuple[int, int, int, int],
    b: int,
    X: np.ndarray,
    Y: np.ndarray,
    watch=None,
) -> None:
    """Run the compiled kernel: ``Y = A @ X`` into preallocated ``Y``.

    ``binding`` is ``A``'s :meth:`~repro.sparse.bcrs.BCRSMatrix.
    kernel_binding` and ``b`` its block size; ``X`` and ``Y`` must be
    C-contiguous float64 ``(n, m)`` arrays, which the caller
    (:class:`~repro.sparse.kernels.KernelRegistry`) guarantees.
    ``watch`` receives pipeline events (retries, cache recoveries) when
    provided.
    """
    fn = get_kernel(b, X.shape[1], watch=watch)
    fn(*binding, X.ctypes.data, Y.ctypes.data)
