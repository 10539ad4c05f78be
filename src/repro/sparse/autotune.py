"""Per-machine engine auto-selection (the ``auto`` engine).

The paper hand-picks its kernel per machine ("on Nehalem the generated
kernel, on Barcelona the compiler's"); this module automates that
choice.  The first time a product with a given ``(block_size, m,
shape-class)`` runs on a machine, :class:`AutoSelector` micro-benchmarks
every available engine on the actual matrix, keeps the fastest, and
caches the verdict — in memory for this process and as JSON on disk so
later runs skip the tuning entirely.

Shape classing is deliberately coarse: block-row count and fill are
bucketed by powers of two, because engine rankings flip with cache
residency and density, not with a 10% size change.  The disk cache key
includes a CPU token, so a copied cache directory never applies another
machine's verdicts (same policy as the ``cgen`` object cache).

The cache lives in ``kernel_autotune.json`` under the active telemetry
hub's directory when one is bound (so tuning verdicts land next to the
traces they explain), else under an explicit ``cache_dir``, else the
selection is process-memory only.

The verdict cache is hardened (DESIGN.md §14): the file carries a
schema version, every entry carries a checksum and the host fingerprint
(CPU, BLAS stack, Python) it was tuned under.  A torn or foreign file
is rejected and rebuilt — recorded as an ``autotune_corrupt`` /
``autotune_stale`` :class:`~repro.sparse.enginewatch.EngineEvent`,
never a crash.  Tuning itself times engines through the registry's raw
dispatch so a broken engine is skipped (and logged), not silently timed
via its fallback rung; engines quarantined for the shape class are
excluded from both tuning and selection.
"""

from __future__ import annotations

import hashlib
import json
import math
import platform
import time
from pathlib import Path
from typing import TYPE_CHECKING, Dict, Optional

import numpy as np

import repro.telemetry as _telemetry
from repro.durable import publish
from repro.resilience.faults import fire_fault
from repro.sparse.enginewatch import (
    REFERENCE_ENGINE,
    EngineFailure,
    shape_class,
)
from repro.sparse.kernels_cgen import _cpu_token

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (types only)
    from repro.sparse.bcrs import BCRSMatrix
    from repro.sparse.kernels import KernelRegistry

__all__ = [
    "AutoSelector",
    "CACHE_FILENAME",
    "SCHEMA_VERSION",
    "host_fingerprint",
]

CACHE_FILENAME = "kernel_autotune.json"

#: Verdict-file schema.  v1 was a bare ``{key: record}`` mapping with no
#: integrity metadata; v2 wraps it as ``{"schema": 2, "entries": ...}``
#: with per-entry checksums and host fingerprints.  v3 keeps the v2
#: layout; the bump retires v2 verdicts, whose winners may name engines
#: that no longer exist.  Any other schema is rejected and rebuilt.
SCHEMA_VERSION = 3

#: Target duration of one timing measurement; calls faster than this are
#: batched so the perf_counter resolution does not dominate.
_MIN_MEASURE_SECONDS = 2e-4


def _bucket(x: float) -> int:
    """log2 bucket: sizes within 2x land in the same shape class."""
    return int(math.log2(x)) if x >= 1 else 0


def _blas_token() -> str:
    """A short token for the linear-algebra stack behind the engines.

    Engine rankings depend on the BLAS numpy/scipy were built against
    at least as much as on the CPU, so the fingerprint includes both
    library versions and (when numpy exposes it) the BLAS name.
    """
    try:
        import scipy

        scipy_version = scipy.__version__
    except ImportError:  # pragma: no cover - scipy is a hard dep
        scipy_version = "none"
    blas = ""
    try:
        cfg = np.show_config(mode="dicts")
        deps = cfg.get("Build Dependencies", {}) if isinstance(cfg, dict) else {}
        info = deps.get("blas", {})
        blas = str(info.get("name", ""))
    except (TypeError, AttributeError):  # older numpy: no dict mode
        blas = ""
    return f"np{np.__version__}:sp{scipy_version}:{blas}"


def host_fingerprint() -> Dict[str, str]:
    """The identity a tuning verdict is only valid under."""
    return {
        "cpu": _cpu_token(),
        "blas": _blas_token(),
        "python": platform.python_version(),
    }


def _entry_checksum(record: dict) -> str:
    """Content hash of a verdict record (sans its own checksum field)."""
    payload = {k: v for k, v in record.items() if k != "checksum"}
    blob = json.dumps(payload, sort_keys=True, default=str)
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:16]


class AutoSelector:
    """Micro-benchmarks engines per ``(machine, b, m, shape-class)``.

    Parameters
    ----------
    registry:
        The :class:`~repro.sparse.kernels.KernelRegistry` whose engines
        are tuned; timing runs through the registry's raw dispatch so a
        failing engine is skipped rather than timed via its fallback.
    cache_dir:
        Directory for the JSON verdict cache.  ``None`` defers to the
        active telemetry hub's directory at selection time.
    repeats:
        Timing repetitions per engine; the minimum is kept (the usual
        "best of k" defense against scheduler noise).
    """

    def __init__(
        self,
        registry: "KernelRegistry",
        cache_dir: Optional[Path] = None,
        repeats: int = 3,
    ) -> None:
        self.registry = registry
        self.cache_dir = Path(cache_dir) if cache_dir is not None else None
        self.repeats = repeats
        self._memory: Dict[str, dict] = {}
        self._loaded_dirs: set = set()

    @property
    def _watch(self):
        return self.registry.watch

    # ------------------------------------------------------------------
    # keys and persistence
    # ------------------------------------------------------------------
    def shape_key(self, A: "BCRSMatrix", m: int) -> str:
        """The cache key classing this (machine, matrix shape, m)."""
        return (
            f"{_cpu_token()}:b{A.block_size}:m{m}"
            f":nb{_bucket(A.nb_rows)}:bpr{_bucket(A.blocks_per_row)}"
        )

    def _resolve_dir(self) -> Optional[Path]:
        if self.cache_dir is not None:
            return self.cache_dir
        hub = _telemetry.active_hub
        return getattr(hub, "directory", None) if hub is not None else None

    def _reject_cache(self, path: Path, reason: str) -> None:
        """Discard an unusable verdict file: event + unlink + rebuild."""
        self._watch.record("autotune_corrupt", "auto", reason=reason)
        try:
            path.unlink()
        except OSError:
            pass

    def _load_disk(self, directory: Path) -> None:
        """Merge a directory's verdict file into memory (once per dir).

        Every layer is validated: torn/unparseable files and unknown
        schemas are rejected and rebuilt; entries failing their checksum
        are skipped (``autotune_corrupt``); entries tuned under a
        different host fingerprint are skipped (``autotune_stale``) but
        left on disk for the machine they belong to.
        """
        marker = str(directory)
        if marker in self._loaded_dirs:
            return
        self._loaded_dirs.add(marker)
        path = directory / CACHE_FILENAME
        try:
            raw = path.read_text(encoding="utf-8")
        except OSError:
            return
        if fire_fault("engine.autotune_cache") is not None:
            raw = raw[: len(raw) // 2]  # simulate a torn write
        try:
            data = json.loads(raw)
        except ValueError:
            self._reject_cache(path, "unparseable JSON (torn write?)")
            return
        if not isinstance(data, dict) or data.get("schema") != SCHEMA_VERSION:
            found = data.get("schema") if isinstance(data, dict) else None
            self._reject_cache(
                path,
                f"schema {found!r} != {SCHEMA_VERSION} — discarding "
                "and retuning",
            )
            return
        entries = data.get("entries")
        if not isinstance(entries, dict):
            self._reject_cache(path, "missing entries mapping")
            return
        host = host_fingerprint()
        for key, record in entries.items():
            if not isinstance(record, dict) or "engine" not in record:
                self._watch.record(
                    "autotune_corrupt", "auto",
                    reason=f"malformed entry {key!r}",
                )
                continue
            if record.get("checksum") != _entry_checksum(record):
                self._watch.record(
                    "autotune_corrupt", "auto",
                    reason=f"checksum mismatch for {key!r}",
                )
                continue
            if record.get("fingerprint") != host:
                self._watch.record(
                    "autotune_stale", "auto",
                    reason=f"host fingerprint changed for {key!r}",
                )
                continue
            self._memory.setdefault(key, record)

    def _persist(self, directory: Path) -> None:
        """Atomically merge the in-memory verdicts into the disk cache.

        Foreign-fingerprint entries already on disk are preserved (they
        belong to another machine sharing the cache directory); only a
        structurally invalid file is started over.
        """
        path = directory / CACHE_FILENAME
        try:
            directory.mkdir(parents=True, exist_ok=True)
            merged: Dict[str, dict] = {}
            try:
                data = json.loads(path.read_text(encoding="utf-8"))
                if (
                    isinstance(data, dict)
                    and data.get("schema") == SCHEMA_VERSION
                    and isinstance(data.get("entries"), dict)
                ):
                    merged = dict(data["entries"])
            except (OSError, ValueError):
                merged = {}
            merged.update(self._memory)
            data = json.dumps(
                {"schema": SCHEMA_VERSION, "entries": merged},
                indent=2, sort_keys=True,
            ).encode("utf-8")
            publish(
                path, lambda fh: fh.write(data), writer="autotune",
                fsync=False,
            )
        except OSError:
            pass  # read-only dir: selection still works, memory-only

    # ------------------------------------------------------------------
    # selection
    # ------------------------------------------------------------------
    def select(self, A: "BCRSMatrix", m: int) -> str:
        """Return the fastest available, non-quarantined engine for this
        shape class.

        When the cached winner has since been quarantined the next-best
        timed engine is used (falling back to the reference engine), so
        a checkpointed quarantine keeps overriding a stale verdict.
        """
        record = self.record(A, m)
        watch = self._watch
        if not watch.has_quarantines:
            return record["engine"]
        shape = shape_class(A, m)
        if not watch.is_quarantined(record["engine"], shape):
            return record["engine"]
        from repro.sparse.kernels import available_engines

        avail = set(available_engines())
        candidates = {
            e: t for e, t in record.get("timings", {}).items()
            if e in avail and not watch.is_quarantined(e, shape)
        }
        if candidates:
            return min(candidates, key=candidates.get)
        return REFERENCE_ENGINE

    def record(self, A: "BCRSMatrix", m: int) -> dict:
        """Like :meth:`select` but returns the full tuning record
        (``{"engine", "timings", "key", "fingerprint", "checksum"}``;
        timings in seconds/call)."""
        key = self.shape_key(A, m)
        record = self._memory.get(key)
        if record is None:
            directory = self._resolve_dir()
            if directory is not None:
                self._load_disk(directory)
                record = self._memory.get(key)
        if record is None:
            record = self._tune(A, m, key)
            self._memory[key] = record
            directory = self._resolve_dir()
            if directory is not None:
                self._persist(directory)
        return record

    def _tune(self, A: "BCRSMatrix", m: int, key: str) -> dict:
        from repro.sparse.kernels import available_engines

        watch = self._watch
        shape = shape_class(A, m)
        rng = np.random.default_rng(0)
        X = rng.standard_normal((A.n_cols, m))
        out = np.empty((A.n_rows, m))
        timings: Dict[str, float] = {}
        for engine in available_engines():
            if watch.is_quarantined(engine, shape):
                watch.record(
                    "autotune_skip", engine, shape, "quarantined"
                )
                continue
            try:
                timings[engine] = self._time(
                    lambda e=engine: self.registry._dispatch(A, X, out, e)
                )
            except (EngineFailure, OSError, ValueError, FloatingPointError) as exc:
                # A tier that cannot run is excluded from the ranking —
                # visibly, so a silently broken engine shows up in the
                # event log rather than as a mysteriously absent timing.
                watch.record("autotune_skip", engine, shape, str(exc))
                continue
        if not timings:  # pragma: no cover - blocked/tiled always run
            raise RuntimeError("no kernel engine could be benchmarked")
        best = min(timings, key=timings.get)
        record = {
            "engine": best,
            "timings": timings,
            "key": key,
            "fingerprint": host_fingerprint(),
        }
        record["checksum"] = _entry_checksum(record)
        return record

    def _time(self, fn) -> float:
        """Best-of-``repeats`` seconds per call, batching fast calls."""
        fn()  # warmup: plan building, compilation
        t0 = time.perf_counter()
        fn()
        dt = time.perf_counter() - t0
        number = 1
        if dt < _MIN_MEASURE_SECONDS:
            number = int(math.ceil(_MIN_MEASURE_SECONDS / max(dt, 1e-7)))
        best = math.inf
        for _ in range(self.repeats):
            t0 = time.perf_counter()
            for _ in range(number):
                fn()
            best = min(best, (time.perf_counter() - t0) / number)
        return best
