"""Atomic, versioned, checksummed run checkpoints.

A checkpoint is the full serializable state of a simulation driver —
particle system, RNG bit-generator states, step index, MRHS chunk
position, and accumulated per-step/per-chunk summaries — packed into a
single NPZ archive.  The contract that everything else builds on:

* **Crash safety.**  Writes go through :func:`repro.io.atomic_savez`
  (temp file + ``os.replace``), so the checkpoint directory never
  contains a torn file under a checkpoint name.
* **Corruption detection.**  A SHA-256 digest over every array's bytes
  (and the JSON state tree) is stored inside the archive and verified
  on load; a flipped bit raises :class:`CheckpointCorruptionError`
  instead of resuming from garbage.
* **Versioning.**  ``meta/format_version`` gates loaders; unknown
  versions are refused loudly.
* **Bit-exact resume.**  Restoring a driver from a checkpoint and
  continuing reproduces the uninterrupted trajectory bit-for-bit
  (tested for both :class:`~repro.stokesian.dynamics.StokesianDynamics`
  and :class:`~repro.core.mrhs.MrhsStokesianDynamics`), because the
  state includes the RNG bit-generator states, the cached Chebyshev
  spectrum bounds with their refresh age, and — mid-chunk — the block
  solve's noise ``Z`` and guess matrix ``U``.

The state itself is a JSON-friendly nested dict whose ndarray leaves
are concatenated byte-exactly into a single blob entry while scalars,
strings and ``None`` ride in a JSON tree indexing into it
(:func:`pack_state` / :func:`unpack_state`).
"""

from __future__ import annotations

import glob
import hashlib
import json
import logging
import queue
import threading
import time
import zipfile
from pathlib import Path
from typing import Any, Dict, List, Mapping, Optional, Tuple, Union

import numpy as np

import repro.telemetry as _telemetry
from repro.durable import remove_orphans
from repro.io import atomic_savez
from repro.util.rng import rng_from_json, rng_state_to_json  # noqa: F401  (re-export)

__all__ = [
    "FORMAT_VERSION",
    "CheckpointCorruptionError",
    "CheckpointManager",
    "pack_state",
    "unpack_state",
    "rng_state_to_json",
    "rng_from_json",
]

PathLike = Union[str, Path]

logger = logging.getLogger(__name__)

FORMAT_VERSION = 1

_TREE_KEY = "__tree__"
_BLOB_KEY = "__blob__"
_CHECKSUM_KEY = "__checksum__"
_ARRAY_TAG = "__array__"


class CheckpointCorruptionError(RuntimeError):
    """The checkpoint file is unreadable or fails its checksum."""


# ----------------------------------------------------------------------
# state tree <-> NPZ arrays
# ----------------------------------------------------------------------
def pack_state(state: Mapping[str, Any]) -> Dict[str, np.ndarray]:
    """Flatten a nested state dict into NPZ-ready arrays.

    ndarray leaves are concatenated byte-exactly into **one** ``uint8``
    blob (a zip entry per array would dominate the checkpoint budget —
    a driver state holds dozens of small record arrays); the remaining
    structure — dicts, lists, scalars, strings, ``None`` — rides in a
    JSON tree whose ``{"__array__": {dtype, shape, offset, nbytes}}``
    placeholders index into the blob.
    """
    chunks: List[bytes] = []
    offset = 0

    def encode(obj: Any) -> Any:
        nonlocal offset
        if isinstance(obj, np.ndarray):
            if obj.dtype == object:
                raise TypeError("cannot checkpoint an object array")
            raw = np.ascontiguousarray(obj).tobytes()
            spec = {
                "dtype": str(obj.dtype),
                "shape": list(obj.shape),
                "offset": offset,
                "nbytes": len(raw),
            }
            chunks.append(raw)
            offset += len(raw)
            return {_ARRAY_TAG: spec}
        if isinstance(obj, dict):
            return {str(k): encode(v) for k, v in obj.items()}
        if isinstance(obj, (list, tuple)):
            return [encode(v) for v in obj]
        if isinstance(obj, np.integer):
            return int(obj)
        if isinstance(obj, np.floating):
            return float(obj)
        if isinstance(obj, np.bool_):
            return bool(obj)
        if obj is None or isinstance(obj, (bool, int, float, str)):
            return obj
        raise TypeError(f"cannot checkpoint value of type {type(obj).__name__}")

    tree = encode(dict(state))
    return {
        _TREE_KEY: np.array(json.dumps(tree)),
        _BLOB_KEY: np.frombuffer(b"".join(chunks), dtype=np.uint8),
    }


def unpack_state(arrays: Mapping[str, np.ndarray]) -> Dict[str, Any]:
    """Inverse of :func:`pack_state`."""
    tree = json.loads(str(arrays[_TREE_KEY][()]))
    blob = np.asarray(arrays[_BLOB_KEY]).tobytes()

    def decode(obj: Any) -> Any:
        if isinstance(obj, dict):
            if set(obj) == {_ARRAY_TAG}:
                spec = obj[_ARRAY_TAG]
                raw = blob[spec["offset"] : spec["offset"] + spec["nbytes"]]
                return np.frombuffer(raw, dtype=np.dtype(spec["dtype"])).reshape(
                    spec["shape"]
                ).copy()
            return {k: decode(v) for k, v in obj.items()}
        if isinstance(obj, list):
            return [decode(v) for v in obj]
        return obj

    return decode(tree)


def _digest(arrays: Mapping[str, np.ndarray]) -> str:
    """SHA-256 over every stored array's identity, dtype, shape, bytes."""
    h = hashlib.sha256()
    for key in sorted(arrays):
        if key == _CHECKSUM_KEY:
            continue
        a = np.ascontiguousarray(arrays[key])
        h.update(key.encode())
        h.update(str(a.dtype).encode())
        h.update(str(a.shape).encode())
        h.update(a.tobytes())
    return h.hexdigest()


# ----------------------------------------------------------------------
# manager
# ----------------------------------------------------------------------
class CheckpointManager:
    """Writes, retains, verifies, and loads run checkpoints.

    Parameters
    ----------
    directory:
        Checkpoint directory (created if missing).
    keep:
        Retention: only the ``keep`` most recent checkpoints are kept
        on disk (older ones are pruned after each successful save).
    prefix:
        Filename prefix; files are ``<prefix>-<step:09d>.npz``.
    spill_dir:
        Optional secondary directory (ideally a different filesystem).
        When the primary write fails with :class:`OSError` even after
        the governor's emergency release, the checkpoint fails over
        here; retention and resume span both directories.
    governor:
        Optional :class:`~repro.resources.ResourceGovernor` consulted
        on a failed write: junior-class artifacts (sealed telemetry
        segments, flight bundles) are evicted to make room for the
        checkpoint before the spill directory is tried.
    """

    def __init__(
        self,
        directory: PathLike,
        *,
        keep: int = 3,
        prefix: str = "ckpt",
        spill_dir: Optional[PathLike] = None,
        governor: Optional[Any] = None,
    ) -> None:
        if keep < 1:
            raise ValueError("keep must be >= 1")
        if not prefix or "/" in prefix:
            raise ValueError("prefix must be a non-empty bare name")
        self.directory = Path(directory)
        self.directory.mkdir(parents=True, exist_ok=True)
        self.keep = int(keep)
        self.prefix = prefix
        self.spill_dir = Path(spill_dir) if spill_dir is not None else None
        self.governor = governor
        # A save killed mid-publish leaves its temp file behind.
        for d in (self.directory, self.spill_dir):
            if d is not None:
                remove_orphans(d, glob.escape(prefix) + "-*")
        self.spills = 0
        self._queue: Optional[queue.Queue] = None
        self._worker: Optional[threading.Thread] = None
        self._worker_error: Optional[BaseException] = None

    # ------------------------------------------------------------------
    def path_for(self, step: int) -> Path:
        return self.directory / f"{self.prefix}-{step:09d}.npz"

    def checkpoints(self) -> List[Path]:
        """Existing *global* checkpoint files, oldest first.

        Only ``<prefix>-<step>.npz`` files count — per-rank shard files
        (``<prefix>-shard<rank>-<step>.npz``) live in the same
        directory but have their own listing (:meth:`shards_at`) and
        retention (:meth:`_prune_shards`).

        Spilled checkpoints (written to ``spill_dir`` after a primary
        ENOSPC) merge into the listing so retention and resume see one
        timeline; a step present in both directories resolves to the
        primary copy."""
        by_name: Dict[str, Path] = {}
        if self.spill_dir is not None and self.spill_dir.is_dir():
            for p in self.spill_dir.glob(f"{self.prefix}-*.npz"):
                if p.stem[len(self.prefix) + 1:].isdigit():
                    by_name[p.name] = p
        for p in self.directory.glob(f"{self.prefix}-*.npz"):
            if p.stem[len(self.prefix) + 1:].isdigit():
                by_name[p.name] = p
        return [by_name[name] for name in sorted(by_name)]

    def latest(self) -> Optional[Path]:
        found = self.checkpoints()
        return found[-1] if found else None

    # ------------------------------------------------------------------
    def save(self, state: Mapping[str, Any], *, step: int) -> Path:
        """Atomically write ``state`` as the checkpoint for ``step``."""
        if step < 0:
            raise ValueError("step must be non-negative")
        payload = {
            "meta": {
                "format_version": FORMAT_VERSION,
                "step": int(step),
                "kind": str(state.get("kind", "unknown")),
            },
            "state": dict(state),
        }
        t0 = time.perf_counter()
        arrays = pack_state(payload)
        arrays[_CHECKSUM_KEY] = np.array(_digest(arrays))
        # Uncompressed and without fsync: a checkpoint must cost a few
        # percent of one step; deflate and fsync dominate the write at
        # that budget, and neither buys anything against the layer's
        # threat model (process death + checksum-verified load).
        try:
            path = self._write_verified(self.path_for(step), arrays)
        except OSError as exc:
            path = self._save_degraded(arrays, step, exc)
        self._prune()
        hub = _telemetry.active_hub
        if hub is not None:
            # Metrics only: save() may run on the background writer
            # thread, and the tracer's span stack is not thread-safe.
            mx = hub.metrics
            mx.counter("checkpoint.writes").inc()
            mx.counter("checkpoint.bytes").inc(path.stat().st_size)
            mx.histogram("checkpoint.write_seconds").observe(
                time.perf_counter() - t0
            )
        return path

    def _write_verified(
        self, target: Path, arrays: Mapping[str, np.ndarray]
    ) -> Path:
        """Atomic write + checksum read-back of one archive at ``target``.

        Retention safety: never let a bad in-flight write evict the
        newest *verified* checkpoint.  Pruning runs only after the
        just-written file passes the same checksum gate a resume
        would apply; a write that lands torn is deleted and reported,
        leaving every older checkpoint in place.
        """
        path = atomic_savez(target, compress=False, fsync=False, **arrays)
        try:
            self._verify(path)
        except CheckpointCorruptionError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
            raise
        return path

    def _save_degraded(
        self,
        arrays: Mapping[str, np.ndarray],
        step: int,
        first_exc: OSError,
    ) -> Path:
        """The checkpoint degraded-mode ladder after a failed write.

        Checkpoints are the senior durable class, so a failed write
        escalates instead of shedding: (1) ask the governor to evict
        junior artifacts (sealed telemetry segments, then flight
        bundles) and retry the primary path once; (2) fail over to the
        spill directory — same atomic write, same checksum read-back;
        (3) only when every rung fails raise
        :class:`~repro.resources.ResourceExhausted`, which the runner
        surfaces as FATAL (losing checkpoint durability silently is
        worse than stopping).
        """
        from repro.resources.governor import ResourceExhausted

        logger.warning(
            "checkpoint write for step %d failed (%s); entering degraded "
            "ladder", step, first_exc,
        )
        if self.governor is not None:
            blob = arrays.get(_BLOB_KEY)
            need = (int(blob.nbytes) if blob is not None else 0) * 2 + (1 << 20)
            self.governor.emergency_release(need)
            try:
                return self._write_verified(self.path_for(step), arrays)
            except OSError:
                pass
        if self.spill_dir is not None:
            try:
                self.spill_dir.mkdir(parents=True, exist_ok=True)
                path = self._write_verified(
                    self.spill_dir / self.path_for(step).name, arrays
                )
            except OSError as exc:
                raise ResourceExhausted(
                    f"checkpoint for step {step} failed on both the primary "
                    f"directory ({first_exc}) and the spill directory "
                    f"({exc})"
                ) from exc
            self.spills += 1
            logger.warning(
                "checkpoint for step %d spilled to %s", step, path
            )
            hub = _telemetry.active_hub
            if hub is not None:
                hub.metrics.counter("checkpoint.spills").inc()
            return path
        raise ResourceExhausted(
            f"checkpoint for step {step} failed ({first_exc}) and no spill "
            "directory is configured"
        ) from first_exc

    def save_async(self, state: Mapping[str, Any], *, step: int) -> Path:
        """Queue ``state`` for writing on the background writer thread.

        The caller pays only for the enqueue — the driver's
        ``get_state()`` snapshot is already a full copy, so the
        pack/digest/write pipeline runs safely off the critical path
        (async checkpointing; this is how the <5%-of-a-step overhead
        budget is met).  Call :meth:`flush` to wait for queued writes;
        a failed background write re-raises there (or on the next
        ``save_async``).  Returns the path the checkpoint will land at.
        """
        if step < 0:
            raise ValueError("step must be non-negative")
        self._raise_worker_error()
        if self._worker is None or not self._worker.is_alive():
            self._queue = queue.Queue()
            self._worker = threading.Thread(
                target=self._drain, name="checkpoint-writer", daemon=True
            )
            self._worker.start()
        self._queue.put((dict(state), int(step)))
        return self.path_for(step)

    def flush(self) -> None:
        """Block until every queued async checkpoint is on disk."""
        if self._queue is not None:
            self._queue.join()
        self._raise_worker_error()

    def _drain(self) -> None:
        while True:
            state, step = self._queue.get()
            try:
                self.save(state, step=step)
            except BaseException as exc:  # noqa: BLE001 - reported on flush
                self._worker_error = exc
            finally:
                self._queue.task_done()

    def _raise_worker_error(self) -> None:
        exc, self._worker_error = self._worker_error, None
        if exc is not None:
            raise exc

    def _verify(self, path: Path) -> None:
        """Checksum-verify the file at ``path`` without unpacking it.

        Raises :class:`CheckpointCorruptionError` on a torn archive or
        digest mismatch — the cheap read-back gate :meth:`save` applies
        before pruning older checkpoints.
        """
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: np.asarray(data[k]) for k in data.files}
        except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed write verification: {exc}"
            ) from exc
        if _CHECKSUM_KEY not in arrays:
            raise CheckpointCorruptionError(
                f"checkpoint {path} was written without a checksum"
            )
        if _digest(arrays) != str(arrays[_CHECKSUM_KEY][()]):
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed its content checksum right "
                "after writing (torn or corrupted write)"
            )

    def _prune(self) -> None:
        found = self.checkpoints()
        for old in found[: max(0, len(found) - self.keep)]:
            try:
                old.unlink()
            except OSError:  # pragma: no cover - racing cleanup is benign
                pass

    # ------------------------------------------------------------------
    # per-rank shards (distributed recovery)
    # ------------------------------------------------------------------
    def shard_path_for(self, step: int, rank: int) -> Path:
        return self.directory / f"{self.prefix}-shard{rank:04d}-{step:09d}.npz"

    def save_shard(
        self, state: Mapping[str, Any], *, step: int, rank: int
    ) -> Path:
        """Atomically write one rank's shard of the step-``step`` state.

        Shards get the full checkpoint treatment — atomic replace,
        SHA-256 content checksum, format versioning — but are keyed by
        ``(step, rank)``: rank recovery
        (:class:`~repro.distributed.recovery.RankRecoveryManager`)
        rebuilds a dead rank's rows from the latest step at which
        *every* rank's shard is on disk.
        """
        if step < 0:
            raise ValueError("step must be non-negative")
        if rank < 0:
            raise ValueError("rank must be non-negative")
        payload = {
            "meta": {
                "format_version": FORMAT_VERSION,
                "step": int(step),
                "rank": int(rank),
                "kind": str(state.get("kind", "shard")),
            },
            "state": dict(state),
        }
        arrays = pack_state(payload)
        arrays[_CHECKSUM_KEY] = np.array(_digest(arrays))
        path = atomic_savez(
            self.shard_path_for(step, rank), compress=False, fsync=False,
            **arrays,
        )
        # Same verify-before-prune gate as :meth:`save`: a torn shard
        # write must never evict the last complete shard wave.
        try:
            self._verify(path)
        except CheckpointCorruptionError:
            try:
                path.unlink()
            except OSError:  # pragma: no cover - already gone
                pass
            raise
        self._prune_shards()
        hub = _telemetry.active_hub
        if hub is not None:
            hub.metrics.counter("checkpoint.shard_writes").inc()
        return path

    def shard_steps(self) -> List[int]:
        """Steps that have at least one shard on disk, oldest first."""
        steps = set()
        for p in self.directory.glob(f"{self.prefix}-shard*-*.npz"):
            try:
                steps.add(int(p.stem.rsplit("-", 1)[1]))
            except ValueError:  # pragma: no cover - foreign file
                continue
        return sorted(steps)

    def shards_at(self, step: int) -> Dict[int, Path]:
        """``{rank: path}`` of the shards stored for ``step``."""
        out: Dict[int, Path] = {}
        for p in self.directory.glob(
            f"{self.prefix}-shard*-{step:09d}.npz"
        ):
            head = p.stem.rsplit("-", 1)[0]
            try:
                out[int(head[len(self.prefix) + len("-shard"):])] = p
            except ValueError:  # pragma: no cover - foreign file
                continue
        return out

    def load_shards(
        self, step: Optional[int] = None, *, expect_ranks: Optional[int] = None
    ) -> Tuple[Dict[int, Dict[str, Any]], int]:
        """Load every rank's shard for one step; ``(states, step)``.

        ``step`` defaults to the newest step whose shard set is
        *complete* (``expect_ranks`` shards present, when given) and
        fully loadable — an interrupted shard wave or a corrupt file
        falls back to the previous step, mirroring
        :meth:`load_latest`.
        """
        candidates = (
            [int(step)] if step is not None else list(reversed(self.shard_steps()))
        )
        if not candidates:
            raise FileNotFoundError(f"no shards under {self.directory}")
        last_error: Optional[Exception] = None
        for s in candidates:
            found = self.shards_at(s)
            if not found:
                raise FileNotFoundError(
                    f"no shards for step {s} under {self.directory}"
                )
            if expect_ranks is not None and len(found) != expect_ranks:
                last_error = CheckpointCorruptionError(
                    f"step {s} has {len(found)}/{expect_ranks} shards"
                )
                continue
            try:
                return (
                    {r: self.load(p)[0] for r, p in sorted(found.items())},
                    s,
                )
            except CheckpointCorruptionError as exc:
                last_error = exc
        raise CheckpointCorruptionError(
            f"no complete loadable shard set under {self.directory}; "
            f"last error: {last_error}"
        )

    def _prune_shards(self) -> None:
        steps = self.shard_steps()
        for old_step in steps[: max(0, len(steps) - self.keep)]:
            for p in self.shards_at(old_step).values():
                try:
                    p.unlink()
                except OSError:  # pragma: no cover - racing cleanup
                    pass

    # ------------------------------------------------------------------
    def load(self, path: Optional[PathLike] = None) -> Tuple[Dict[str, Any], Dict[str, Any]]:
        """Load and verify a checkpoint; returns ``(state, meta)``.

        ``path`` defaults to the most recent checkpoint.  Raises
        :class:`CheckpointCorruptionError` for truncated archives,
        checksum mismatches, or unknown format versions, and
        :class:`FileNotFoundError` when there is nothing to load.
        """
        if path is None:
            path = self.latest()
            if path is None:
                raise FileNotFoundError(
                    f"no checkpoints under {self.directory}"
                )
        path = Path(path)
        try:
            with np.load(path, allow_pickle=False) as data:
                arrays = {k: np.asarray(data[k]) for k in data.files}
        except FileNotFoundError:
            raise
        except (zipfile.BadZipFile, ValueError, KeyError, OSError, EOFError) as exc:
            raise CheckpointCorruptionError(
                f"checkpoint {path} is unreadable: {exc}"
            ) from exc
        if not {_CHECKSUM_KEY, _TREE_KEY, _BLOB_KEY} <= set(arrays):
            raise CheckpointCorruptionError(
                f"checkpoint {path} is missing its checksum or state tree"
            )
        stored = str(arrays[_CHECKSUM_KEY][()])
        if _digest(arrays) != stored:
            raise CheckpointCorruptionError(
                f"checkpoint {path} failed its content checksum"
            )
        payload = unpack_state(arrays)
        meta = payload.get("meta", {})
        version = meta.get("format_version")
        if version != FORMAT_VERSION:
            raise CheckpointCorruptionError(
                f"checkpoint {path} has format version {version!r}; "
                f"this build reads version {FORMAT_VERSION}"
            )
        return payload["state"], meta

    def load_latest(self, *, fallback: bool = True) -> Tuple[Dict[str, Any], Dict[str, Any], Path]:
        """Load the newest *loadable* checkpoint.

        With ``fallback`` (default), a corrupt newest checkpoint is
        skipped and older ones are tried — the recovery path after a
        crash plus disk corruption.  Returns ``(state, meta, path)``.
        """
        found = self.checkpoints()
        if not found:
            raise FileNotFoundError(f"no checkpoints under {self.directory}")
        last_error: Optional[Exception] = None
        for path in reversed(found):
            try:
                state, meta = self.load(path)
                return state, meta, path
            except CheckpointCorruptionError as exc:
                last_error = exc
                if not fallback:
                    raise
        raise CheckpointCorruptionError(
            f"all {len(found)} checkpoints under {self.directory} are "
            f"corrupt; last error: {last_error}"
        )

    # ------------------------------------------------------------------
    def overhead_estimate(self) -> Dict[str, float]:
        """Size-on-disk summary (bytes) for telemetry/benchmarks."""
        sizes = [p.stat().st_size for p in self.checkpoints()]
        return {
            "count": float(len(sizes)),
            "total_bytes": float(sum(sizes)),
            "mean_bytes": float(np.mean(sizes)) if sizes else 0.0,
        }
